"""Metric suite: sentencing extraction, MAE/RMSE, ROUGE/BLEU against an
independent brute-force oracle, the multiplicative combined score, rule-based
screening, and the pairwise-judgment prompt."""

import math

import numpy as np
import pytest

from lexchain.chains import load_chain_library
from lexchain.cli import default_chains_dir
from lexchain.corpus import CaseRecord, synthesize_corpus
from lexchain.errors import ConfigurationError, ContractError, ValidationError
from lexchain.metrics import (
    bleu,
    build_pairwise_prompt,
    combined_score,
    evaluate_outputs,
    extract_sentence_months,
    find_sentencing_char_span,
    mae_rmse,
    rouge,
    screen_corpus,
    screen_opinion,
)
from lexchain.tokenizer import tokenize


@pytest.fixture(scope="module")
def library():
    return load_chain_library(default_chains_dir())


@pytest.fixture(scope="module")
def robbery(library):
    return library["robbery"]


def _case(defendant="Li Ming", case_id="robbery-0000", charge="robbery",
          months=48, opinion=""):
    return CaseRecord(
        case_id=case_id,
        fact="placeholder fact",
        charge=charge,
        opinion=opinion,
        sentence_months=months,
        sentencing_span=None,
        defendant=defendant,
    )


class TestSentencingExtraction:
    """The shared clause grammar for pulling the months figure out of text."""

    def test_english_clause(self):
        text = "The court sentences the defendant to 48 months of fixed-term imprisonment."
        assert extract_sentence_months(text) == 48

    def test_chinese_clause(self):
        assert extract_sentence_months("本院判处有期徒刑42个月。") == 42

    def test_no_clause_returns_none(self):
        assert extract_sentence_months("the defendant is acquitted") is None
        assert find_sentencing_char_span("") is None

    def test_last_clause_wins(self):
        text = ("originally 12 months of fixed-term imprisonment, revised to "
                "30 months of fixed-term imprisonment")
        assert extract_sentence_months(text) == 30

    def test_last_clause_wins_across_languages(self):
        text = "judgment of 12 months of fixed-term imprisonment；判处有期徒刑24个月"
        assert extract_sentence_months(text) == 24
        text = "判处有期徒刑24个月; on appeal 12 months of fixed-term imprisonment"
        assert extract_sentence_months(text) == 12

    def test_span_slices_to_clause(self):
        text = "He received 36 months of fixed-term imprisonment today."
        start, end, months = find_sentencing_char_span(text)
        assert months == 36
        assert text[start:end] == "36 months of fixed-term imprisonment"


class TestMaeRmse:
    """Regression metrics over predicted months; an absent figure scores as 0."""

    def test_hand_values(self):
        mae, rmse = mae_rmse([10, 20], [12, 16])
        np.testing.assert_allclose(mae, 3.0)
        np.testing.assert_allclose(rmse, math.sqrt(10.0))

    def test_perfect_predictions(self):
        assert mae_rmse([7, 7, 7], [7, 7, 7]) == (0.0, 0.0)

    def test_absent_scored_as_zero_by_default(self):
        mae, rmse = mae_rmse([None], [6])
        assert mae == 6.0
        assert rmse == 6.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ContractError):
            mae_rmse([1, 2], [1])

    def test_empty_raises(self):
        with pytest.raises(ContractError):
            mae_rmse([], [])

    @pytest.mark.parametrize("seed", range(10))
    def test_mae_never_exceeds_rmse(self, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 300, size=1000).tolist()
        golds = rng.integers(0, 300, size=1000).tolist()
        mae, rmse = mae_rmse(preds, golds)
        assert mae <= rmse + 1e-12
        assert rmse <= max(abs(p - g) for p, g in zip(preds, golds)) + 1e-12


class TestRougeHandValues:
    """Hand-counted ROUGE fixtures covering clipping and the LCS variant."""

    def test_rouge1_shared_unigrams(self):
        p, r, f1 = rouge("the cat sat", "the cat ate", "1")
        np.testing.assert_allclose((p, r, f1), (2 / 3, 2 / 3, 2 / 3))

    def test_rouge1_clipping(self):
        # candidate counts {a:3}, reference {a:1, b:1}: overlap min(3,1)=1
        p, r, f1 = rouge("a a a", "a b", "1")
        np.testing.assert_allclose((p, r), (1 / 3, 1 / 2))
        np.testing.assert_allclose(f1, 0.4)

    def test_rouge2_bigrams(self):
        p, r, _ = rouge("the cat sat on", "the cat sat", "2")
        np.testing.assert_allclose((p, r), (2 / 3, 1.0))

    def test_rougeL_subsequence(self):
        # LCS("a b c d", "a c b d") has length 3
        p, r, _ = rouge("a b c d", "a c b d", "L")
        np.testing.assert_allclose((p, r), (3 / 4, 3 / 4))

    @pytest.mark.parametrize("variant", ["1", "2", "L"])
    def test_identity_scores_one(self, variant):
        text = "the defendant seized property of another by force"
        assert rouge(text, text, variant) == (1.0, 1.0, 1.0)

    def test_empty_reference_warns_zero(self):
        with pytest.warns(UserWarning, match="reference is empty"):
            assert rouge("something", "", "1") == (0.0, 0.0, 0.0)

    def test_empty_candidate_scores_zero(self):
        assert rouge("", "the cat", "1") == (0.0, 0.0, 0.0)
        assert rouge("", "the cat", "L") == (0.0, 0.0, 0.0)


class TestBleuHandValues:
    """Hand-counted BLEU fixtures: clipping, brevity penalty, unsmoothed orders 1..4."""

    def test_identity_scores_one(self):
        text = "the quick brown fox jumps over the fence"
        result = bleu(text, text)
        for k in (1, 2, 3, 4):
            np.testing.assert_allclose(result.bleu(k), 1.0)
        assert result.brevity_penalty == 1.0

    def test_clipped_unigram_precision(self):
        # candidate "a a a" vs reference "a b": clipped p1 = 1/3, c=3 >= r=2
        result = bleu("a a a", "a b")
        np.testing.assert_allclose(result.precisions[0], 1 / 3)
        assert result.brevity_penalty == 1.0
        np.testing.assert_allclose(result.bleu(1), 1 / 3)
        assert result.bleu(2) == 0.0

    def test_brevity_penalty(self):
        # candidate shorter than reference: bp = exp(1 - r/c) = exp(-1)
        result = bleu("a b", "a b c d")
        np.testing.assert_allclose(result.brevity_penalty, math.exp(-1.0))
        np.testing.assert_allclose(result.bleu(1), math.exp(-1.0))

    def test_empty_candidate_scores_zero(self):
        result = bleu("", "a b c")
        assert result.brevity_penalty == 0.0
        assert result.scores == [0.0, 0.0, 0.0, 0.0]

    def test_zero_precision_zeroes_higher_orders(self):
        # shared unigrams but no shared bigram: BLEU-2 and above collapse
        result = bleu("a c b", "a x b")
        assert result.precisions[0] > 0.0
        assert result.precisions[1] == 0.0
        assert result.bleu(1) > 0.0
        assert result.bleu(2) == result.bleu(3) == result.bleu(4) == 0.0


# ---------------------------------------------------------------------------
# Independent brute-force oracle for ROUGE and BLEU
# ---------------------------------------------------------------------------


def _oracle_counts(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _oracle_overlap(cand, ref, n):
    cand_grams = _oracle_counts(cand, n)
    ref_grams = _oracle_counts(ref, n)
    overlap = sum(min(cand_grams.count(g), ref_grams.count(g)) for g in set(cand_grams))
    return overlap, len(cand_grams), len(ref_grams)


def _oracle_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def _oracle_prf(overlap, cand_total, ref_total):
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _oracle_rouge(cand_text, ref_text, variant):
    cand, ref = tokenize(cand_text), tokenize(ref_text)
    if variant == "L":
        return _oracle_prf(_oracle_lcs(cand, ref), len(cand), len(ref))
    overlap, cand_total, ref_total = _oracle_overlap(cand, ref, int(variant))
    return _oracle_prf(overlap, cand_total, ref_total)


def _oracle_bleu_scores(cand_text, ref_text, max_n=4):
    cand, ref = tokenize(cand_text), tokenize(ref_text)
    c, r = len(cand), len(ref)
    precisions = []
    for n in range(1, max_n + 1):
        overlap, total, _ = _oracle_overlap(cand, ref, n)
        precisions.append(overlap / total if total else 0.0)
    bp = 1.0 if c >= r and c > 0 else (math.exp(1.0 - r / c) if c else 0.0)
    scores = []
    for k in range(1, max_n + 1):
        head = precisions[:k]
        if min(head) <= 0.0:
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in head) / k))
    return precisions, bp, scores


def _random_token_text(rng, min_len, max_len):
    alphabet = ["alpha", "beta", "gamma", "delta"]
    length = int(rng.integers(min_len, max_len + 1))
    return " ".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length))


class TestMetricOracle:
    """Exact agreement with a brute-force n-gram/LCS oracle on random pairs."""

    def test_rouge_and_bleu_match_oracle_on_100_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            cand = _random_token_text(rng, 0, 12)
            ref = _random_token_text(rng, 1, 12)
            for variant in ("1", "2", "L"):
                assert rouge(cand, ref, variant) == _oracle_rouge(cand, ref, variant)
            result = bleu(cand, ref)
            precisions, bp, scores = _oracle_bleu_scores(cand, ref)
            assert result.precisions == precisions
            assert result.brevity_penalty == bp
            assert result.scores == scores

    def test_all_scores_within_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cand = _random_token_text(rng, 0, 12)
            ref = _random_token_text(rng, 1, 12)
            for variant in ("1", "2", "L"):
                for value in rouge(cand, ref, variant):
                    assert 0.0 <= value <= 1.0
            for value in bleu(cand, ref).scores:
                assert 0.0 <= value <= 1.0


class TestCombinedScore:
    """Multiplicative three-way accuracy score with frozen reference triples."""

    def test_reference_triple_tight(self):
        assert abs(combined_score(8.45, 42.26, 76.15) - 2.72) <= 0.01

    @pytest.mark.parametrize("triple, expected", [
        ((99.50, 65.27, 12.22), 7.93),
        ((99.08, 56.82, 71.30), 40.12),
        ((99.41, 63.18, 74.39), 46.66),
        ((99.41, 67.20, 78.49), 52.39),
    ])
    def test_reference_triples_loose(self, triple, expected):
        # published-style triples carry input rounding; the exact product is
        # reproduced to within a tenth of a point
        assert abs(combined_score(*triple) - expected) <= 0.1

    def test_identity_and_zero(self):
        assert combined_score(100.0, 100.0, 100.0) == 100.0
        assert combined_score(0.0, 100.0, 100.0) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_exactly_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(0.0, 100.0, size=3)
        assert combined_score(a, b, c) == a * b * c / 10000.0

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_each_argument(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 90.0, size=3)
        score = combined_score(*base)
        for i in range(3):
            bumped = base.copy()
            bumped[i] += 10.0
            assert combined_score(*bumped) >= score

    @pytest.mark.parametrize("bad", [(-0.1, 50, 50), (50, 100.5, 50), (50, 50, 101)])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(ContractError):
            combined_score(*bad)


class TestScreening:
    """Three-dimension consistency verdicts against the robbery chain set."""

    BASE_OPINION = (
        "This court finds that the defendant Li Ming used violence against "
        "the victim and seized property of another; no aggravating "
        "circumstance was present. The defendant Li Ming is sentenced to "
        "{months} months of fixed-term imprisonment."
    )

    def test_consistent_opinion_passes_all_three(self, robbery):
        opinion = self.BASE_OPINION.format(months=48)
        verdict = screen_opinion(opinion, _case(), robbery)
        assert verdict.defendant_ok
        assert verdict.situation_ok
        assert verdict.sentencing_ok
        assert verdict.matched_chain == 0
        assert verdict.extracted_months == 48

    def test_sentence_below_range_fails_sentencing_only(self, robbery):
        # the matched chain's range is [36, 120]; 30 months falls outside
        verdict = screen_opinion(self.BASE_OPINION.format(months=30), _case(), robbery)
        assert verdict.defendant_ok
        assert verdict.situation_ok
        assert not verdict.sentencing_ok
        assert verdict.extracted_months == 30

    def test_wrong_defendant_fails_defendant_only(self, robbery):
        opinion = self.BASE_OPINION.format(months=48).replace("Li Ming", "Zhang Wei")
        verdict = screen_opinion(opinion, _case(defendant="Li Ming"), robbery)
        assert not verdict.defendant_ok
        assert verdict.situation_ok
        assert verdict.sentencing_ok

    def test_missing_sentence_fails_sentencing(self, robbery):
        opinion = self.BASE_OPINION.format(months=48).rsplit(". The defendant", 1)[0] + "."
        verdict = screen_opinion(opinion, _case(), robbery)
        assert verdict.extracted_months is None
        assert not verdict.sentencing_ok

    def test_defendant_match_normalizes_case_and_spacing(self, robbery):
        opinion = self.BASE_OPINION.format(months=48).replace("Li Ming", "LI    MING")
        verdict = screen_opinion(opinion, _case(defendant="li ming"), robbery)
        assert verdict.defendant_ok

    def test_empty_defendant_field_fails(self, robbery):
        verdict = screen_opinion(self.BASE_OPINION.format(months=48),
                                 _case(defendant=""), robbery)
        assert not verdict.defendant_ok

    def test_lexicon_phrase_realizes_predicate(self, robbery):
        # narrative surface forms from the lexicon count as realizations of
        # the formal predicate labels
        opinion = (
            "The defendant Li Ming punched the victim repeatedly and forced "
            "the victim to the ground, then made off with the victim's "
            "handbag and mobile phone. The defendant fled the scene at once "
            "without causing further harm. Sentenced to 40 months of "
            "fixed-term imprisonment."
        )
        verdict = screen_opinion(opinion, _case(), robbery)
        assert verdict.matched_chain == 0
        assert verdict.situation_ok
        assert verdict.sentencing_ok

    def test_matching_prefers_highest_overlap(self, robbery):
        # realizing the aggravated chain's situations moves the match to it,
        # and its [120, 300] range then governs the sentencing verdict
        opinion = (
            "The defendant Li Ming used violence against the victim and "
            "seized property of another. The robbery took place inside a "
            "residence; the robbery occurred on public transport; the "
            "robbery caused serious injury to the victim. Sentenced to 180 "
            "months of fixed-term imprisonment."
        )
        verdict = screen_opinion(opinion, _case(months=180), robbery)
        assert verdict.matched_chain == 1
        assert verdict.situation_ok
        assert verdict.sentencing_ok

    def test_partial_situation_realization_fails(self, robbery):
        # only one of the aggravated chain's three situations appears: the
        # aggravated chain still wins the overlap (3 vs 2) but is incomplete
        opinion = (
            "The defendant Li Ming used violence against the victim and "
            "seized property of another; the act was carried out aboard a "
            "crowded city bus. Sentenced to 180 months of fixed-term "
            "imprisonment."
        )
        verdict = screen_opinion(opinion, _case(months=180), robbery)
        assert verdict.matched_chain == 1
        assert not verdict.situation_ok

    def test_empty_chain_set_raises(self, robbery):
        """An empty set cannot be built, so none reaches screening."""
        from lexchain.chains import ChainSet
        with pytest.raises(ValidationError, match="chain set for 'robbery' has no chains"):
            screen_opinion("text", _case(), ChainSet(charge="robbery", chains=[]))


class TestScreenCorpus:
    """Corpus-level aggregation of per-case screening verdicts."""

    def test_gold_synthetic_closure(self, library):
        small = {k: library[k] for k in ("robbery", "theft")}
        cases = synthesize_corpus(seed=3, library=small, cases_per_charge=4)
        opinions = {rec.case_id: rec.opinion for rec in cases}
        report = screen_corpus(cases, opinions, small)
        assert report["defendant_accuracy"] == 100.0
        assert report["situation_accuracy"] == 100.0
        assert report["sentencing_accuracy"] == 100.0
        assert report["combined_score"] == 100.0
        assert len(report["cases"]) == len(cases)

    def test_partial_accuracy_aggregation(self, robbery):
        good = TestScreening.BASE_OPINION.format(months=48)
        bad = TestScreening.BASE_OPINION.format(months=30)
        cases = [_case(case_id="robbery-0000"), _case(case_id="robbery-0001")]
        report = screen_corpus(cases, {"robbery-0000": good, "robbery-0001": bad},
                               {"robbery": robbery})
        assert report["defendant_accuracy"] == 100.0
        assert report["sentencing_accuracy"] == 50.0
        np.testing.assert_allclose(report["combined_score"],
                                   combined_score(100.0, 100.0, 50.0))

    def test_missing_charge_raises(self, robbery):
        cases = [_case(charge="theft")]
        with pytest.raises(ConfigurationError, match=r"no chain sets for charges: \['theft'\]"):
            screen_corpus(cases, {"robbery-0000": "text"}, {"robbery": robbery})

    def test_empty_corpus_raises(self, robbery):
        with pytest.raises(ContractError):
            screen_corpus([], {}, {"robbery": robbery})


class TestEvaluateOutputs:
    """Corpus-level text metrics with per-case breakdown."""

    def test_gold_on_gold_is_perfect(self, library):
        cases = synthesize_corpus(seed=5, library={"theft": library["theft"]},
                                  cases_per_charge=3)
        opinions = {rec.case_id: rec.opinion for rec in cases}
        report = evaluate_outputs(cases, opinions)
        assert report["mae"] == 0.0
        assert report["rmse"] == 0.0
        for key in ("rouge1", "rouge2", "rougeL", "bleu1", "bleu2", "bleu4"):
            np.testing.assert_allclose(report[key], 1.0)

    def test_breakdown_rows(self, library):
        cases = synthesize_corpus(seed=5, library={"theft": library["theft"]},
                                  cases_per_charge=2)
        opinions = {rec.case_id: rec.opinion for rec in cases}
        report = evaluate_outputs(cases, opinions)
        assert len(report["cases"]) == len(cases)
        row = report["cases"][0]
        for key in ("case_id", "extracted_months", "gold_months",
                    "rouge1", "rouge2", "rougeL", "bleu1", "bleu2", "bleu4"):
            assert key in row

    def test_degenerate_output_scores_low(self, library):
        cases = synthesize_corpus(seed=5, library={"theft": library["theft"]},
                                  cases_per_charge=1)
        opinions = {cases[0].case_id: "unrelated words entirely"}
        report = evaluate_outputs(cases, opinions)
        assert report["mae"] == cases[0].sentence_months
        assert report["rouge1"] < 0.2
        assert report["bleu4"] == 0.0

    def test_empty_cases_raise(self):
        with pytest.raises(ContractError):
            evaluate_outputs([], {})


class TestPairwisePrompt:
    """Deterministic pairwise-judgment prompt for an external judge."""

    FACT = "the defendant took a wallet from the victim by force"
    A = "Opinion text one: 40 months of fixed-term imprisonment."
    B = "Opinion text two: 50 months of fixed-term imprisonment."

    def test_deterministic_bytes(self):
        first = build_pairwise_prompt(self.FACT, self.A, self.B)
        second = build_pairwise_prompt(self.FACT, self.A, self.B)
        assert first == second

    def test_contains_inputs_verbatim(self):
        prompt = build_pairwise_prompt(self.FACT, self.A, self.B)
        assert self.FACT in prompt
        assert self.A in prompt
        assert self.B in prompt

    def test_swapping_mirrors_slots(self):
        forward = build_pairwise_prompt(self.FACT, self.A, self.B)
        backward = build_pairwise_prompt(self.FACT, self.B, self.A)
        assert forward != backward
        assert f"Opinion A:\n{self.A}" in forward
        assert f"Opinion B:\n{self.B}" in forward
        assert f"Opinion A:\n{self.B}" in backward
        assert f"Opinion B:\n{self.A}" in backward

    @pytest.mark.parametrize("bad", [
        ("", "a", "b"), ("f", "", "b"), ("f", "a", ""), ("f", "   ", "b"),
    ])
    def test_empty_inputs_raise(self, bad):
        with pytest.raises(ContractError):
            build_pairwise_prompt(*bad)
