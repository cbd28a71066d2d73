"""Synthetic corpus generation, JSONL round-trips, and stratified splitting."""

import dataclasses
import json

import numpy as np
import pytest

from lexchain.chains import load_chain_library
from lexchain.cli import default_chains_dir
from lexchain.corpus import (
    _DISTRACTORS,
    CaseRecord,
    load_jsonl,
    render_opinion,
    save_jsonl,
    split,
    synthesize_corpus,
)
from lexchain.errors import ConfigurationError, ContractError, ParseError, ValidationError
from lexchain.metrics import extract_sentence_months, screen_corpus


@pytest.fixture(scope="module")
def library():
    return load_chain_library(default_chains_dir())


@pytest.fixture(scope="module")
def corpus(library):
    return synthesize_corpus(seed=0, library=library, cases_per_charge=6)


class TestSynthesis:
    def test_case_counts_and_ids(self, corpus, library):
        assert len(corpus) == 6 * len(library)
        assert len({rec.case_id for rec in corpus}) == len(corpus)

    def test_generation_is_deterministic(self, library):
        a = synthesize_corpus(seed=4, library=library, cases_per_charge=3)
        b = synthesize_corpus(seed=4, library=library, cases_per_charge=3)
        assert [rec.to_dict() for rec in a] == [rec.to_dict() for rec in b]

    def test_different_seeds_differ(self, library):
        a = synthesize_corpus(seed=0, library=library, cases_per_charge=3)
        b = synthesize_corpus(seed=1, library=library, cases_per_charge=3)
        assert [rec.to_dict() for rec in a] != [rec.to_dict() for rec in b]

    def test_months_fall_in_some_chain_range(self, corpus, library):
        for rec in corpus:
            ranges = [c.conclusion for c in library[rec.charge].chains]
            assert any(r.contains(rec.sentence_months) for r in ranges), rec.case_id

    def test_records_cannot_be_changed(self, corpus):
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus[0].opinion = "the court orders 1 months of fixed-term imprisonment."
        parts = split(corpus, 0.8, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            parts.test = []

    def test_opinion_span_slices_to_sentencing_clause(self, corpus):
        for rec in corpus:
            start, end = rec.sentencing_span
            clause = rec.opinion[start:end]
            assert clause == f"{rec.sentence_months} months of fixed-term imprisonment"

    def test_extractor_agrees_with_gold_months(self, corpus):
        for rec in corpus:
            assert extract_sentence_months(rec.opinion) == rec.sentence_months

    def test_gold_opinions_pass_screening(self, corpus, library):
        opinions = {rec.case_id: rec.opinion for rec in corpus}
        report = screen_corpus(corpus, opinions, library)
        assert report["defendant_accuracy"] == 100.0
        assert report["situation_accuracy"] == 100.0
        assert report["sentencing_accuracy"] == 100.0
        assert report["combined_score"] == 100.0

    def test_defendant_appears_in_fact_and_opinion(self, corpus):
        for rec in corpus:
            assert rec.defendant in rec.fact
            assert rec.defendant in rec.opinion

    def test_charge_subset_selection(self, library):
        records = synthesize_corpus(seed=0, library=library,
                                    charges=["robbery"], cases_per_charge=4)
        assert {rec.charge for rec in records} == {"robbery"}

    def test_unknown_charge_rejected(self, library):
        with pytest.raises(ConfigurationError, match=r"no chain sets for charges: \['piracy'\]"):
            synthesize_corpus(seed=0, library=library, charges=["piracy"])

    def test_empty_library_rejected(self):
        with pytest.raises(ContractError):
            synthesize_corpus(seed=0, library={})

    def test_every_distractor_can_be_drawn(self, library):
        """``distractor_max`` 6 is the whole pool; some fact then holds all six."""
        cases = synthesize_corpus(seed=0, library=library, cases_per_charge=4, distractor_max=6)
        assert any(all(d in case.fact for d in _DISTRACTORS) for case in cases)

    def test_distractors_only_touch_facts(self, library):
        noisy = synthesize_corpus(seed=2, library=library, cases_per_charge=4,
                                  distractor_max=3)
        clean = synthesize_corpus(seed=2, library=library, cases_per_charge=4,
                                  distractor_max=0)
        assert [r.opinion for r in noisy] == [r.opinion for r in clean]
        assert any(n.fact != c.fact for n, c in zip(noisy, clean))


class TestRenderOpinion:
    def test_template_and_span(self, library):
        chain = library["robbery"].chains[0]
        opinion, span = render_opinion("Li Wei", "robbery", chain, 48)
        assert opinion.startswith(
            "This court finds that the defendant Li Wei committed the crime of robbery."
        )
        assert "In accordance with Article 263 of the Criminal Law" in opinion
        assert opinion[span[0]:span[1]] == "48 months of fixed-term imprisonment"
        assert opinion.endswith("48 months of fixed-term imprisonment.")

    def test_underscored_charge_is_displayed_with_spaces(self, library):
        chain = library["intentional_injury"].chains[0]
        opinion, _ = render_opinion("Wu Gang", "intentional_injury", chain, 12)
        assert "the crime of intentional injury." in opinion

    def test_all_predicates_of_chain_appear(self, library):
        chain = library["theft"].chains[2]
        opinion, _ = render_opinion("Xu Lin", "theft", chain, 150)
        for label in chain.predicate_labels():
            assert label in opinion


class TestJsonl:
    def test_round_trip(self, corpus, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_jsonl(corpus, path)
        again = load_jsonl(path)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in corpus]

    def test_save_is_byte_deterministic(self, corpus, tmp_path):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_jsonl(corpus, p1)
        save_jsonl(corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_field_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "x"}\n', encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_jsonl(path)
        assert exc.value.line == 1

    def test_invalid_json_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"case_id": "a", ...\n', encoding="utf-8")
        with pytest.raises(ParseError):
            load_jsonl(path)

    def test_span_bounds_checked(self, tmp_path, corpus):
        row = corpus[0].to_dict()
        row["sentencing_span"] = [0, 10_000]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_jsonl(path)

    def test_span_must_contain_a_figure(self, tmp_path, corpus):
        row = corpus[0].to_dict()
        row["sentencing_span"] = [0, 4]  # "This"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_jsonl(path)

    @pytest.mark.parametrize("line", ["null", "[1, 2]", '"text"'])
    def test_non_object_line_is_a_parse_error(self, tmp_path, line):
        """Every JSON value that is not an object is a bad record (``null`` used
        to escape as a TypeError)."""
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="must be a JSON object"):
            load_jsonl(path)

    def test_deeply_nested_json_is_a_bad_line(self, tmp_path, corpus):
        """JSON nested past the decoder's recursion limit is a ParseError
        naming the line, not a RecursionError."""
        first = json.dumps(corpus[0].to_dict())
        path = tmp_path / "deep.jsonl"
        path.write_text(f'{first}\n{"[" * 100000}{"]" * 100000}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            load_jsonl(path)
        assert exc.value.line == 2

    def test_line_that_is_not_utf8_is_a_bad_line(self, tmp_path, corpus):
        """Each line is decoded on its own: bytes that are not UTF-8 are a
        ParseError naming the line, not a UnicodeDecodeError."""
        first, second = (json.dumps(rec.to_dict()).encode("utf-8") for rec in corpus[:2])
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(first + b'\n{"case_id": "caf\xe9"}\n' + second + b"\n")
        with pytest.raises(ParseError, match="not UTF-8 text") as exc:
            load_jsonl(path)
        assert exc.value.line == 2

    def test_blank_lines_are_skipped(self, tmp_path, corpus):
        first, second = (json.dumps(rec.to_dict()) for rec in corpus[:2])
        path = tmp_path / "gaps.jsonl"
        path.write_text(f'{first}\n\n{second}\n', encoding="utf-8")
        assert len(load_jsonl(path)) == 2

    def test_duplicate_case_id_names_both_lines(self, tmp_path, corpus):
        first, second = (json.dumps(rec.to_dict()) for rec in corpus[:2])
        path = tmp_path / "dup.jsonl"
        path.write_text(f'{first}\n{second}\n\n{first}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match=r"first at line 1 \(line 4\)"):
            load_jsonl(path)

    def test_bool_is_not_an_int(self, tmp_path, corpus):
        row = corpus[0].to_dict()
        row["sentence_months"] = True
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_jsonl(path)


class TestSplit:
    def _mini(self, per_charge=10, charges=("a", "b")):
        records = []
        for charge in charges:
            for j in range(per_charge):
                records.append(CaseRecord(
                    case_id=f"{charge}-{j}", fact=f"fact {j}", charge=charge,
                    opinion=f"op {j} months of fixed-term imprisonment",
                    sentence_months=j + 1, sentencing_span=None, defendant="Li Wei",
                ))
        return records

    def test_80_20_counts_per_charge(self):
        parts = split(self._mini(10), 0.8, seed=0)
        assert len(parts.train) == 16 and len(parts.test) == 4
        for charge in ("a", "b"):
            assert sum(r.charge == charge for r in parts.train) == 8
            assert sum(r.charge == charge for r in parts.test) == 2

    def test_rounding_to_nearest(self):
        parts = split(self._mini(5, charges=("a",)), 0.5, seed=0)
        # 2.5 rounds up to 3 train cases
        assert len(parts.train) == 3 and len(parts.test) == 2

    def test_disjoint_union(self):
        records = self._mini(7)
        parts = split(records, 0.6, seed=3)
        train_ids = {r.case_id for r in parts.train}
        test_ids = {r.case_id for r in parts.test}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {r.case_id for r in records}

    def test_deterministic_per_seed(self):
        records = self._mini(9)
        a = split(records, 0.7, seed=5)
        b = split(records, 0.7, seed=5)
        assert [r.case_id for r in a.train] == [r.case_id for r in b.train]
        c = split(records, 0.7, seed=6)
        assert [r.case_id for r in a.train] != [r.case_id for r in c.train]

    def test_order_in_output_follows_corpus_order(self):
        records = self._mini(8)
        parts = split(records, 0.5, seed=1)
        positions = {r.case_id: i for i, r in enumerate(records)}
        train_pos = [positions[r.case_id] for r in parts.train]
        assert train_pos == sorted(train_pos)

    def test_single_case_charge_warns(self):
        records = self._mini(1, charges=("solo",)) + self._mini(4, charges=("big",))
        with pytest.warns(UserWarning):
            split(records, 0.5, seed=0)

    def test_invalid_ratio(self):
        with pytest.raises(ContractError):
            split(self._mini(4), 0.0, seed=0)
        with pytest.raises(ContractError):
            split(self._mini(4), 1.0, seed=0)
