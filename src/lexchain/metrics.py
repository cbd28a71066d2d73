"""Evaluation suite: sentencing regression errors, ROUGE, BLEU, rule-based
screening with a multiplicative combined score, and the pairwise-judgment
prompt for an external completion model.

All metrics are pure functions over the shared tokenizer.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import asdict, dataclass

from .chains import ChainSet, charge_chains, normalize_label
from .errors import ContractError
from .tokenizer import tokenize

# ---------------------------------------------------------------------------
# Sentencing clause grammar (shared with the decoder's span marking)
# ---------------------------------------------------------------------------

_SENTENCE_PATTERNS = (
    re.compile(r"(\d+)\s*months of fixed-term imprisonment"),
    re.compile(r"判处有期徒刑\s*(\d+)\s*个月"),
)


def find_sentencing_char_span(text: str) -> tuple[int, int, int] | None:
    """Last sentencing clause as ``(start, end, months)``, or None."""
    best: tuple[int, int, int] | None = None
    for pattern in _SENTENCE_PATTERNS:
        for m in pattern.finditer(text):
            if best is None or m.start() >= best[0]:
                best = (m.start(), m.end(), int(m.group(1)))
    return best


def extract_sentence_months(opinion_text: str) -> int | None:
    """Months figure of the last sentencing clause in the text, if any."""
    found = find_sentencing_char_span(opinion_text)
    return None if found is None else found[2]


# ---------------------------------------------------------------------------
# Regression metrics
# ---------------------------------------------------------------------------


def mae_rmse(preds: list[int | None], golds: list[int]) -> tuple[float, float]:
    """Mean absolute and root mean squared error over predicted months; an
    absent prediction is scored as 0 (full penalty)."""
    if len(preds) != len(golds):
        raise ContractError(f"length mismatch: {len(preds)} predictions vs {len(golds)} golds")
    if not golds:
        raise ContractError("mae_rmse needs at least one case")
    errors = [(0 if p is None else p) - g for p, g in zip(preds, golds)]
    mae = sum(abs(e) for e in errors) / len(errors)
    rmse = math.sqrt(sum(e ** 2 for e in errors) / len(errors))
    return mae, rmse


# ---------------------------------------------------------------------------
# ROUGE / BLEU
# ---------------------------------------------------------------------------


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _ngram_overlap(cand: list[str], ref: list[str], n: int) -> tuple[int, int, int]:
    """Clipped overlap of the order-``n`` n-grams of ``cand`` and ``ref``, and
    each side's n-gram count."""
    cand_counts = _ngrams(cand, n)
    ref_counts = _ngrams(ref, n)
    overlap = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
    return overlap, sum(cand_counts.values()), sum(ref_counts.values())


def _lcs_len(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def _prf(overlap: int, cand_total: int, ref_total: int) -> tuple[float, float, float]:
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def rouge(candidate: str, reference: str, variant: str) -> tuple[float, float, float]:
    """ROUGE precision/recall/F1; ``variant`` is "1", "2" or "L"."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not ref:
        warnings.warn("ROUGE reference is empty; scoring all-zeros")
        return 0.0, 0.0, 0.0
    if variant == "L":
        return _prf(_lcs_len(cand, ref), len(cand), len(ref))
    return _prf(*_ngram_overlap(cand, ref, int(variant)))


BLEU_ORDERS = 4


@dataclass
class BleuResult:
    precisions: list[float]          # clipped n-gram precisions, orders 1..4
    brevity_penalty: float
    scores: list[float]              # cumulative BLEU-k for k = 1..4

    def bleu(self, k: int) -> float:
        return self.scores[k - 1]


def bleu(candidate: str, reference: str) -> BleuResult:
    """Clipped n-gram precisions of orders 1..4 with brevity penalty; BLEU-k
    is the penalty times the geometric mean of orders 1..k.  There is no
    smoothing: a zero precision zeroes every higher cumulative score.
    """
    cand = tokenize(candidate)
    ref = tokenize(reference)
    c, r = len(cand), len(ref)
    precisions = []
    for n in range(1, BLEU_ORDERS + 1):
        overlap, total, _ = _ngram_overlap(cand, ref, n)
        precisions.append(overlap / total if total else 0.0)
    bp = 1.0 if c >= r and c > 0 else (math.exp(1.0 - r / c) if c else 0.0)
    scores = []
    for k in range(1, BLEU_ORDERS + 1):
        head = precisions[:k]
        if min(head) <= 0.0:
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in head) / k))
    return BleuResult(precisions=precisions, brevity_penalty=bp, scores=scores)


# ---------------------------------------------------------------------------
# Rule-based screening
# ---------------------------------------------------------------------------


@dataclass
class CaseScreening:
    case_id: str
    defendant_ok: bool
    situation_ok: bool
    sentencing_ok: bool
    matched_chain: int
    extracted_months: int | None

    def to_dict(self) -> dict:
        return asdict(self)


def screen_opinion(opinion: str, case, chains: ChainSet) -> CaseScreening:
    """Three-dimension consistency check of one opinion against its case.

    The chain is selected by maximal predicate overlap with the opinion (ties
    resolved toward the lowest index); the situation verdict requires every
    predicate of the matched chain to be realized by a lexicon phrase, and the
    sentencing verdict requires the extracted months to fall in the matched
    chain's range.
    """
    body = normalize_label(opinion)
    defendant_ok = normalize_label(case.defendant) in body if case.defendant else False

    def realized(label: str) -> bool:
        return any(normalize_label(p) in body for p in chains.phrases_for(label))

    overlaps = []
    for chain in chains.chains:
        labels = chain.predicate_labels()
        overlaps.append(sum(1 for lab in labels if realized(lab)))
    matched = max(range(len(overlaps)), key=lambda i: (overlaps[i], -i))
    matched_labels = chains.chains[matched].predicate_labels()
    situation_ok = all(realized(lab) for lab in matched_labels)
    months = extract_sentence_months(opinion)
    sentencing_ok = months is not None and chains.chains[matched].conclusion.contains(months)
    return CaseScreening(
        case_id=case.case_id,
        defendant_ok=defendant_ok,
        situation_ok=situation_ok,
        sentencing_ok=sentencing_ok,
        matched_chain=matched,
        extracted_months=months,
    )


def combined_score(defendant_acc: float, situation_acc: float, sentencing_acc: float) -> float:
    """Product of the three accuracies as fractions, reported in percent."""
    for name, value in (("defendant", defendant_acc), ("situation", situation_acc),
                        ("sentencing", sentencing_acc)):
        if not 0.0 <= value <= 100.0:
            raise ContractError(f"{name} accuracy must be in [0, 100], got {value}")
    return defendant_acc * situation_acc * sentencing_acc / 10000.0


def screen_corpus(cases, opinions: dict[str, str], library: dict[str, ChainSet]) -> dict:
    """Screen one opinion per case and aggregate corpus-level accuracies."""
    chain_map = charge_chains(library, sorted({case.charge for case in cases}), use_chains=True)
    per_case = [screen_opinion(opinions[case.case_id], case, chain_map[case.charge])
                for case in cases]
    n = len(per_case)
    if n == 0:
        raise ContractError("no cases to screen")
    defendant_acc = 100.0 * sum(c.defendant_ok for c in per_case) / n
    situation_acc = 100.0 * sum(c.situation_ok for c in per_case) / n
    sentencing_acc = 100.0 * sum(c.sentencing_ok for c in per_case) / n
    return {
        "cases": [c.to_dict() for c in per_case],
        "defendant_accuracy": defendant_acc,
        "situation_accuracy": situation_acc,
        "sentencing_accuracy": sentencing_acc,
        "combined_score": combined_score(defendant_acc, situation_acc, sentencing_acc),
    }


# ---------------------------------------------------------------------------
# Corpus-level text metrics
# ---------------------------------------------------------------------------


def evaluate_outputs(cases, opinions: dict[str, str]) -> dict:
    """MAE/RMSE over extracted months plus averaged ROUGE and BLEU F-scores."""
    if not cases:
        raise ContractError("no cases to evaluate")
    preds = []
    golds = []
    breakdown = []
    rouge_sums = {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}
    bleu_sums = {"bleu1": 0.0, "bleu2": 0.0, "bleu4": 0.0}
    for case in cases:
        opinion = opinions[case.case_id]
        months = extract_sentence_months(opinion)
        preds.append(months)
        golds.append(case.sentence_months)
        row = {"case_id": case.case_id, "extracted_months": months,
               "gold_months": case.sentence_months}
        for variant in ("1", "2", "L"):
            _, _, f1 = rouge(opinion, case.opinion, variant)
            row[f"rouge{variant}"] = f1
            rouge_sums[f"rouge{variant}"] += f1
        b = bleu(opinion, case.opinion)
        for k in (1, 2, 4):
            row[f"bleu{k}"] = b.bleu(k)
            bleu_sums[f"bleu{k}"] += b.bleu(k)
        breakdown.append(row)
    mae, rmse = mae_rmse(preds, golds)
    n = len(cases)
    report = {"mae": mae, "rmse": rmse, "cases": breakdown}
    report.update({k: v / n for k, v in rouge_sums.items()})
    report.update({k: v / n for k, v in bleu_sums.items()})
    return report


# ---------------------------------------------------------------------------
# Pairwise judgment prompt
# ---------------------------------------------------------------------------

_PAIRWISE_TEMPLATE = """\
You are comparing two candidate judicial opinions written for the same
criminal case.  Judge them on legal reasoning quality, factual consistency
with the case, and the appropriateness of the sentencing clause.

Case facts:
{fact}

Opinion A:
{a}

Opinion B:
{b}

Reply with exactly one letter: A if Opinion A is better, B if Opinion B is
better.
"""


def build_pairwise_prompt(fact: str, opinion_a: str, opinion_b: str) -> str:
    for name, value in (("fact", fact), ("opinion_a", opinion_a), ("opinion_b", opinion_b)):
        if not value or not value.strip():
            raise ContractError(f"{name} must be non-empty")
    return _PAIRWISE_TEMPLATE.format(fact=fact.strip(), a=opinion_a.strip(), b=opinion_b.strip())
