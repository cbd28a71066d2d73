"""Case records, JSONL ingestion, deterministic synthetic cases, and splits.

Synthetic cases instantiate one legal chain each: the fact narrates the
chain's predicates in informal wording (drawn from the chain lexicon), the
opinion re-states them in the formal wording screened by the evaluator, and
the months figure is sampled uniformly inside the chain's sentencing range.
Gold opinions therefore pass rule-based screening by construction.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chains import ChainSet, expr_labels
from .errors import ContractError, ParseError, ValidationError, parse_json

_MONTHS_FIGURE_RE = re.compile(r"\d+")


@dataclass
class CaseRecord:
    case_id: str
    fact: str
    charge: str
    opinion: str
    sentence_months: int
    sentencing_span: tuple[int, int] | None
    defendant: str

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "fact": self.fact,
            "charge": self.charge,
            "opinion": self.opinion,
            "sentence_months": self.sentence_months,
            "sentencing_span": list(self.sentencing_span) if self.sentencing_span else None,
            "defendant": self.defendant,
        }


@dataclass
class CorpusSplit:
    train: list[CaseRecord]
    test: list[CaseRecord]
    seed: int


_REQUIRED_FIELDS = {
    "case_id": str,
    "fact": str,
    "charge": str,
    "opinion": str,
    "sentence_months": int,
    "defendant": str,
}


def _record_from_dict(obj: dict, line_no: int) -> CaseRecord:
    if not isinstance(obj, dict):
        raise ParseError("a case record must be a JSON object", line=line_no)
    for key, kind in _REQUIRED_FIELDS.items():
        if key not in obj:
            raise ParseError(f"missing required key {key!r}", line=line_no)
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise ParseError(f"key {key!r} must be {kind.__name__}", line=line_no, field=key)
    span = obj.get("sentencing_span")
    if span is not None:
        if (not isinstance(span, (list, tuple)) or len(span) != 2
                or not all(isinstance(v, int) for v in span)):
            raise ParseError("sentencing_span must be [start, end]", line=line_no,
                             field="sentencing_span")
        start, end = span
        if not (0 <= start < end <= len(obj["opinion"])):
            raise ParseError("sentencing_span out of opinion bounds", line=line_no,
                             field="sentencing_span")
        if not _MONTHS_FIGURE_RE.search(obj["opinion"][start:end]):
            raise ValidationError(
                f"sentencing_span slice contains no months figure (line {line_no})"
            )
        span = (start, end)
    if obj["sentence_months"] < 0:
        raise ValidationError(f"sentence_months must be >= 0 (line {line_no})")
    return CaseRecord(
        case_id=obj["case_id"],
        fact=obj["fact"],
        charge=obj["charge"],
        opinion=obj["opinion"],
        sentence_months=obj["sentence_months"],
        sentencing_span=span,
        defendant=obj["defendant"],
    )


def load_jsonl(path: str | Path, lenient: bool = False) -> list[CaseRecord]:
    """Read case records, one JSON object per line; each line is decoded as
    UTF-8 on its own.

    Fail-fast by default; ``lenient`` skips bad lines with a warning instead.
    A ``case_id`` seen on an earlier line makes the later line bad.
    """
    records: list[CaseRecord] = []
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text: {exc}", line=line_no) from exc
            if not line.strip():
                continue
            obj = parse_json(line, lambda reason, _: ParseError(f"invalid JSON: {reason}",
                                                                line=line_no))
            record = _record_from_dict(obj, line_no)
            if record.case_id in first_line:
                raise ParseError(f"duplicate case_id {record.case_id!r}, first at line "
                                 f"{first_line[record.case_id]}", line=line_no)
            first_line[record.case_id] = line_no
            records.append(record)
        except (ParseError, ValidationError) as exc:
            if not lenient:
                raise
            warnings.warn(f"skipping bad record at {path} line {line_no}: {exc}")
    return records


def save_jsonl(records: list[CaseRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), ensure_ascii=False, sort_keys=True))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

NAME_POOL = (
    "Li Wei", "Wang Fang", "Zhang Min", "Liu Yang", "Chen Jing", "Yang Lei",
    "Zhao Xiu", "Huang Qiang", "Zhou Na", "Wu Gang", "Xu Lin", "Sun Tao",
    "Ma Ying", "Zhu Hua", "Guo Ping", "Lin Feng", "He Yan", "Gao Jun",
    "Luo Mei", "Zheng Bo", "Liang Hong", "Song Kai", "Han Xue", "Deng Rui",
)

_CITY_POOL = (
    "Hangzhou", "Nanjing", "Chengdu", "Wuhan", "Qingdao", "Kunming",
    "Shenyang", "Lanzhou",
)

_MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)

_DISTRACTORS = (
    "The victim reported the incident to the police the following morning.",
    "Officers reviewed surveillance footage from the surrounding area.",
    "The defendant had no prior criminal record.",
    "Several witnesses later provided written statements.",
    "The case file was transferred to the procuratorate for review.",
    "A court-appointed lawyer represented the defendant at trial.",
)

# Facts are rendered in one of two registers.  The specific register spells
# out each predicate with its lexicon narrative; the generic register narrates
# the conduct the way a terse police summary would — without the words that
# legally characterize it — so sibling charges produce overlapping fact text
# and are not trivially separable from facts alone.  Severity stays visible
# (it grades the narration), but the offense category does not.
_CHARGE_GROUP = {
    "robbery": "violence",
    "intentional_injury": "violence",
    "kidnapping": "violence",
    "theft": "property",
    "fraud": "property",
    "embezzlement": "property",
    "smuggling": "contraband",
    "drug_trafficking": "contraband",
    "illegal_possession_of_firearms": "contraband",
}

# group -> per-severity-tier pools of (intro verb phrase, follow-up sentence).
# Tier k narrates a case instantiating the k-th chain of its charge.
_GENERIC_BODIES: dict[str, tuple[tuple[tuple[str, str], ...], ...]] = {
    "violence": (
        (
            ("confronted the victim in a brief altercation on a side street",
             "The victim was treated at a clinic the same evening and released."),
            ("was involved in a scuffle with the victim near a residential block",
             "Neighbors separated the two and the victim suffered minor bruising."),
        ),
        (
            ("set upon the victim in a prolonged assault in a parking structure",
             "The victim remained hospitalized for several weeks after the incident."),
            ("cornered the victim late at night and left the victim badly hurt",
             "Medical reports describe lasting injuries and severe distress."),
        ),
    ),
    "property": (
        (
            ("came into possession of a small sum that belonged to the victim"
             " under disputed circumstances",
             "The sum was assessed at several thousand yuan and was not recovered."),
            ("left the premises with items of modest value that did not belong"
             " to the defendant",
             "An inventory put the loss at a few thousand yuan."),
        ),
        (
            ("dealt with funds belonging to others amounting to tens of"
             " thousands of yuan",
             "Bank records traced the movement of roughly eighty thousand yuan."),
            ("was found to have diverted goods and money of substantial value",
             "Appraisers placed the total at close to ninety thousand yuan."),
        ),
        (
            ("was connected to the disappearance of property of extraordinary"
             " value",
             "The assessed loss exceeded four hundred thousand yuan."),
            ("handled a volume of money and goods far beyond any of the"
             " defendant's means",
             "Combined appraisals ran to roughly half a million yuan."),
        ),
    ),
    "contraband": (
        (
            ("was stopped at a checkpoint where officers found a small quantity"
             " of prohibited items in the vehicle",
             "The items were sealed and logged into evidence the same day."),
            ("kept a handful of banned articles hidden in a rented room",
             "A routine inspection led officers to the hiding place."),
        ),
        (
            ("was linked to a large consignment of prohibited goods found at a"
             " freight depot",
             "The scale of the consignment pointed to an organized operation."),
            ("arranged for crates of restricted goods to be moved through the"
             " city at night",
             "Officers seized the crates and traced the logistics chain for weeks."),
        ),
    ),
}


def generator_surface_texts() -> list[str]:
    """Every fixed string the synthetic generator can put into a fact.

    Training vocabularies include these so a held-out fact never tokenizes to
    unknowns merely because a pool entry missed the training split.
    """
    texts: list[str] = list(_DISTRACTORS) + list(_CITY_POOL) + list(_MONTH_NAMES)
    for tiers in _GENERIC_BODIES.values():
        for pool in tiers:
            for intro, followup in pool:
                texts.append(intro)
                texts.append(followup)
    return texts


def charge_display(charge: str) -> str:
    return charge.replace("_", " ")


def _narrative(cs: ChainSet, label: str) -> str:
    phrases = cs.lexicon.get(label)
    return phrases[-1] if phrases and len(phrases) > 1 else label


def _join_clauses(clauses: list[str]) -> str:
    if len(clauses) == 1:
        return clauses[0]
    return "; ".join(clauses[:-1]) + "; and " + clauses[-1]


def render_opinion(defendant: str, charge: str, chain, months: int) -> tuple[str, tuple[int, int]]:
    """Gold opinion text plus the character span of its sentencing clause."""
    premise_labels = expr_labels(chain.premise)
    situation_labels = expr_labels(chain.situation)
    clause = f"{months} months of fixed-term imprisonment"
    opinion = (
        f"This court finds that the defendant {defendant} committed the crime of "
        f"{charge_display(charge)}. The evidence establishes that the defendant "
        f"{' and '.join(premise_labels)}. The court further finds that "
        f"{_join_clauses(situation_labels)}. In accordance with {chain.source_provision} "
        f"of the Criminal Law, the judgment is as follows: the defendant {defendant} "
        f"is sentenced to {clause}."
    )
    start = opinion.rindex(clause)
    return opinion, (start, start + len(clause))


def _render_fact(rng: np.random.Generator, cs: ChainSet, chain, defendant: str,
                 distractor_max: int, generic_rate: float) -> str:
    month = _MONTH_NAMES[int(rng.integers(len(_MONTH_NAMES)))]
    day = int(rng.integers(1, 29))
    city = _CITY_POOL[int(rng.integers(len(_CITY_POOL)))]
    intro = f"On {month} {day}, in {city}, the defendant {defendant}"
    tiers = _GENERIC_BODIES.get(_CHARGE_GROUP.get(cs.charge, ""), ())
    tier = cs.chains.index(chain)
    if tiers and tier < len(tiers) and generic_rate > 0 and rng.random() < generic_rate:
        pool = tiers[tier]
        vp, followup = pool[int(rng.integers(len(pool)))]
        parts = [f"{intro} {vp}.", followup]
    else:
        premise_labels = expr_labels(chain.premise)
        situation_labels = expr_labels(chain.situation)
        parts = [
            f"{intro} {' and '.join(_narrative(cs, lab) for lab in premise_labels)}."
        ]
        parts.extend(
            f"The investigation established that {_narrative(cs, lab)}."
            for lab in situation_labels
        )
    if distractor_max > 0:
        k = int(rng.integers(0, distractor_max + 1))
        if k:
            picks = rng.choice(len(_DISTRACTORS), size=k, replace=False)
            parts.extend(_DISTRACTORS[i] for i in sorted(int(i) for i in picks))
    return " ".join(parts)


def synthesize_corpus(seed: int, library: dict[str, ChainSet],
                      charges: list[str] | None = None, cases_per_charge: int = 20,
                      distractor_max: int = 2,
                      generic_rate: float = 0.5) -> list[CaseRecord]:
    """Deterministic synthetic corpus; each case instantiates one chain.

    Per-case randomness comes from an independent substream keyed by
    ``(seed, charge_index, case_index)``, so generation order never matters.
    ``generic_rate`` is the probability that a case of a grouped charge
    narrates its fact in the charge-silent generic register.
    """
    if not library:
        raise ContractError("chain library is empty")
    charges = sorted(library) if charges is None else list(charges)
    if not charges:
        raise ContractError("no charges requested")
    missing = [c for c in charges if c not in library]
    if missing:
        raise ContractError(f"charges missing from chain library: {missing}")
    records: list[CaseRecord] = []
    for ci, charge in enumerate(charges):
        cs = library[charge]
        if not cs.chains:
            raise ValidationError(f"chain set for {charge!r} is empty")
        for j in range(cases_per_charge):
            rng = np.random.default_rng([seed, ci, j])
            chain = cs.chains[int(rng.integers(len(cs.chains)))]
            defendant = NAME_POOL[int(rng.integers(len(NAME_POOL)))]
            months = int(rng.integers(chain.conclusion.min_months,
                                      chain.conclusion.max_months + 1))
            fact = _render_fact(rng, cs, chain, defendant, distractor_max,
                                generic_rate)
            opinion, span = render_opinion(defendant, charge, chain, months)
            records.append(CaseRecord(
                case_id=f"{charge}-{j:04d}",
                fact=fact,
                charge=charge,
                opinion=opinion,
                sentence_months=months,
                sentencing_span=span,
                defendant=defendant,
            ))
    return records


def split(corpus: list[CaseRecord], ratio: float, seed: int) -> CorpusSplit:
    """Stratified-by-charge split; ``ratio`` is the training fraction."""
    if not 0.0 < ratio < 1.0:
        raise ContractError(f"split ratio must be in (0, 1), got {ratio}")
    by_charge: dict[str, list[int]] = {}
    for i, rec in enumerate(corpus):
        by_charge.setdefault(rec.charge, []).append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for ci, charge in enumerate(sorted(by_charge)):
        indices = by_charge[charge]
        if len(indices) < 2:
            warnings.warn(f"charge {charge!r} has {len(indices)} case(s); stratification is degenerate")
        rng = np.random.default_rng([seed, ci])
        perm = rng.permutation(len(indices))
        n_train = int(np.floor(ratio * len(indices) + 0.5))
        chosen = {indices[k] for k in perm[:n_train]}
        train_idx.extend(i for i in indices if i in chosen)
        test_idx.extend(i for i in indices if i not in chosen)
    return CorpusSplit(
        train=[corpus[i] for i in sorted(train_idx)],
        test=[corpus[i] for i in sorted(test_idx)],
        seed=seed,
    )
