"""Legal chains: premise-situation-conclusion triplets with AND/OR conditions.

A chain couples a behavioral *premise* and a consequential *situation* (both
arbitrary AND/OR trees over named predicates) to a *conclusion* carrying a
statutory sentencing range in months.  The module owns the chain-file JSON
schema, structural validation, the decomposition prompt sent to an external
completion model, and the parser for such a model's delimited responses.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping

from .errors import (ConfigurationError, ContractError, ExtractionError, ParseError,
                     ValidationError, parse_json, read_text, require)
from .tokenizer import tokenize

# ---------------------------------------------------------------------------
# Condition expressions
# ---------------------------------------------------------------------------


def normalize_label(label: str) -> str:
    return " ".join(label.split()).casefold()


@dataclass(frozen=True)
class Predicate:
    label: str

    def __post_init__(self):
        if not self.label or not self.label.strip():
            raise ValidationError("predicate label must be non-empty")


@dataclass(frozen=True)
class Node:
    op: str  # "and" | "or"
    children: tuple["ConditionExpr", ...]

    def __post_init__(self):
        if self.op not in ("and", "or"):
            raise ValidationError(f"condition operator must be 'and' or 'or', got {self.op!r}")
        if len(self.children) < 2:
            raise ValidationError(f"{self.op.upper()} node needs at least 2 children, got {len(self.children)}")


ConditionExpr = Predicate | Node


def eval_condition(expr: ConditionExpr, facts: set[str]) -> bool:
    """Standard boolean semantics over a set of established predicate labels."""
    normalized = {normalize_label(f) for f in facts}

    def rec(e: ConditionExpr) -> bool:
        if isinstance(e, Predicate):
            return normalize_label(e.label) in normalized
        if e.op == "and":
            return all(rec(c) for c in e.children)
        return any(rec(c) for c in e.children)

    return rec(expr)


def expr_labels(expr: ConditionExpr) -> list[str]:
    """Normalized predicate labels in left-to-right tree order, deduplicated."""
    out: list[str] = []
    seen: set[str] = set()

    def rec(e: ConditionExpr):
        if isinstance(e, Predicate):
            lab = normalize_label(e.label)
            if lab not in seen:
                seen.add(lab)
                out.append(lab)
        else:
            for c in e.children:
                rec(c)

    rec(expr)
    return out


def expr_to_json(expr: ConditionExpr):
    if isinstance(expr, Predicate):
        return {"pred": expr.label}
    return {expr.op: [expr_to_json(c) for c in expr.children]}


def expr_from_json(obj, where: str = "expr") -> ConditionExpr:
    """Condition tree from its JSON form; nesting past ``MAX_NESTING`` is a ParseError."""
    return _expr_from_json(obj, where, 0)


def _expr_from_json(obj, where: str, depth: int) -> ConditionExpr:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParseError("condition must be an object with exactly one key", field=where)
    key, value = next(iter(obj.items()))
    if key == "pred":
        if not isinstance(value, str) or not value.strip():
            raise ParseError("predicate must be a non-empty string", field=where)
        return Predicate(value)
    if key in ("and", "or"):
        if not isinstance(value, list) or len(value) < 2:
            raise ParseError(f"{key.upper()} needs a list of at least 2 children", field=where)
        if depth == MAX_NESTING:
            raise ParseError(f"condition nests AND/OR more than {MAX_NESTING} deep", field=where)
        return Node(key, tuple(_expr_from_json(c, f"{where}.{key}[{i}]", depth + 1)
                               for i, c in enumerate(value)))
    raise ParseError(f"unknown condition key {key!r}", field=where)


def expr_to_text(expr: ConditionExpr) -> str:
    """Infix rendering with uppercase operators; inverse of :func:`parse_infix`."""
    if isinstance(expr, Predicate):
        return expr.label
    joiner = f" {expr.op.upper()} "
    parts = []
    for c in expr.children:
        text = expr_to_text(c)
        if isinstance(c, Node):
            text = f"({text})"
        parts.append(text)
    return joiner.join(parts)


_INFIX_SPLIT = re.compile(r"(\(|\)|\bAND\b|\bOR\b)")
# Deepest parenthesis nesting parse_infix accepts, and deepest AND/OR nesting
# expr_from_json accepts; each level costs two or three stack frames, so deeper
# input would otherwise exhaust the recursion limit.
MAX_NESTING = 100


def parse_infix(text: str) -> ConditionExpr:
    """Parse ``a AND (b OR c)`` style condition text.

    Uppercase AND/OR are operators (AND binds tighter); anything else is
    predicate text.  Lowercase "and"/"or" stay inside predicate labels.
    Parentheses nested more than ``MAX_NESTING`` deep raise ParseError.
    """
    tokens = [t.strip() for t in _INFIX_SPLIT.split(text)]
    tokens = [t for t in tokens if t]
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_or() -> ConditionExpr:
        items = [parse_and()]
        while peek() == "OR":
            take()
            items.append(parse_and())
        return items[0] if len(items) == 1 else Node("or", tuple(items))

    def parse_and() -> ConditionExpr:
        items = [parse_atom()]
        while peek() == "AND":
            take()
            items.append(parse_atom())
        return items[0] if len(items) == 1 else Node("and", tuple(items))

    def parse_atom() -> ConditionExpr:
        tok = peek()
        if tok is None:
            raise ParseError(f"condition text ended unexpectedly: {text!r}")
        if tok == "(":
            nonlocal depth
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"condition nests parentheses more than {MAX_NESTING} deep")
            take()
            inner = parse_or()
            if peek() != ")":
                raise ParseError(f"unbalanced parentheses in condition: {text!r}")
            take()
            depth -= 1
            return inner
        if tok in (")", "AND", "OR"):
            raise ParseError(f"misplaced {tok!r} in condition: {text!r}")
        return Predicate(take())

    expr = parse_or()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after condition: {text!r}")
    return expr


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SentencingRange:
    min_months: int
    max_months: int
    label: str = ""

    def __post_init__(self):
        if self.min_months < 0 or self.max_months < self.min_months:
            raise ValidationError(f"sentencing range [{self.min_months}, {self.max_months}] "
                                  f"is inverted or negative")

    def contains(self, months: int) -> bool:
        return self.min_months <= months <= self.max_months

    def text(self) -> str:
        """Surface string used when the conclusion is embedded."""
        return f"{self.min_months} to {self.max_months} months of fixed-term imprisonment"


@dataclass(frozen=True)
class LegalChain:
    premise: ConditionExpr
    situation: ConditionExpr
    conclusion: SentencingRange
    source_provision: str = ""

    @cached_property
    def texts(self) -> tuple[str, str, str]:
        """Premise, situation and conclusion texts in the encoder's slot order,
        rendered once per chain."""
        return expr_to_text(self.premise), expr_to_text(self.situation), self.conclusion.text()

    def predicate_labels(self) -> list[str]:
        """Premise labels followed by situation labels (normalized, deduped)."""
        return expr_labels(Node("and", (self.premise, self.situation)))

    def shared_labels(self) -> list[str]:
        """The labels premise and situation both use, sorted; semantic
        separation wants none."""
        return sorted(set(expr_labels(self.premise)) & set(expr_labels(self.situation)))


@dataclass(frozen=True)
class ChainSet:
    """A charge's chains, held as a tuple so that the set stays non-empty."""

    charge: str
    chains: tuple[LegalChain, ...]
    lexicon: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "chains", tuple(self.chains))
        if not self.chains:
            raise ValidationError(f"chain set for {self.charge!r} has no chains")

    def phrases_for(self, label: str) -> list[str]:
        """Surface phrases that realize a predicate; the label itself by default."""
        lab = normalize_label(label)
        phrases = self.lexicon.get(lab)
        return list(phrases) if phrases else [lab]


def charge_chains(library: Mapping[str, ChainSet], charges: list[str],
                  use_chains: bool) -> dict[str, ChainSet | None]:
    """Each charge's chain set from ``library`` (one ConfigurationError names every charge
    without one), or None for every charge when ``use_chains`` is off (``library`` unread)."""
    if not use_chains:
        return dict.fromkeys(charges)
    missing = [c for c in charges if c not in library]
    if missing:
        raise ConfigurationError(f"no chain sets for charges: {missing}")
    return {c: library[c] for c in charges}


def chain_from_text(premise_text: str, situation_text: str, conclusion: SentencingRange,
                    source_provision: str = "") -> LegalChain:
    """Build a chain whose condition trees are parsed from infix text."""
    return LegalChain(parse_infix(premise_text), parse_infix(situation_text), conclusion,
                      source_provision)


# ---------------------------------------------------------------------------
# Chain-file (de)serialization
# ---------------------------------------------------------------------------


def parse_chain_file(text: str) -> ChainSet:
    """Parse the chain-file JSON document; raises on schema or range violations."""
    doc = parse_json(text, lambda reason, line: ParseError(
        f"chain file is not valid JSON: {reason}", line=line))
    if not isinstance(doc, dict):
        raise ParseError("chain file must be a JSON object", field="$")
    charge = require(doc, "charge", str, where="$")
    if not charge.strip():
        raise ParseError("charge must be non-empty", field="charge")
    raw_chains = require(doc, "chains", list, where="$")
    chains: list[LegalChain] = []
    for i, raw in enumerate(raw_chains):
        where = f"chains[{i}]"
        if not isinstance(raw, dict):
            raise ParseError("chain entry must be an object", field=where)
        premise = require(raw, "premise", dict, where=where)
        situation = require(raw, "situation", dict, where=where)
        conclusion = require(raw, "conclusion", dict, where=where)
        lo = require(conclusion, "min_months", int, where=f"{where}.conclusion")
        hi = require(conclusion, "max_months", int, where=f"{where}.conclusion")
        label = (require(conclusion, "label", str, where=f"{where}.conclusion")
                 if "label" in conclusion else "")
        try:
            sentencing = SentencingRange(lo, hi, label)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        source = (require(raw, "source_provision", str, where=where)
                  if "source_provision" in raw else "")
        chains.append(
            LegalChain(
                premise=expr_from_json(require(premise, "expr", dict, where=f"{where}.premise"), f"{where}.premise.expr"),
                situation=expr_from_json(require(situation, "expr", dict, where=f"{where}.situation"), f"{where}.situation.expr"),
                conclusion=sentencing,
                source_provision=source,
            )
        )
    lexicon = {}
    raw_lex = require(doc, "lexicon", dict, where="$") if "lexicon" in doc else {}
    for key, phrases in raw_lex.items():
        if not isinstance(phrases, list) or not all(isinstance(p, str) for p in phrases):
            raise ParseError("lexicon values must be lists of strings", field=f"lexicon.{key}")
        lexicon[normalize_label(key)] = list(phrases)
    return ChainSet(charge=charge, chains=chains, lexicon=lexicon)


def serialize_chain_set(cs: ChainSet) -> str:
    doc = {
        "charge": cs.charge,
        "chains": [
            {
                "premise": {"expr": expr_to_json(c.premise)},
                "situation": {"expr": expr_to_json(c.situation)},
                "conclusion": {
                    "min_months": c.conclusion.min_months,
                    "max_months": c.conclusion.max_months,
                    "label": c.conclusion.label,
                },
                "source_provision": c.source_provision,
            }
            for c in cs.chains
        ],
    }
    if cs.lexicon:
        doc["lexicon"] = {k: list(v) for k, v in sorted(cs.lexicon.items())}
    return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def load_chain_library(path: str | Path) -> dict[str, ChainSet]:
    """Load one chain file or every ``*.json`` in a directory, keyed by charge."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise ValidationError(f"no chain files found under {p}")
    library: dict[str, ChainSet] = {}
    for f in files:
        cs = parse_chain_file(read_text(f, lambda reason: ParseError(f"chain file {f} is {reason}")))
        if cs.charge in library:
            raise ValidationError(f"duplicate chain set for charge {cs.charge!r} in {f.name}")
        library[cs.charge] = cs
    return library


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

PRONOUN_STOPLIST = frozenset(
    "he she it they him her them his hers its their theirs this that these those".split()
)

CONSTRAINT_NAMES = (
    "Exhaustiveness",
    "Semantic separation",
    "Logical coherence",
    "Referential specificity",
    "Sentencing specificity",
)


@dataclass
class ConstraintResult:
    constraint: str
    status: str  # "pass" | "fail" | "not machine-checkable"
    details: list[str] = field(default_factory=list)


@dataclass
class ValidationReport:
    charge: str
    results: list[ConstraintResult]

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def to_dict(self) -> dict:
        return {
            "charge": self.charge,
            "ok": self.ok,
            "constraints": [asdict(r) for r in self.results],
        }


def validate_chain_set(cs: ChainSet) -> ValidationReport:
    """Report pass/fail per machine-checkable extraction constraint.

    Exhaustiveness cannot be machine-checked without provision semantics and is
    reported as such.  Logical coherence and sentencing specificity pass by
    construction: :class:`Predicate` and :class:`Node` reject malformed
    condition trees, and :class:`SentencingRange` an inverted or negative range.
    """
    separation: list[str] = []
    specificity: list[str] = []
    for i, chain in enumerate(cs.chains):
        shared = chain.shared_labels()
        if shared:
            separation.append(f"chain {i}: premise and situation share labels {shared}")
        for part, text in zip(("premise", "situation"), chain.texts):
            hits = sorted({t for t in tokenize(text.casefold()) if t in PRONOUN_STOPLIST})
            if hits:
                specificity.append(f"chain {i} {part}: pronoun tokens {hits}")
    results = [
        ConstraintResult("Exhaustiveness", "not machine-checkable",
                         ["requires expert review of the source provision"]),
        ConstraintResult("Semantic separation", "fail" if separation else "pass", separation),
        ConstraintResult("Logical coherence", "pass"),
        ConstraintResult("Referential specificity", "fail" if specificity else "pass", specificity),
        ConstraintResult("Sentencing specificity", "pass"),
    ]
    return ValidationReport(charge=cs.charge, results=results)


# ---------------------------------------------------------------------------
# Extraction prompt and response parsing
# ---------------------------------------------------------------------------

_PROMPT_TEMPLATE = """\
You are assisting with the decomposition of a statutory provision into
structured legal chains for the charge of {charge}.

A legal chain is a premise-situation-conclusion triplet:
- PREMISE: the behavioral elements that constitute the offense.
- SITUATION: the consequence or severity circumstances attached to the premise.
- CONCLUSION: the statutory sentencing range that applies when both hold.

Decompose the provision below into legal chains, following these five rules:
1. Exhaustiveness: every distinct behavior and condition in the provision must
   be represented by at least one chain.
2. Semantic separation: behavioral elements belong in the premise and
   consequence or severity conditions belong in the situation; never mix the
   two within one component.
3. Logical coherence: combine conditions with explicit AND/OR operators
   (parentheses allowed) so that the provision's inferential structure is
   preserved.
4. Referential specificity: name actors and objects concretely; do not use
   pronouns such as "he", "it", or "they".
5. Sentencing specificity: every conclusion must state the legally prescribed
   sentencing range in months.

Format each chain exactly as follows, one block per chain:
===CHAIN===
PREMISE: <conditions joined with AND/OR>
SITUATION: <conditions joined with AND/OR>
CONCLUSION: range: <min>-<max> months; label: <short clause tag>
SOURCE: <provision identifier>

Provision ({charge}):
{provision}
"""


def build_extraction_prompt(provision_text: str, charge: str) -> str:
    """Deterministic decomposition prompt; contains all five constraint names."""
    if not provision_text or not provision_text.strip():
        raise ContractError("provision text must be non-empty")
    return _PROMPT_TEMPLATE.format(charge=charge, provision=provision_text.strip())


_RANGE_RE = re.compile(r"range:\s*(\d+)\s*-\s*(\d+)\s*months", re.IGNORECASE)
_LABEL_RE = re.compile(r"label:\s*([^\s;]+)")


def parse_extraction_response(text: str, charge: str) -> tuple[ChainSet, list[str]]:
    """Parse ``===CHAIN===`` blocks into a ChainSet.

    Returns the set plus a diagnostic line per malformed block.  Raises
    :class:`ExtractionError` when no block is usable.
    """
    blocks: list[list[str]] = []
    current: list[str] | None = None
    for line in text.splitlines():
        if line.strip() == "===CHAIN===":
            current = []
            blocks.append(current)
        elif current is not None:
            current.append(line)
    chains: list[LegalChain] = []
    diagnostics: list[str] = []
    for idx, blk in enumerate(blocks):
        fields: dict[str, str] = {}
        for line in blk:
            stripped = line.strip()
            for header in ("PREMISE:", "SITUATION:", "CONCLUSION:", "SOURCE:"):
                if stripped.startswith(header):
                    fields[header[:-1]] = stripped[len(header):].strip()
                    break
        missing = [h for h in ("PREMISE", "SITUATION", "CONCLUSION") if not fields.get(h)]
        if missing:
            diagnostics.append(f"chain block {idx}: missing {', '.join(missing)}")
            continue
        m = _RANGE_RE.search(fields["CONCLUSION"])
        if not m:
            diagnostics.append(
                f"chain block {idx}: conclusion lacks 'range: <min>-<max> months'"
            )
            continue
        try:
            lo, hi = int(m.group(1)), int(m.group(2))
        except ValueError:  # past the interpreter's digit limit for int()
            diagnostics.append(f"chain block {idx}: range figure too long")
            continue
        label_m = _LABEL_RE.search(fields["CONCLUSION"])
        try:
            chain = chain_from_text(
                fields["PREMISE"],
                fields["SITUATION"],
                SentencingRange(lo, hi, label_m.group(1) if label_m else ""),
                fields.get("SOURCE", ""),
            )
        except (ParseError, ValidationError) as exc:
            diagnostics.append(f"chain block {idx}: {exc}")
            continue
        shared = chain.shared_labels()
        if shared:
            diagnostics.append(f"chain block {idx}: premise and situation share labels {shared}")
            continue
        chains.append(chain)
    if not chains:
        raise ExtractionError(
            f"no well-formed chain blocks in response for charge {charge!r} "
            f"({len(diagnostics)} diagnostic(s))"
        )
    return ChainSet(charge=charge, chains=chains), diagnostics
