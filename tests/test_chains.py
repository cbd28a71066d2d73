"""Condition trees, chain files, validation constraints, and extraction parsing."""

import dataclasses
import itertools
import json
from importlib import resources

import numpy as np
import pytest

from lexchain.chains import (
    CONSTRAINT_NAMES,
    MAX_NESTING,
    ChainSet,
    Node,
    Predicate,
    SentencingRange,
    build_extraction_prompt,
    chain_from_text,
    eval_condition,
    expr_from_json,
    expr_labels,
    expr_to_json,
    expr_to_text,
    load_chain_library,
    normalize_label,
    parse_chain_file,
    parse_extraction_response,
    parse_infix,
    serialize_chain_set,
    validate_chain_set,
)
from lexchain.errors import (
    ContractError,
    ExtractionError,
    ParseError,
    ValidationError,
)


def _random_expr(rng, labels, depth):
    """Random AND/OR tree over the given labels."""
    if depth == 0 or rng.random() < 0.3:
        return Predicate(str(rng.choice(labels)))
    op = "and" if rng.random() < 0.5 else "or"
    k = int(rng.integers(2, 4))
    return Node(op, tuple(_random_expr(rng, labels, depth - 1) for _ in range(k)))


def _brute_force(expr, facts):
    """Reference evaluator written independently of the package's recursion."""
    stack = [(expr, None)]
    # simple recursive reference instead; clarity over cleverness
    if isinstance(expr, Predicate):
        return normalize_label(expr.label) in {normalize_label(f) for f in facts}
    results = [_brute_force(c, facts) for c in expr.children]
    return all(results) if expr.op == "and" else any(results)


class TestConditionEvaluation:
    def test_predicate_membership(self):
        assert eval_condition(Predicate("used force"), {"used force"})
        assert not eval_condition(Predicate("used force"), {"stole goods"})

    def test_normalization_is_applied_to_both_sides(self):
        assert eval_condition(Predicate("  Used   FORCE "), {"used force"})
        assert eval_condition(Predicate("used force"), {"USED  FORCE"})

    def test_and_or_semantics(self):
        e = Node("and", (Predicate("a"), Node("or", (Predicate("b"), Predicate("c")))))
        assert eval_condition(e, {"a", "b"})
        assert eval_condition(e, {"a", "c"})
        assert not eval_condition(e, {"a"})
        assert not eval_condition(e, {"b", "c"})

    @pytest.mark.parametrize("seed", range(30))
    def test_truth_tables_match_brute_force(self, seed):
        """Exhaustive truth tables over up to 6 predicates match a reference."""
        rng = np.random.default_rng(seed)
        labels = [f"p{i}" for i in range(int(rng.integers(2, 7)))]
        expr = _random_expr(rng, labels, depth=2)
        used = expr_labels(expr)
        assert len(used) <= 6
        for bits in itertools.product([False, True], repeat=len(labels)):
            facts = {lab for lab, bit in zip(labels, bits) if bit}
            assert eval_condition(expr, facts) == _brute_force(expr, facts)

    @pytest.mark.parametrize("seed", range(20))
    def test_monotonicity_in_facts(self, seed):
        """Adding facts can only flip the result from False to True."""
        rng = np.random.default_rng(seed + 1000)
        labels = [f"p{i}" for i in range(5)]
        expr = _random_expr(rng, labels, depth=2)
        facts = set()
        previous = eval_condition(expr, facts)
        for lab in labels:
            facts.add(lab)
            now = eval_condition(expr, facts)
            assert now >= previous
            previous = now

    def test_node_arity_enforced(self):
        with pytest.raises(ValidationError):
            Node("and", (Predicate("a"),))
        with pytest.raises(ValidationError):
            Node("xor", (Predicate("a"), Predicate("b")))

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValidationError):
            Predicate("   ")


class TestInfixText:
    def test_and_binds_tighter_than_or(self):
        expr = parse_infix("a AND b OR c")
        assert isinstance(expr, Node) and expr.op == "or"
        assert isinstance(expr.children[0], Node) and expr.children[0].op == "and"

    def test_parentheses_override(self):
        expr = parse_infix("a AND (b OR c)")
        assert isinstance(expr, Node) and expr.op == "and"
        assert isinstance(expr.children[1], Node) and expr.children[1].op == "or"

    def test_lowercase_and_stays_in_label(self):
        expr = parse_infix("accepted money and gifts")
        assert expr == Predicate("accepted money and gifts")

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_through_text(self, seed):
        rng = np.random.default_rng(seed + 77)
        labels = ["takes goods", "uses force", "night time", "harm done"]
        expr = _random_expr(rng, labels, depth=2)
        again = parse_infix(expr_to_text(expr))
        # semantic equality over the full truth table
        for bits in itertools.product([False, True], repeat=len(labels)):
            facts = {lab for lab, bit in zip(labels, bits) if bit}
            assert eval_condition(expr, facts) == eval_condition(again, facts)

    @pytest.mark.parametrize(
        "bad", ["a AND", "OR b", "a AND (b OR c", "a) AND b", "", "(())"]
    )
    def test_malformed_text_raises(self, bad):
        with pytest.raises(ParseError):
            parse_infix(bad)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_expr_json_round_trip(self, seed):
        rng = np.random.default_rng(seed + 55)
        labels = [f"cond {i}" for i in range(4)]
        expr = _random_expr(rng, labels, depth=3)
        assert expr_from_json(expr_to_json(expr)) == expr

    def test_bad_json_shapes(self):
        with pytest.raises(ParseError):
            expr_from_json({"and": [{"pred": "a"}]})  # arity
        with pytest.raises(ParseError):
            expr_from_json({"nand": [{"pred": "a"}, {"pred": "b"}]})
        with pytest.raises(ParseError):
            expr_from_json({"pred": ""})
        with pytest.raises(ParseError):
            expr_from_json(["pred"])

    def test_nesting_capped_at_max_nesting(self):
        """A condition tree nested 3000 deep used to escape as RecursionError."""
        def nested(depth):
            expr = {"pred": "a"}
            for _ in range(depth):
                expr = {"and": [expr, {"pred": "b"}]}
            return expr

        assert sorted(set(expr_labels(expr_from_json(nested(MAX_NESTING))))) == ["a", "b"]
        for depth in (MAX_NESTING + 1, 3000):
            with pytest.raises(ParseError, match="nests AND/OR more than"):
                expr_from_json(nested(depth))


def _toy_chain_set():
    return ChainSet(
        charge="robbery",
        chains=[
            chain_from_text(
                "used violence AND seized property",
                "no aggravating circumstance",
                SentencingRange(36, 120, "base"),
                "Article 263",
            ),
            chain_from_text(
                "used violence AND seized property",
                "serious injury OR inside a residence",
                SentencingRange(120, 300, "aggravated"),
                "Article 263",
            ),
        ],
        lexicon={"used violence": ["used violence", "punched the victim"]},
    )


def _parse_error(edit) -> str:
    """The ParseError message of the toy chain file after ``edit``."""
    doc = json.loads(serialize_chain_set(_toy_chain_set()))
    edit(doc)
    with pytest.raises(ParseError) as exc:
        parse_chain_file(json.dumps(doc))
    return str(exc.value)


class TestChainFiles:
    def test_serialize_parse_round_trip_bytes(self):
        cs = _toy_chain_set()
        text = serialize_chain_set(cs)
        again = parse_chain_file(text)
        assert serialize_chain_set(again) == text
        assert again.charge == cs.charge
        assert again.chains == cs.chains
        assert again.lexicon == cs.lexicon

    def test_each_condition_is_stored_once_as_its_tree(self):
        doc = json.loads(serialize_chain_set(_toy_chain_set()))
        for chain in doc["chains"]:
            assert chain["premise"] == {"expr": {"and": [{"pred": "used violence"},
                                                         {"pred": "seized property"}]}}
            assert list(chain["situation"]) == ["expr"]

    @pytest.mark.parametrize("name", sorted(
        f.name for f in (resources.files("lexchain") / "data" / "chains").iterdir()
        if f.name.endswith(".json")))
    def test_shipped_file_is_a_fixed_point_of_parse_and_serialize(self, name):
        text = (resources.files("lexchain") / "data" / "chains" / name).read_text(encoding="utf-8")
        assert serialize_chain_set(parse_chain_file(text)) == text

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["chains"][0]["conclusion"].update(label=3),
         "key 'label' must be str (field 'chains[0].conclusion.label')"),
        (lambda d: d["chains"][1].update(source_provision=None),
         "key 'source_provision' must be str (field 'chains[1].source_provision')"),
        (lambda d: d.update(lexicon=["used violence"]),
         "key 'lexicon' must be dict (field 'lexicon')"),
        (lambda d: d["lexicon"].update({"used violence": "punched the victim"}),
         "lexicon values must be lists of strings (field 'lexicon.used violence')"),
        (lambda d: d["lexicon"].update({"used violence": [True]}),
         "lexicon values must be lists of strings (field 'lexicon.used violence')"),
    ], ids=["label", "source_provision", "lexicon", "lexicon-value", "lexicon-item"])
    def test_optional_keys_follow_the_typed_key_rule(self, edit, message):
        assert _parse_error(edit) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(charge=7), "key 'charge' must be str (field 'charge')"),
        (lambda d: d.update(charge=" "), "charge must be non-empty (field 'charge')"),
        (lambda d: d.update(chains={}), "key 'chains' must be list (field 'chains')"),
    ], ids=["charge", "blank-charge", "chains"])
    def test_top_level_fields_are_named_like_the_other_checks(self, edit, message):
        assert _parse_error(edit) == message

    def test_optional_keys_may_be_left_out(self):
        doc = json.loads(serialize_chain_set(_toy_chain_set()))
        del doc["lexicon"], doc["chains"][0]["source_provision"]
        del doc["chains"][0]["conclusion"]["label"]
        cs = parse_chain_file(json.dumps(doc))
        assert cs.lexicon == {}
        assert cs.chains[0].source_provision == cs.chains[0].conclusion.label == ""

    def test_serialized_form_is_sorted_json(self):
        doc = json.loads(serialize_chain_set(_toy_chain_set()))
        assert list(doc) == sorted(doc)
        assert doc["charge"] == "robbery"
        assert doc["chains"][0]["conclusion"]["min_months"] == 36

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(ParseError) as exc:
            parse_chain_file(json.dumps({"charge": "x"}))
        assert "chains" in str(exc.value)

    def test_parse_rejects_inverted_range(self):
        doc = json.loads(serialize_chain_set(_toy_chain_set()))
        doc["chains"][0]["conclusion"]["min_months"] = 500
        with pytest.raises(ValidationError):
            parse_chain_file(json.dumps(doc))

    def test_inverted_range_error_is_the_constructors_and_names_its_chain_once(self):
        doc = json.loads(serialize_chain_set(_toy_chain_set()))
        doc["chains"][0]["conclusion"].update(min_months=500, max_months=120)
        with pytest.raises(ValidationError) as exc:
            parse_chain_file(json.dumps(doc))
        message = str(exc.value)
        assert message.count("chains[0]") == 1
        assert message.endswith("sentencing range [500, 120] is inverted or negative")

    def test_parse_rejects_empty_chain_list(self):
        with pytest.raises(ValidationError, match="chain set for 'x' has no chains"):
            parse_chain_file(json.dumps({"charge": "x", "chains": []}))

    def test_parse_rejects_non_json(self):
        with pytest.raises(ParseError):
            parse_chain_file("not json at all {")

    def test_parse_rejects_deeply_nested_json(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_chain_file("[" * 100000 + "]" * 100000)

    def test_parse_rejects_a_deeply_nested_condition(self):
        doc = json.loads(serialize_chain_set(_toy_chain_set()))
        expr = doc["chains"][0]["premise"]["expr"]
        for _ in range(400):
            expr = {"or": [expr, {"pred": "x"}]}
        doc["chains"][0]["premise"]["expr"] = expr
        with pytest.raises(ParseError, match="nests AND/OR more than"):
            parse_chain_file(json.dumps(doc))

    def test_load_library_directory(self, tmp_path):
        cs = _toy_chain_set()
        (tmp_path / "robbery.json").write_text(serialize_chain_set(cs), encoding="utf-8")
        library = load_chain_library(tmp_path)
        assert sorted(library) == ["robbery"]
        assert library["robbery"].chains == cs.chains

    def test_load_library_duplicate_charge(self, tmp_path):
        cs = _toy_chain_set()
        (tmp_path / "a.json").write_text(serialize_chain_set(cs), encoding="utf-8")
        (tmp_path / "b.json").write_text(serialize_chain_set(cs), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_chain_library(tmp_path)

    def test_packaged_library_loads_and_validates(self):
        from lexchain.cli import default_chains_dir

        library = load_chain_library(default_chains_dir())
        assert len(library) >= 10
        assert "robbery" in library
        for cs in library.values():
            report = validate_chain_set(cs)
            assert report.ok, report.to_dict()

    def test_packaged_robbery_base_range(self):
        from lexchain.cli import default_chains_dir

        library = load_chain_library(default_chains_dir())
        base = library["robbery"].chains[0].conclusion
        assert (base.min_months, base.max_months) == (36, 120)


class TestValidation:
    def test_clean_set_passes_all_machine_checkable(self):
        report = validate_chain_set(_toy_chain_set())
        byname = {r.constraint: r for r in report.results}
        assert [r.constraint for r in report.results] == list(CONSTRAINT_NAMES)
        assert byname["Exhaustiveness"].status == "not machine-checkable"
        for name in CONSTRAINT_NAMES[1:]:
            assert byname[name].status == "pass"
        assert report.ok

    def test_shared_label_fails_semantic_separation(self):
        cs = ChainSet(
            charge="x",
            chains=[
                chain_from_text(
                    "used force", "used force OR harm done", SentencingRange(1, 2)
                )
            ],
        )
        report = validate_chain_set(cs)
        byname = {r.constraint: r for r in report.results}
        assert byname["Semantic separation"].status == "fail"
        assert byname["Semantic separation"].details == [
            "chain 0: premise and situation share labels ['used force']"]
        assert not report.ok

    def test_pronoun_fails_referential_specificity(self):
        cs = ChainSet(
            charge="x",
            chains=[
                chain_from_text(
                    "he used force", "harm done", SentencingRange(1, 2)
                )
            ],
        )
        report = validate_chain_set(cs)
        byname = {r.constraint: r for r in report.results}
        assert byname["Referential specificity"].status == "fail"
        assert "he" in byname["Referential specificity"].details[0]

    def test_inverted_range_fails_sentencing_specificity(self):
        """An inverted or negative range cannot be built, so no chain set
        reaches the report with one."""
        with pytest.raises(ValidationError, match="inverted or negative"):
            SentencingRange(10, 5)
        with pytest.raises(ValidationError, match="inverted or negative"):
            SentencingRange(-1, 5)


class TestExtractionPrompt:
    def test_contains_all_five_constraint_names(self):
        prompt = build_extraction_prompt("Whoever robs shall be punished.", "robbery")
        for name in CONSTRAINT_NAMES:
            assert name in prompt

    def test_contains_charge_and_provision(self):
        prompt = build_extraction_prompt("Whoever robs shall be punished.", "robbery")
        assert "robbery" in prompt
        assert "Whoever robs shall be punished." in prompt

    def test_deterministic_bytes(self):
        a = build_extraction_prompt("text", "theft")
        b = build_extraction_prompt("text", "theft")
        assert a == b

    def test_empty_provision_rejected(self):
        with pytest.raises(ContractError):
            build_extraction_prompt("   ", "theft")


GOOD_RESPONSE = """\
Here are the chains you asked for.

===CHAIN===
PREMISE: used violence against the victim AND seized property of another
SITUATION: no aggravating circumstance was present
CONCLUSION: range: 36-120 months; label: base
SOURCE: Article 263

===CHAIN===
PREMISE: used violence against the victim AND seized property of another
SITUATION: serious injury OR inside a residence
CONCLUSION: range: 120-300 months; label: aggravated
SOURCE: Article 263
"""


class TestExtractionResponse:
    def test_two_blocks_parse(self):
        cs, diagnostics = parse_extraction_response(GOOD_RESPONSE, "robbery")
        assert diagnostics == []
        assert len(cs.chains) == 2
        assert cs.chains[0].conclusion == SentencingRange(36, 120, "base")
        assert cs.chains[1].source_provision == "Article 263"
        assert expr_labels(cs.chains[1].situation) == [
            "serious injury",
            "inside a residence",
        ]

    def test_malformed_block_yields_diagnostic(self):
        text = GOOD_RESPONSE + "\n===CHAIN===\nPREMISE: only a premise\n"
        cs, diagnostics = parse_extraction_response(text, "robbery")
        assert len(cs.chains) == 2
        assert len(diagnostics) == 1
        assert "missing" in diagnostics[0]

    def test_bad_range_yields_diagnostic(self):
        text = """===CHAIN===
PREMISE: a
SITUATION: b
CONCLUSION: about ten years
SOURCE: s

===CHAIN===
PREMISE: a
SITUATION: b
CONCLUSION: range: 10-2 months
SOURCE: s

===CHAIN===
PREMISE: a
SITUATION: b
CONCLUSION: range: 2-10 months; label: ok
SOURCE: s
"""
        cs, diagnostics = parse_extraction_response(text, "x")
        assert len(cs.chains) == 1
        assert len(diagnostics) == 2
        assert diagnostics[1].startswith("chain block 1: ") and "inverted" in diagnostics[1]

    def test_premise_situation_overlap_rejected_with_diagnostic(self):
        text = """===CHAIN===
PREMISE: used force
SITUATION: used force OR harm
CONCLUSION: range: 1-2 months
SOURCE: s

===CHAIN===
PREMISE: used force
SITUATION: harm done
CONCLUSION: range: 1-2 months
SOURCE: s
"""
        cs, diagnostics = parse_extraction_response(text, "x")
        assert len(cs.chains) == 1
        assert diagnostics == ["chain block 0: premise and situation share labels ['used force']"]

    def test_no_usable_blocks_raises(self):
        with pytest.raises(ExtractionError):
            parse_extraction_response("no chains here", "x")

    def test_case_insensitive_range(self):
        text = """===CHAIN===
PREMISE: a
SITUATION: b
CONCLUSION: Range: 5-10 Months; label: tag
SOURCE: s
"""
        cs, diagnostics = parse_extraction_response(text, "x")
        assert cs.chains[0].conclusion == SentencingRange(5, 10, "tag")


class TestChainTypes:
    def test_range_contains_is_inclusive(self):
        r = SentencingRange(36, 120)
        assert r.contains(36) and r.contains(120) and r.contains(48)
        assert not r.contains(35) and not r.contains(121)

    def test_range_display_text(self):
        assert SentencingRange(36, 120).text() == (
            "36 to 120 months of fixed-term imprisonment"
        )

    def test_predicate_labels_orders_premise_first(self):
        chain = _toy_chain_set().chains[1]
        labels = chain.predicate_labels()
        assert labels == [
            "used violence",
            "seized property",
            "serious injury",
            "inside a residence",
        ]

    def test_shared_labels_are_sorted_and_normalized(self):
        chain = chain_from_text("Used  Force AND b AND a", "a OR (used force AND c) OR b",
                                SentencingRange(1, 2))
        assert chain.shared_labels() == ["a", "b", "used force"]
        assert _toy_chain_set().chains[1].shared_labels() == []

    def test_chain_set_needs_a_chain(self):
        with pytest.raises(ValidationError, match="chain set for 'x' has no chains"):
            ChainSet(charge="x", chains=[])

    def test_a_loaded_chain_set_cannot_be_emptied(self):
        """The non-empty rule holds for a set's whole life: its chains are a
        tuple, and the set takes no new field values."""
        from lexchain.cli import default_chains_dir

        library = load_chain_library(default_chains_dir())
        cs = library[sorted(library)[0]]
        assert isinstance(cs.chains, tuple)
        with pytest.raises(AttributeError):
            cs.chains.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cs.chains = ()
        assert cs.chains
        assert isinstance(_toy_chain_set().chains, tuple)  # built from a list

    def test_chain_from_text_requires_nonempty(self):
        with pytest.raises((ValidationError, ParseError)):
            chain_from_text("", "b", SentencingRange(1, 2))
