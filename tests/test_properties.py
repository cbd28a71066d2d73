"""Property tests of the condition-text parser, the JSON input boundaries,
the extraction-response parser, checkpoint archives and the CLI's config
file, with Hypothesis.

Every property is derandomized with a fixed example budget and no example
database, so every run draws the same examples.
"""

import io
import json
import re
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lexchain.chains import (MAX_NESTING, ChainSet, LegalChain, Node, Predicate,
                             SentencingRange, chain_from_text, expr_to_text, parse_chain_file,
                             parse_extraction_response, parse_infix, serialize_chain_set)
from lexchain.checkpoint import load_checkpoint, save_checkpoint
from lexchain.cli import CONFIG_ENV, build_parser, main
from lexchain.corpus import load_jsonl
from lexchain.encoder import build_vocab
from lexchain.errors import LexchainError, ParseError
from lexchain.model import ModelConfig, build_model, param_shapes

DETERMINISTIC = settings(derandomize=True, max_examples=300, database=None, deadline=None)

# What parse_infix reads as syntax: parentheses and the whole words AND / OR.
_SYNTAX = re.compile(r"[()]|\bAND\b|\bOR\b")

labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12,
).filter(lambda s: s == s.strip() and s and not _SYNTAX.search(s))

condition_trees = st.recursive(
    labels.map(Predicate),
    lambda children: st.builds(Node, st.sampled_from(["and", "or"]),
                               st.lists(children, min_size=2, max_size=4).map(tuple)),
    max_leaves=12,
)

# Text built mostly from the parser's own pieces, so that near-miss syntax
# (unbalanced or empty parentheses, dangling operators) is common.
syntax_soup = st.lists(
    st.one_of(st.sampled_from(["(", ")", " AND ", " OR ", "AND", "OR", " ", "and", "x"]),
              st.text(max_size=4)),
    max_size=16,
).map("".join)


@DETERMINISTIC
@given(condition_trees)
def test_expr_to_text_round_trips_through_parse_infix(expr):
    assert parse_infix(expr_to_text(expr)) == expr


@DETERMINISTIC
@given(st.one_of(st.text(max_size=40), syntax_soup,
                 st.integers(0, 3000).map(lambda n: "(" * n + "a" + ")" * n)))
def test_parse_infix_raises_only_package_errors(text):
    try:
        expr = parse_infix(text)
    except LexchainError:
        return
    assert isinstance(expr, (Predicate, Node))
    assert parse_infix(expr_to_text(expr)) == expr


@DETERMINISTIC
@given(condition_trees, condition_trees)
def test_any_condition_tree_survives_a_chain_file(premise, situation):
    chain = LegalChain(premise, situation, SentencingRange(1, 6, "base"), "Provision 1")
    loaded = parse_chain_file(serialize_chain_set(ChainSet(charge="toy", chains=[chain])))
    assert loaded.chains == (chain,)
    assert loaded.chains[0].texts == chain.texts


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 2000])
def test_deep_nesting_is_a_parse_error(depth):
    """Text nested 500 deep used to escape as RecursionError."""
    assert parse_infix("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == Predicate("a")
    with pytest.raises(ParseError, match="nests parentheses"):
        parse_infix("(" * depth + "a" + ")" * depth)


# JSON documents of any shape, plus text that is almost JSON.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
_CHAIN_FILE = json.loads(serialize_chain_set(ChainSet(charge="toy", chains=[
    chain_from_text("a AND b", "c OR d", SentencingRange(1, 6, "base"), "Provision 1")])))
_CASE = {"case_id": "toy-0", "fact": "the man took goods", "charge": "toy",
         "opinion": "the court orders 7 months of imprisonment.", "sentence_months": 7,
         "sentencing_span": None, "defendant": "the man"}


def _mutations(doc):
    """A valid document with one top-level value replaced or removed."""
    return st.one_of(
        st.builds(lambda key, value: {**doc, key: value}, st.sampled_from(sorted(doc)),
                  json_values),
        st.sampled_from(sorted(doc)).map(lambda key: {k: v for k, v in doc.items()
                                                      if k != key}),
    ).map(json.dumps)


def _inputs(doc):
    return st.one_of(json_values.map(json.dumps), _mutations(doc), st.text(max_size=40),
                     st.integers(0, 3000).map(lambda n: "[" * n + "]" * n),
                     st.integers(0, 3000).map(lambda n: '{"a":' * n + "1" + "}" * n))


@DETERMINISTIC
@given(_inputs(_CHAIN_FILE))
def test_parse_chain_file_raises_only_package_errors(text):
    try:
        parse_chain_file(text)
    except LexchainError:
        pass


@DETERMINISTIC
@given(st.lists(_inputs(_CASE).map(lambda line: line.replace("\n", " ")), min_size=1,
                max_size=3))
def test_load_jsonl_raises_only_package_errors(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            load_jsonl(path)
        except LexchainError:
            pass


# A value for an integer field: any JSON value, booleans made common.
_int_field_values = st.one_of(st.booleans(), st.integers(-2, 50), json_values)


@DETERMINISTIC
@given(st.sampled_from(["min_months", "max_months"]), _int_field_values)
def test_chain_file_months_load_as_int_or_raise(key, value):
    """A JSON boolean is never read as an integer month figure."""
    doc = json.loads(json.dumps(_CHAIN_FILE))
    doc["chains"][0]["conclusion"][key] = value
    try:
        conclusion = parse_chain_file(json.dumps(doc)).chains[0].conclusion
    except LexchainError:
        return
    assert type(conclusion.min_months) is int and type(conclusion.max_months) is int


@DETERMINISTIC
@given(st.one_of(
    st.tuples(st.just("sentence_months"), _int_field_values),
    st.tuples(st.just("sentencing_span"),
              st.one_of(json_values, st.lists(_int_field_values, min_size=2, max_size=2)))))
def test_corpus_integers_load_as_int_or_raise(field_value):
    """A JSON boolean is never read as a months figure or a span end."""
    key, value = field_value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.jsonl"
        path.write_text(json.dumps({**_CASE, key: value}) + "\n", encoding="utf-8")
        try:
            [record] = load_jsonl(path)
        except LexchainError:
            return
    assert type(record.sentence_months) is int
    assert record.sentencing_span is None or [type(v) for v in record.sentencing_span] == [int, int]


@pytest.mark.parametrize("reader", ["chain file", "corpus"])
def test_integer_past_the_digit_limit_is_a_package_error(reader, tmp_path):
    """Python refuses to convert an integer literal of more than 4300 digits;
    a JSON input holding one used to escape as ValueError."""
    huge = "9" * 5000
    with pytest.raises(ParseError):
        if reader == "chain file":
            parse_chain_file(json.dumps(_CHAIN_FILE)[:-1] + f', "x": {huge}}}')
        else:
            path = tmp_path / "cases.jsonl"
            path.write_text(json.dumps(_CASE)[:-1] + f', "sentence_months": {huge}}}\n',
                            encoding="utf-8")
            load_jsonl(path)


def _small_archive():
    """The manifest and the members of a small valid checkpoint."""
    model = build_model(build_vocab(["the man took goods"]), ["toy"],
                        ModelConfig(d=4, enc_heads=2, dec_heads=2, layers=1, context=8), 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.zip"
        save_checkpoint(path, model, extra={"epoch": 1})
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
    shapes = param_shapes(model.cfg, model.vocab_size, model.charges)
    return json.loads(members.pop("manifest.json")), members, shapes


_MANIFEST, _MEMBERS, _SHAPES = _small_archive()
_ENTRIES = len(_MANIFEST["params"])
# Where one manifest value can be set: each top-level key, each config key and
# each key of each params entry, drawn as often as all the params entries' keys.
_MANIFEST_PATHS = st.one_of(
    st.sampled_from([(key,) for key in sorted(_MANIFEST)]
                    + [("config", key) for key in sorted(_MANIFEST["config"])]),
    st.sampled_from([("params", i, key) for i in range(_ENTRIES)
                     for key in ("name", "file", "shape")]))
_small_arrays = hnp.arrays(
    st.one_of(st.just(np.dtype("<f8")), hnp.scalar_dtypes(), hnp.floating_dtypes(endianness=">"),
              hnp.unicode_string_dtypes(max_len=3), hnp.byte_string_dtypes(max_len=3)),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
_archive_mutations = st.one_of(
    st.tuples(st.sampled_from(["drop", "repeat"]), st.integers(0, _ENTRIES - 1)),
    st.tuples(st.just("set"), _MANIFEST_PATHS, json_values),
    st.tuples(st.just("array"), st.integers(0, _ENTRIES - 1), _small_arrays),
)


def _mutated_archive(path, mutation):
    manifest = json.loads(json.dumps(_MANIFEST))
    members = dict(_MEMBERS)
    kind, where, *value = mutation
    if kind == "drop":
        del manifest["params"][where]
    elif kind == "repeat":
        manifest["params"].insert(where, dict(manifest["params"][where]))
    elif kind == "set":
        *parents, key = where
        target = manifest
        for step in parents:
            target = target[step]
        target[key] = value[0]
    else:
        buf = io.BytesIO()
        np.save(buf, value[0], allow_pickle=False)
        members[manifest["params"][where]["file"]] = buf.getvalue()
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for name, data in members.items():
            zf.writestr(name, data)


@DETERMINISTIC
@given(_archive_mutations)
def test_a_mutated_archive_loads_whole_or_raises(mutation):
    """A valid checkpoint with one manifest value set to any JSON value, or one
    array replaced by any small array, loads as a model of finite ``<f8``
    parameters of the expected shapes with a dict ``extra``, or raises a
    package error.  One with a params entry dropped or repeated always raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.zip"
        _mutated_archive(path, mutation)
        try:
            model, extra = load_checkpoint(path)
        except LexchainError:
            return
    assert mutation[0] not in ("drop", "repeat")
    assert isinstance(extra, dict)
    assert {name: t.shape for name, t in model.params.items()} == _SHAPES
    for t in model.params.values():
        assert t.data.dtype.str == "<f8" and np.isfinite(t.data).all()


# Extraction responses: chain blocks, mostly well formed, with condition text
# from the syntax soup and range figures of any length (past Python's
# 4300-digit limit for int() too), mixed with stray and partial lines.
_conditions = st.one_of(labels, syntax_soup, st.builds("{} AND {}".format, labels, labels),
                        st.integers(0, 300).map(lambda n: "(" * n + "a" + ")" * n))
_figures = st.one_of(st.integers(0, 10 ** 6).map(str), st.integers(4000, 6000).map("9".__mul__),
                     st.text(alphabet="0123456789 -", max_size=8))
_conclusions = st.one_of(
    st.builds("range: {}-{} months; label: {}".format, _figures, _figures, st.text(max_size=6)),
    st.text(max_size=30),
)
_response_lines = st.one_of(
    st.just("===CHAIN==="),
    st.builds("{} {}".format, st.sampled_from(["PREMISE:", "SITUATION:", "SOURCE:"]),
              _conditions),
    _conclusions.map("CONCLUSION: {}".format),
    st.text(max_size=30),
)
_blocks = st.builds(
    lambda premise, situation, conclusion, extra: "\n".join(
        ["===CHAIN===", f"PREMISE: {premise}", f"SITUATION: {situation}",
         f"CONCLUSION: {conclusion}", *extra]),
    _conditions, _conditions, _conclusions, st.lists(_response_lines, max_size=3))
extraction_responses = st.lists(st.one_of(_blocks, _response_lines), max_size=6).map("\n".join)


@DETERMINISTIC
@given(extraction_responses)
def test_parse_extraction_response_raises_only_package_errors(text):
    try:
        chain_set, diagnostics = parse_extraction_response(text, "toy")
    except LexchainError:
        return
    assert chain_set.charge == "toy" and chain_set.chains
    assert all(isinstance(note, str) for note in diagnostics)


@settings(DETERMINISTIC, max_examples=100)
@given(st.one_of(extraction_responses, st.binary(max_size=40).map(
    lambda raw: b"===CHAIN===\nPREMISE: " + raw)))
def test_parse_chains_exits_two_on_a_malformed_response(response):
    """``lexchain parse-chains`` exits 0 on a usable response and 2 on any
    other, undecodable bytes included; it never ends in a traceback."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV, raising=False)
        path = Path(tmp) / "response.txt"
        if isinstance(response, bytes):
            path.write_bytes(response)
        else:
            path.write_text(response, encoding="utf-8")
        try:
            parse_extraction_response(path.read_text(encoding="utf-8"), "toy")
            want = 0
        except (LexchainError, UnicodeDecodeError):
            want = 2
        out = Path(tmp) / "toy.json"
        code = main(["parse-chains", "--charge", "toy", "--response-file", str(path),
                     "--out", str(out)])
        assert code == want
        if want == 0:
            assert parse_chain_file(out.read_text(encoding="utf-8")).charge == "toy"


# Cheap commands with every required path given on the command line, so a
# config key only sets a default (the output path included, which the flag
# then overrides).  The corpus is one synthesized case per charge.
_CONFIG_COMMANDS = {
    "synth-corpus": ["--cases-per-charge", "1", "--distractors", "0"],
    "validate-chains": [],
    "screen": ["--corpus", "corpus.jsonl"],
}


def _option_keys(command):
    return sorted(a.dest for a in build_parser().subcommands[command]._actions
                  if a.option_strings and a.dest != "help")


_config_cases = st.sampled_from(sorted(_CONFIG_COMMANDS)).flatmap(
    lambda command: st.tuples(st.just(command), st.sampled_from(_option_keys(command)),
                              json_values, st.booleans()))


@settings(DETERMINISTIC, max_examples=150)
@given(_config_cases)
def test_any_config_value_ends_in_an_exit_code(case):
    """Any JSON value under any option key of a cheap command, spelled with
    dashes or underscores, ends in exit 0 to 3 and never in a traceback."""
    command, key, value, dashed = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv(CONFIG_ENV, raising=False)
        mp.chdir(tmp)
        assert main(["synth-corpus", "--cases-per-charge", "1", "--out", "corpus.jsonl"]) == 0
        Path("config.json").write_text(
            json.dumps({key.replace("_", "-") if dashed else key: value}), encoding="utf-8")
        mp.setenv(CONFIG_ENV, "config.json")
        assert main([command, *_CONFIG_COMMANDS[command], "--out", "out.json"]) in (0, 1, 2, 3)
