"""Property tests of the condition-text parser, with Hypothesis.

Every property is derandomized with a fixed example budget and no example
database, so every run draws the same examples.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from lexchain.chains import MAX_NESTING, Node, Predicate, expr_to_text, parse_infix
from lexchain.errors import LexchainError, ParseError

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


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 2000])
def test_deep_nesting_is_a_parse_error(depth):
    """Text nested 500 deep used to escape as RecursionError."""
    assert parse_infix("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == Predicate("a")
    with pytest.raises(ParseError, match="nests parentheses"):
        parse_infix("(" * depth + "a" + ")" * depth)
