"""The package's indent-2 JSON writer against `json.dumps(..., indent=2)`,
and the report rows' own writers against it."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fanobasket.basket import Basket, WeightedBasket
from fanobasket.birational import replay_birationality
from fanobasket.reports import EliminatedRow, ReplayReport, SurvivorRow, json_indent2
from fanobasket.search import replay_delta1

# text with non-ASCII letters, quotes, backslashes and control characters
texts = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x7f é€😀')),
                max_size=12)
scalars = st.one_of(st.none(), st.booleans(), texts,
                    st.integers(), st.integers(min_value=-10**60, max_value=10**60))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40,
)


@given(values)
@example([])
@example({})
@example({"": [], "a": {}, "b": [[], {}, [{"c": None}]], "d": [True, False, -1, 10**40]})
def test_the_writer_is_json_dumps_at_indent_2(value):
    assert json_indent2(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 2), (1, 2), {1: "a"}, {None: 0}, {("a",): 1}, [1, 2.0], {"a": [(0,)]},
])
def test_the_writer_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        json_indent2(value)


WB = WeightedBasket(Basket.parse("2x(1,2),(2,5)"), 1)


def _writes_its_reference(report: ReplayReport) -> str:
    text = report.json_text()
    assert text == json_indent2(report.to_json()) == json.dumps(report.to_json(), indent=2)
    return text


def test_a_replay_report_writes_what_json_dumps_writes():
    # the rows of all six replays write their own text; `to_json` is the reference
    reports = [replay_delta1(family) for family in ("P1_ge_3", "P1_eq_2", "P1_eq_1", "P1_eq_0")]
    reports += [replay_birationality(target) for target in ("QFano39", "Weak97")]
    assert sum(len(r.survivors) for r in reports) and sum(len(r.eliminated) for r in reports)
    for report in reports:
        _writes_its_reference(report)


def test_a_report_with_no_rows_leaves_or_axioms():
    report = ReplayReport("empty", "none", [])
    assert _writes_its_reference(report) == (
        '{\n  "case": "empty",\n  "constraints": "none",\n  "survivors": [],\n'
        '  "eliminated": [],\n  "conclusion": ""\n}')


def test_rows_escape_their_text_and_write_every_note_value():
    report = ReplayReport('case "\\ é', "k", ["b axiom", "a axiom", "b axiom"])
    report.survivors += [SurvivorRow(WB, {}), SurvivorRow(WB, {
        "n": -3, "s": 'a "q" \\ é€😀', "list": [1, "x", [], {}, None],
        "dict": {"k": [2, {"z": True}], "": {}}, "big": 10**40, "flag": False, "none": None,
    })]
    report.eliminated.append(EliminatedRow(WB, 'P_-2 = 1 "quoted" \\ back é€😀\n', "br\t"))
    report.leaves.append({"name": "leaf", "threshold": 39, "checks": ["a", 1]})
    report.coverage.append("all")
    text = _writes_its_reference(report)
    assert text.isascii() and "\\u00e9\\u20ac\\ud83d\\ude00" in text


def test_a_note_named_like_a_row_key_keeps_the_merged_row():
    # a note whose key is a fixed row key overrides that key's value in
    # place, as the dict merge of `to_json` does; the row writer keeps it
    row = SurvivorRow(WB, {"basket": "noted", "P": [], "a": 1})
    assert list(row.to_json()) == ["basket", "p1", "volume", "rX", "rmax", "P", "a"]
    assert row.to_json()["basket"] == "noted" and row.to_json()["P"] == []
    report = ReplayReport("c", "k", [])
    report.survivors.append(row)
    assert '"basket": "noted"' in _writes_its_reference(report)


@given(st.dictionaries(texts, values, max_size=4), texts, texts)
def test_row_writers_write_their_reference(notes, certificate, branch):
    report = ReplayReport("c", "k", [])
    report.survivors.append(SurvivorRow(WB, notes))
    report.eliminated.append(EliminatedRow(WB, certificate, branch))
    _writes_its_reference(report)
