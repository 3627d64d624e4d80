"""The package's indent-2 JSON writer against `json.dumps(..., indent=2)`."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fanobasket.reports import json_indent2
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


def test_a_replay_report_writes_what_json_dumps_writes():
    report = replay_delta1("P1_eq_2")
    assert report.json_text() == json.dumps(report.to_json(), indent=2)
