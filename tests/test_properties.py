"""Property-based checks over randomly generated baskets."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from fanobasket.basket import Basket, WeightedBasket
from fanobasket.canonical import unpack
from oracles import general_packings, sigma_prime

CANONICAL_POINTS = [
    (b, r) for r in range(2, 14) for b in range(1, r // 2 + 1) if gcd(b, r) == 1
]

baskets = st.lists(
    st.sampled_from(CANONICAL_POINTS), min_size=0, max_size=6
).map(Basket)
weighted = st.tuples(baskets, st.integers(min_value=0, max_value=8)).map(
    lambda t: WeightedBasket(*t)
)


@given(baskets)
def test_parse_format_round_trip(basket):
    assert Basket.parse(basket.text()) == basket


@given(weighted)
def test_volume_identity(wb):
    assert wb.volume() + sigma_prime(wb.basket) == 2 * wb.p1 + wb.basket.sigma() - 6


@given(weighted, st.integers(min_value=1, max_value=60))
def test_two_rr_forms_agree(wb, m):
    assert wb.anti_plurigenus(m) == wb.plurigenera(m)[m]


@given(baskets)
def test_delta_two_vanishes(basket):
    assert basket.delta(2) == 0


@given(baskets, st.integers(min_value=0, max_value=2))
@settings(max_examples=60)
def test_unpack_is_a_fixed_point_above_rmax(basket, extra):
    level = max(basket.r_max() + extra, 5)
    assert unpack(basket, level) == basket


@given(weighted)
@settings(max_examples=60)
def test_one_step_packings_respect_the_order(wb):
    basket = wb.basket
    seq = wb.plurigenera(20)
    for packed in general_packings(basket):
        wp = WeightedBasket(packed, wb.p1)
        assert packed.sigma() == basket.sigma()
        assert sigma_prime(packed) <= sigma_prime(basket)
        assert wp.volume() >= wb.volume()
        assert packed.gamma() <= basket.gamma()
        pseq = wp.plurigenera(20)
        assert all(pseq[m] >= seq[m] for m in range(2, 21))


@given(st.integers(min_value=2, max_value=24), st.data())
def test_single_point_period_property(r, data):
    b = data.draw(
        st.sampled_from([x for x in range(1, r // 2 + 1) if gcd(x, r) == 1])
    )
    basket = Basket([(b, r)])
    n = data.draw(st.integers(min_value=0, max_value=2 * r))
    assert basket.l_neg(n + r) - basket.l_neg(n) == Fraction(r * r - 1, 12)


@given(st.text(max_size=30))
@settings(max_examples=300)
def test_parser_never_crashes_on_garbage(text):
    from fanobasket.basket import BasketParseError

    try:
        basket = Basket.parse(text)
    except (BasketParseError, ValueError):
        return
    assert Basket.parse(basket.text()) == basket
