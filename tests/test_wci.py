"""Hilbert-series oracle and basket fitting."""

from fractions import Fraction

import pytest

from fanobasket.basket import PlurigenusSequence
from fanobasket.recovery import BUDGET, cost, recover, stage0_head
from fanobasket.search import ConstraintSet, _heads, candidates
from fanobasket.wci import (
    X19,
    X24_30,
    X42,
    X66,
    X6D_PAIRS,
    WeightedCI,
    anti_plurigenera_from_hilbert,
    fit_basket,
    hilbert_coeffs,
    x6d_member,
)
from oracles import monomial_count_oracle

F = Fraction


def test_hilbert_coeffs_examples():
    assert hilbert_coeffs(X42, 1)[1] == 2
    assert hilbert_coeffs(X24_30, 8)[8] == 2
    assert hilbert_coeffs(X66, 0)[0] == 1


def test_hilbert_coeffs_against_monomial_counts():
    for wci in [
        WeightedCI((1, 2, 3), (4,)),
        WeightedCI((1, 1, 4, 6), (12,)),
        WeightedCI((1, 2, 3, 5), (6, 4)),
        WeightedCI((2, 3, 7), ()),
    ]:
        assert hilbert_coeffs(wci, 30) == monomial_count_oracle(wci, 30)


def test_anti_plurigenera_examples():
    p66 = anti_plurigenera_from_hilbert(X66, 6)
    assert p66[1] == 1 and p66[5] == 2
    p85 = anti_plurigenera_from_hilbert(X24_30, 9)
    assert p85[8] == 2 and p85[9] == 3
    assert anti_plurigenera_from_hilbert(X42, 1)[1] == 2
    with pytest.raises(ValueError):
        anti_plurigenera_from_hilbert(WeightedCI((1, 1), (4,)), 3)


def test_fano_index_and_volume_formula():
    assert X66.fano_index == 1 and X66.hypersurface_volume() == F(1, 330)
    assert X42.fano_index == 1 and X42.hypersurface_volume() == F(1, 42)
    assert X24_30.fano_index == 1 and X24_30.hypersurface_volume() == F(1, 180)
    assert X19.fano_index == 1


def test_fit_basket_named_families():
    cases = [
        (X66, F(1, 330), "(1,2),(1,3),(2,5),(2,11)"),
        (X42, F(1, 42), "(1,2),(1,3),(1,7)"),
        (X24_30, F(1, 180), "(1,2),(1,3),(1,4),(2,5),(1,9)"),
    ]
    for wci, vol, text in cases:
        p = anti_plurigenera_from_hilbert(wci, 40)
        fits = fit_basket(p)
        assert [w.basket.text() for w in fits] == [text]
        assert fits[0].volume() == vol == wci.hypersurface_volume()
        # the fit reproduces every provided coefficient, not just the head
        seq = fits[0].plurigenera(40)
        assert list(seq.values) == list(p.values)


X6D_FITS = {
    (1, 1): "(1,2)",
    (1, 2): "3x(1,2),(1,3)",
    (1, 3): "2x(1,3),(1,4)",
    (1, 4): "(1,2),(1,4),(1,5)",
    (2, 3): "3x(1,2),2x(1,3),(2,5)",
    (1, 5): "(2,5),(1,6)",
    (1, 6): "(1,2),(1,3),(1,7)",
    (2, 5): "3x(1,2),(1,5),(3,7)",
    (3, 4): "(1,2),2x(1,3),(1,4),(2,7)",
    (3, 5): "2x(1,3),(1,5),(3,8)",
    (4, 5): "(1,2),(1,4),(2,5),(2,9)",
    (5, 6): "(1,2),(1,3),(2,5),(2,11)",
}


def test_fit_basket_x6d_family():
    assert sorted(X6D_FITS) == sorted(X6D_PAIRS)
    for (a, b), text in X6D_FITS.items():
        wci = x6d_member(a, b)
        p = anti_plurigenera_from_hilbert(wci, 40)
        fits = fit_basket(p)
        assert [w.basket.text() for w in fits] == [text], (a, b)
        assert fits[0].volume() == wci.hypersurface_volume()


def test_fit_basket_recovers_only_budgeted_tails(monkeypatch):
    import fanobasket.recovery as recovery

    calls = []

    def counted(p, tail):
        calls.append(tail)
        return recover(p, tail)

    monkeypatch.setattr(recovery, "recover", counted)
    candidates.cache_clear()  # an earlier fit of X66 would be read from the pool
    fits = fit_basket(anti_plurigenera_from_hilbert(X66, 40))
    assert [w.basket.text() for w in fits] == ["(1,2),(1,3),(2,5),(2,11)"]
    # one call per tail that fits the budget, out of the 230,230 tail
    # multisets with sigma5 <= 6; fit_basket does not recover them again
    assert len(calls) == 21


def test_fits_that_share_p1_to_p8_share_one_pool():
    p = anti_plurigenera_from_hilbert(X42, 40)
    candidates.cache_clear()
    assert [w.basket.text() for w in fit_basket(p)] == ["(1,2),(1,3),(1,7)"]
    assert fit_basket(PlurigenusSequence(p.values[:12])) == fit_basket(p)
    # P_-9 off by one: the same pool, and no basket in it fits
    assert fit_basket(PlurigenusSequence((*p.values[:8], p[9] + 1, *p.values[9:]))) == []
    info = candidates.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_the_24_budget_bounds_every_candidate_pool_at_152():
    # every budgeted stage-0 triple (n_{1,2}, n_{1,3}, n_{1,4}) at sigma5 = 0
    triples = {(a, b, c) for a in range(BUDGET // cost(2) + 1)
               for b in range(BUDGET // cost(3) + 1) for c in range(BUDGET // cost(4) + 1)
               if a * cost(2) + b * cost(3) + c * cost(4) <= BUDGET}
    sizes = {}
    for p1 in range(5):
        heads = list(_heads(ConstraintSet(p_exact={1: p1}, fano_strict=False)))
        assert {stage0_head(head, 0) for head in heads} <= triples, p1
        sizes[p1] = {stage0_head(head, 0): len(candidates(head, False)) for head in heads}
    # P_-2..P_-4 of a triple rise with P_-1, so from P_-1 = 3 on none is
    # negative and the heads are every budgeted triple
    assert len(sizes[3]) == len(triples) == 243
    assert list(sizes[4].items()) == list(sizes[3].items())
    assert (max(sizes[3].values()), sum(sizes[3].values())) == (152, 8338)
    # whatever P_-1, a head's pool is as large as its triple's at P_-1 = 3
    for p1 in range(3):
        assert all(size == sizes[3][triple] for triple, size in sizes[p1].items()), p1
    # a fit's candidates lie in the pool of the fixture's own head
    for wci in (X66, X42, X24_30, X19, *(x6d_member(a, b) for a, b in X6D_PAIRS)):
        p = anti_plurigenera_from_hilbert(wci, 40)
        head = PlurigenusSequence(p.values[:4])
        assert set(candidates(p, False)) <= set(candidates(head, False))


def test_fit_basket_rejects_flat_zero_sequence():
    flat = PlurigenusSequence((0,) * 12)
    assert all(w.volume() <= 0 for w in fit_basket(flat))


def test_x6d_family_shape():
    assert len(X6D_PAIRS) == len(set(X6D_PAIRS)) == 12
    assert (1, 6) in X6D_PAIRS and (5, 6) in X6D_PAIRS  # the two cited members
    for a, b in X6D_PAIRS:
        wci = x6d_member(a, b)
        d = a + b
        assert wci.weights == (1, a, b, 2 * d, 3 * d)
        assert wci.fano_index == 1
        assert wci.hypersurface_volume() == F(1, a * b * d)
        # P_{-a} >= 2: the degree-a pencil the thresholds are built on
        assert anti_plurigenera_from_hilbert(wci, a)[a] >= 2


def test_x6d_named_members_match_fixtures():
    assert x6d_member(1, 6).weights == X42.weights
    assert x6d_member(5, 6).weights == X66.weights


def test_fit_x19_realizes_gorenstein_index_420():
    # the largest index known to occur: 420, against the brute-force cap 840
    p = anti_plurigenera_from_hilbert(X19, 40)
    fits = fit_basket(p)
    assert [w.basket.text() for w in fits] == ["(1,3),(1,4),(2,5),(2,7)"]
    assert fits[0].gorenstein_index() == 420
    assert fits[0].volume() == X19.hypersurface_volume() == F(19, 420)
