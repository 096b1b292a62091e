import gc
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal.fields import QQ, FieldError, PrimeField
from hopfgal.spaces import MAX_CHI_ORDER, GradedSpace, GradingGroup, unit_space
from test_morphism import GROUPS


def test_trivial_group():
    g = GradingGroup.trivial(QQ)
    assert g.is_trivial
    assert g.chi(0, 0) == Fraction(1)


def test_cyclic_group_bicharacter():
    g = GradingGroup.cyclic(2, QQ, Fraction(-1))
    assert g.chi(1, 1) == Fraction(-1)
    assert g.chi(1, 0) == Fraction(1)
    # bicharacter is multiplicative in each slot
    g3 = GradingGroup.cyclic(3, PrimeField(7), PrimeField(7).from_int(2))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert g3.chi((a + b) % 3, c) == \
                    g3.field.reduce(g3.chi(a, c) * g3.chi(b, c))


def test_cyclic_group_bad_generator():
    with pytest.raises(Exception):
        GradingGroup.cyclic(3, QQ, Fraction(2))  # 2^3 != 1 in Q


def test_tensor_and_dual():
    g = GradingGroup.cyclic(2, QQ, Fraction(-1))
    V = GradedSpace(g, (0, 1))
    W = GradedSpace(g, (1,))
    VW = V.tensor(W)
    assert VW.degrees == (1, 0)
    assert V.dual().degrees == (0, 1)
    assert V.dual().dual() == V
    g3 = GradingGroup.cyclic(3, PrimeField(7), PrimeField(7).from_int(2))
    U = GradedSpace(g3, (0, 1, 2))
    assert U.dual().degrees == (0, 2, 1)
    assert U.tensor(GradedSpace(g3, (2,))).degrees == (2, 0, 1)
    T = GradedSpace(GradingGroup.trivial(QQ), (0, 0))
    assert T.dual() == T and T.tensor(T).degrees == (0,) * 4


def test_unit_strictness():
    g = GradingGroup.trivial(QQ)
    V = GradedSpace(g, (0, 0, 0))
    one = unit_space(g)
    assert V.tensor(one) == V
    assert one.tensor(V) == V
    assert one.is_unit
    assert GradedSpace(g, ()).dim == 0


def test_out_of_range_degrees_rejected():
    g = GradingGroup.cyclic(2, QQ, Fraction(-1))
    for degrees, bad in (((0, 2, 1), 2), ((1, -1), -1)):
        with pytest.raises(ValueError, match=r"^degree %d outside Z_2$" % bad):
            GradedSpace(g, degrees)
    t = GradingGroup.trivial(QQ)
    with pytest.raises(ValueError, match=r"^degree 1 outside Z_1$"):
        GradedSpace(t, (0, 1))
    assert GradedSpace(t, (0,)).tensor(GradedSpace(t, (0, 0))).degrees == (0, 0)


def test_large_cyclic_group_is_built_without_a_chi_table():
    tracemalloc.start()
    try:
        g = GradingGroup.cyclic(2000, QQ, Fraction(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g.is_trivial and g.chi(1999, 1999) == Fraction(1)


def test_large_order_non_root_is_rejected_without_keeping_its_powers():
    # the powers of 2 in Q grow; keeping all 2000 of them would take ~250 KiB
    tracemalloc.start()
    try:
        with pytest.raises(FieldError, match="not an 2000-th root of unity"):
            GradingGroup.cyclic(2000, QQ, Fraction(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_huge_order_is_checked_in_one_step_and_keeps_only_gens_powers():
    n = 2 ** 63
    assert GradingGroup.cyclic(n, QQ, 1).chi(n - 1, n - 1) == 1
    sign = GradingGroup.cyclic(n, QQ, -1)
    assert [sign.chi(a, 3) for a in (0, 1, n - 1)] == [1, -1, -1]
    with pytest.raises(FieldError, match="not an %d-th root" % (n + 1)):
        GradingGroup.cyclic(n + 1, QQ, -1)
    F101 = PrimeField(101)
    g = GradingGroup.cyclic(100 * n, F101, 2)  # 2 has order 100 mod 101
    assert g.chi(n + 3, 7) == pow(2, (n + 3) * 7, 101)
    assert g.chi(50, 2) == 1 and not g.is_trivial
    with pytest.raises(FieldError, match="not an %d-th root" % n):
        GradingGroup.cyclic(n, F101, 2)  # 100 does not divide 2^63


def test_generator_of_order_above_the_limit_is_rejected_at_the_limit():
    # 37 has order close to p in F_p^x: walking its powers never ended
    p = 2 ** 61 - 1
    F = PrimeField(p)
    tracemalloc.start()
    try:
        with pytest.raises(FieldError, match="^bicharacter generator 37 has"
                           " order above the limit %d$" % MAX_CHI_ORDER):
            GradingGroup.cyclic(p - 1, F, 37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * MAX_CHI_ORDER
    # a generator whose order is the limit keeps every power
    q = 786433  # 3 * 2^18 + 1, where 5^12 has order 2^16
    g = GradingGroup.cyclic(MAX_CHI_ORDER, PrimeField(q), pow(5, 12, q))
    assert g.chi(1, MAX_CHI_ORDER - 1) == pow(5, 12 * (MAX_CHI_ORDER - 1), q)


def test_chi_and_is_trivial_match_the_table_formula():
    F7 = PrimeField(7)
    for gen in range(1, 7):  # every unit of F_7 is a 6-th root of unity
        g = GradingGroup.cyclic(6, F7, F7.from_int(gen))
        table = [[pow(gen, (a * b) % 6, 7) for b in range(6)]
                 for a in range(6)]
        assert [[g.chi(a, b) for b in range(6)] for a in range(6)] == table
        assert g.chi(-1, 8) == table[5][2]
        assert g.is_trivial == all(x == 1 for row in table for x in row)


def test_trivially_graded_spaces_are_equal_by_dim():
    t = GradingGroup.trivial(QQ)
    V = GradedSpace(t, (0,) * 6)
    built = GradedSpace(t, (0, 0)).tensor(GradedSpace(t, (0, 0, 0)))
    assert built is not V and built == V and V == built
    assert hash(built) == hash(V)
    assert V != GradedSpace(t, (0,) * 5) and V != GradedSpace(t, ())
    # the same dim over another field's trivial grading is another space
    assert V != GradedSpace(GradingGroup.trivial(PrimeField(7)), (0,) * 6)
    assert V != (0,) * 6


def test_cyclic_graded_spaces_compare_their_degrees():
    g = GradingGroup.cyclic(3, PrimeField(7), PrimeField(7).from_int(2))
    V, W = GradedSpace(g, (0, 1, 2)), GradedSpace(g, (0, 2, 1))
    assert V != W and W != V
    same = GradedSpace(g, (0, 1)).tensor(GradedSpace(g, (0,)))
    assert same != V and same == GradedSpace(g, (0, 1))
    assert hash(same) == hash(GradedSpace(g, (0, 1)))
    # equal degrees under another bicharacter of Z_3 are another space
    other = GradingGroup.cyclic(3, PrimeField(7), PrimeField(7).from_int(4))
    assert V != GradedSpace(other, (0, 1, 2))


def _fresh_product(V, W):
    """V (x) W formed from its definition, with no memo involved."""
    n = V.group.n
    return GradedSpace(V.group, tuple((a + b) % n for a in V.degrees
                                      for b in W.degrees))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_products_are_memoised_without_keeping_either_space(data):
    group = data.draw(st.sampled_from(GROUPS))
    degrees = st.lists(st.integers(0, group.n - 1), max_size=4).map(tuple)
    # V is not empty, so V (x) W tells the degrees of W apart
    V = GradedSpace(group, data.draw(degrees.filter(bool)))
    W = GradedSpace(group, data.draw(degrees))
    other = data.draw(degrees.filter(lambda d: d != W.degrees))
    VW = V.tensor(W)
    fresh = _fresh_product(V, W)
    assert VW == fresh and VW.degrees == fresh.degrees
    assert hash(VW) == hash(fresh) and repr(VW) == repr(fresh)
    assert V.tensor(W) is VW
    gc.disable()
    try:
        # reference counting alone frees a product nobody uses
        VW_ref = weakref.ref(VW)
        del VW
        assert VW_ref() is None
        assert V.tensor(W).degrees == fresh.degrees
        # and a right factor, whose entry goes with it; a space that takes
        # its address (and so its id) gets its own product
        W_id, W_ref = id(W), weakref.ref(W)
        del W
        assert W_ref() is None and W_id not in V._products
        fresh_spaces = []
        for _ in range(64):
            fresh_spaces.append(GradedSpace(group, other))
            if id(fresh_spaces[-1]) == W_id:
                break
        for W2 in (fresh_spaces[0], fresh_spaces[-1]):
            VW2 = V.tensor(W2)
            assert VW2.degrees == _fresh_product(V, W2).degrees
            assert V.tensor(W2) is VW2
        # V (x) V keeps V alive through no reference
        VV = V.tensor(V)
        assert VV.degrees == _fresh_product(V, V).degrees
        assert V.tensor(V) is VV
        V_ref = weakref.ref(V)
        del V
        assert V_ref() is None
    finally:
        gc.enable()
