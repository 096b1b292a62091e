import tracemalloc
from fractions import Fraction

import pytest

from hopfgal.fields import QQ, PrimeField
from hopfgal.spaces import GradedSpace, GradingGroup, unit_space, zero_space


def test_trivial_group():
    g = GradingGroup.trivial(QQ)
    assert g.is_trivial
    assert g.chi(0, 0) == Fraction(1)
    assert g.add(0, 0) == 0 and g.neg(0) == 0


def test_cyclic_group_bicharacter():
    g = GradingGroup.cyclic(2, QQ, Fraction(-1))
    assert g.chi(1, 1) == Fraction(-1)
    assert g.chi(1, 0) == Fraction(1)
    assert g.add(1, 1) == 0 and g.neg(1) == 1
    # bicharacter is multiplicative in each slot
    g3 = GradingGroup.cyclic(3, PrimeField(7), PrimeField(7).from_int(2))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert g3.chi(g3.add(a, b), c) == g3.chi(a, c) * g3.chi(b, c)


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


def test_unit_strictness():
    g = GradingGroup.trivial(QQ)
    V = GradedSpace(g, (0, 0, 0))
    one = unit_space(g)
    assert V.tensor(one) == V
    assert one.tensor(V) == V
    assert one.is_unit
    assert zero_space(g).dim == 0


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


def test_chi_and_is_trivial_match_the_table_formula():
    F7 = PrimeField(7)
    for gen in range(1, 7):  # every unit of F_7 is a 6-th root of unity
        g = GradingGroup.cyclic(6, F7, F7.from_int(gen))
        table = [[F7.from_int(gen) ** ((a * b) % 6) for b in range(6)]
                 for a in range(6)]
        assert [[g.chi(a, b) for b in range(6)] for a in range(6)] == table
        assert g.chi(-1, 8) == table[5][2]
        assert g.is_trivial == all(x == F7.one() for row in table for x in row)
