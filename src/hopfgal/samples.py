"""Built-in structure-constant presentations used by the corpus and tests.

Everything here is pre-expanded data: group algebras, their function-algebra
duals, Sweedler's four-dimensional Hopf algebra, and the braided line
k[x]/(x^n) in the Z_n-graded category.
"""

from __future__ import annotations

import itertools

from .bundle import (AlgebraBundle, CoalgebraBundle, ComoduleAlgebra,
                     ModuleCoalgebra)
from .fields import QQ
from .hopf import Algebra, Coalgebra, HopfAlgebra, unit_algebra
from .morphism import Morphism
from .spaces import GradedSpace, GradingGroup, unit_space


def trivial_hopf(field):
    """The monoidal unit as a Hopf algebra (H = 1)."""
    k = unit_algebra(GradingGroup.trivial(field))
    return HopfAlgebra(k, k.dualize(), k.unit)


def group_algebra(field, elements, op, inv):
    """k[G], trivially graded, for a finite group given by its
    multiplication and inverse."""
    group = GradingGroup.trivial(field)
    n = len(elements)
    index = {g: i for i, g in enumerate(elements)}
    H = GradedSpace(group, (0,) * n)
    mult = Morphism(H.tensor(H), H, {
        (index[op(a, b)], i * n + j): 1
        for i, a in enumerate(elements) for j, b in enumerate(elements)})
    ident = elements[0]
    for g in elements:
        if all(op(g, h) == h for h in elements):
            ident = g
            break
    unit = Morphism(unit_space(group), H, {(index[ident], 0): 1})
    comult = Morphism(H, H.tensor(H), {(i * n + i, i): 1 for i in range(n)})
    counit = Morphism(H, unit_space(group), {(0, i): 1 for i in range(n)})
    antipode = Morphism(H, H, {(index[inv(g)], i): 1 for i, g in enumerate(elements)})
    return HopfAlgebra(Algebra(H, mult, unit), Coalgebra(H, comult, counit), antipode)


def cyclic_group_algebra(field, n):
    """k[Z_n], trivially graded."""
    return group_algebra(field, list(range(n)),
                         lambda a, b: (a + b) % n, lambda a: (-a) % n)


def s3_group_algebra(field):
    """k[S_3], elements as permutation tuples of (0,1,2)."""
    elements = sorted(itertools.permutations(range(3)))
    op = lambda a, b: tuple(a[b[i]] for i in range(3))
    def inv(a):
        out = [0, 0, 0]
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)
    return group_algebra(field, elements, op, inv)


def function_hopf(field, elements, op, inv):
    """Fun(G) = k[G]*, on the basis of point indicators delta_g: pointwise
    product, Delta(delta_g) = sum over ab = g of delta_a (x) delta_b."""
    return group_algebra(field, elements, op, inv).dualize()


def fun_z2(field):
    return function_hopf(field, [0, 1], lambda a, b: (a + b) % 2, lambda a: a)


def sweedler_hopf(field):
    """Sweedler's H4: g^2 = 1, x^2 = 0, xg = -gx; basis (1, g, x, gx)."""
    group = GradingGroup.trivial(field)
    H = GradedSpace(group, (0,) * 4)
    # multiplication table on basis indices: row a, col b -> (index, sign)
    table = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): None, (2, 3): None,
        (3, 0): (3, 1), (3, 1): (2, -1), (3, 2): None, (3, 3): None,
    }
    mult_entries = {}
    for (a, b), val in table.items():
        if val is None:
            continue
        idx, sign = val
        mult_entries[(idx, a * 4 + b)] = field.reduce(sign)
    mult = Morphism(H.tensor(H), H, mult_entries)
    unit = Morphism(unit_space(group), H, {(0, 0): 1})
    # Delta: 1->1x1, g->gxg, x->x(x)1 + g(x)x, gx->gx(x)g + 1(x)gx
    cm = {}
    cm[(0 * 4 + 0, 0)] = 1
    cm[(1 * 4 + 1, 1)] = 1
    cm[(2 * 4 + 0, 2)] = 1
    cm[(1 * 4 + 2, 2)] = 1
    cm[(3 * 4 + 1, 3)] = 1
    cm[(0 * 4 + 3, 3)] = 1
    comult = Morphism(H, H.tensor(H), cm)
    counit = Morphism(H, unit_space(group), {(0, 0): 1, (0, 1): 1})
    # S: 1->1, g->g, x->-gx, gx->x
    antipode = Morphism(H, H, {(0, 0): 1, (1, 1): 1,
                               (3, 2): -1, (2, 3): 1})
    return HopfAlgebra(Algebra(H, mult, unit), Coalgebra(H, comult, counit), antipode)


def _q_binomials(q, n):
    """Gaussian binomials [k choose j]_q for 0 <= j <= k < n."""
    rows = [[1]]
    for k in range(1, n):
        prev = rows[-1]
        row = [1]
        for j in range(1, k):
            row.append(prev[j - 1] + (q ** j) * prev[j])
        row.append(1)
        rows.append(row)
    return rows


def braided_line(field, n, q):
    """k[x]/(x^n) with deg x^k = k and braiding chi(a,b) = q^(ab).

    A Hopf algebra in the Z_n-graded braided category whenever q is a
    primitive n-th root of unity; Delta(x) = x(x)1 + 1(x)x.
    """
    group = GradingGroup.cyclic(n, field, q)
    H = GradedSpace(group, tuple(range(n)))
    mult = Morphism(H.tensor(H), H, {
        (a + b, a * n + b): 1
        for a in range(n) for b in range(n) if a + b < n})
    unit = Morphism(unit_space(group), H, {(0, 0): 1})
    binom = _q_binomials(q, n)
    cm = {}
    for k in range(n):
        for j in range(k + 1):
            cm[(j * n + (k - j), k)] = binom[k][j]
    comult = Morphism(H, H.tensor(H), cm)
    counit = Morphism(H, unit_space(group), {(0, 0): 1})
    sp = {}
    for k in range(n):
        # S(x^k) = (-1)^k q^(k(k-1)/2) x^k
        sp[(k, k)] = (-1) ** k * q ** (k * (k - 1) // 2)
    antipode = Morphism(H, H, sp)
    return HopfAlgebra(Algebra(H, mult, unit), Coalgebra(H, comult, counit), antipode)


def superline(field=QQ):
    """The exterior algebra on one odd generator: braided_line at n=2, q=-1."""
    return braided_line(field, 2, -1)


# -- bundle fixtures ---------------------------------------------------------

def trivial_algebra_bundle(h):
    """P = H coacting on itself by its comultiplication, base = the unit."""
    como = ComoduleAlgebra(h.algebra, h, h.comult)
    return AlgebraBundle(como, unit_algebra(h.space.group), h.unit)


def trivial_coalgebra_bundle(h):
    """P = H acting on itself by its multiplication, base = the unit."""
    modc = ModuleCoalgebra(h.coalgebra, h, h.mult)
    return CoalgebraBundle(modc, unit_algebra(h.space.group).dualize(),
                           h.counit)


def set_action_bundle(field, xelems, gelems, op, inv, act):
    """P = Fun(X) with the coaction dual to a right action of G on X.

    The base is Fun(X/G) with the orbit-indicator inclusion, which is
    exactly the coinvariant subalgebra.
    """
    H = function_hopf(field, gelems, op, inv)
    group = GradingGroup.trivial(field)
    nX, nG = len(xelems), len(gelems)
    xindex = {x: i for i, x in enumerate(xelems)}
    P = GradedSpace(group, (0,) * nX)
    mult = Morphism(P.tensor(P), P, {(i, i * nX + i): 1 for i in range(nX)})
    unit = Morphism(unit_space(group), P, {(i, 0): 1 for i in range(nX)})
    rho = Morphism(P, P.tensor(H.space), {
        (i * nG + j, xindex[act(x, g)]): 1
        for i, x in enumerate(xelems) for j, g in enumerate(gelems)})
    # orbits of the action, in first-occurrence order
    orbits = []
    seen = set()
    for x in xelems:
        if x in seen:
            continue
        orbit = sorted({act(x, g) for g in gelems} | {x}, key=xindex.get)
        orbits.append(orbit)
        seen.update(orbit)
    B = GradedSpace(group, (0,) * len(orbits))
    bmult = Morphism(B.tensor(B), B,
                     {(o, o * len(orbits) + o): 1 for o in range(len(orbits))})
    bunit = Morphism(unit_space(group), B,
                     {(o, 0): 1 for o in range(len(orbits))})
    pi = Morphism(B, P, {(xindex[x], o): 1
                         for o, orbit in enumerate(orbits) for x in orbit})
    como = ComoduleAlgebra(Algebra(P, mult, unit), H, rho)
    return AlgebraBundle(como, Algebra(B, bmult, bunit), pi)


def z2_set_action_bundle(field, xelems, act):
    """Z_2 = {0,1} acting on a finite set through Fun(Z_2)."""
    return set_action_bundle(field, xelems, [0, 1],
                             lambda a, b: (a + b) % 2, lambda a: a, act)


def free_z2_bundle(field):
    """The free swap action on a two-point set; a principal bundle."""
    return z2_set_action_bundle(field, [0, 1],
                                lambda x, g: (x + g) % 2)


def nonfree_z2_bundle(field):
    """The trivial action on a one-point set; can has corank 1."""
    return z2_set_action_bundle(field, [0], lambda x, g: x)


def setlike_coalgebra(field, n):
    """The coalgebra of a finite set: grouplike basis vectors."""
    group = GradingGroup.trivial(field)
    P = GradedSpace(group, (0,) * n)
    comult = Morphism(P, P.tensor(P), {(i * n + i, i): 1 for i in range(n)})
    counit = Morphism(P, unit_space(group), {(0, i): 1 for i in range(n)})
    return Coalgebra(P, comult, counit)


def pair_groupoid_bundle(field, n=2):
    """A finite set as a comonoid bundle over itself with H = 1.

    Its quantum category is the pair groupoid: morphisms P (x) P, one
    arrow between any two points.
    """
    h = trivial_hopf(field)
    coalg = setlike_coalgebra(field, n)
    ident = Morphism.identity(coalg.space)
    modc = ModuleCoalgebra(coalg, h, ident)
    return CoalgebraBundle(modc, coalg, ident)


def dual_numbers_algebra(field):
    """k[t]/(t^2) on the basis (1, t)."""
    group = GradingGroup.trivial(field)
    B = GradedSpace(group, (0, 0))
    mult = Morphism(B.tensor(B), B, {(0, 0): 1, (1, 1): 1, (1, 2): 1})
    unit = Morphism(unit_space(group), B, {(0, 0): 1})
    return Algebra(B, mult, unit)


def nonflat_bundle(field):
    """P = k over B = k[t]/(t^2) with t acting as zero; not faithfully flat."""
    h = trivial_hopf(field)
    base = dual_numbers_algebra(field)
    como = ComoduleAlgebra(unit_algebra(base.space.group), h,
                           Morphism.identity(h.space))
    pi = Morphism(base.space, como.space, {(0, 0): 1})
    return AlgebraBundle(como, base, pi)
