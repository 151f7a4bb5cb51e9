"""Independent oracles and random generators shared by the test modules.

The oracles deliberately avoid the code paths they check: the recursive
Cartan splitter peels one generator copy at a time instead of using closed
forms, the reference coproduct multiplies sets of monomial pairs with its
own ``Counter`` parity instead of packed ints and ``ambient.xor_all``, the
closed-form left dims of ``s_set`` are checked against the dims of the
pairs the packed coproduct kernel forms, the top-class support for the
braid family comes from subset sums, the structure constants are obtained
both by the ambient route (embed the basis, run the packed psi kernel and
eliminate, with no generator coproduct in closed form) and by multiplying
out a copy of the generator coproducts term by term with no elimination
step, both as sets of index pairs that a converter of their own packs into
the sorted ints of ``GradedCoalgebra.delta``, the dual Steenrod matrices
and generator images come from the ambient route alone (the packed ``_sqj``
of the embedded basis, eliminated, with no generator image in closed form),
isomorphisms are counted by enumerating every invertible per-degree map
and checking each one with ``Counter`` parity on index pairs and explicit
column images of the Sq_1^* matrices, with no library verifier,
coassociativity is checked one element and one split at a time, trivial
splits included, and the packed embedding and dual Steenrod operations are
checked against ``AmbientElement`` products and monomial objects.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Callable, Iterable, NamedTuple

from braidrat import gf2, operations
from braidrat.ambient import (
    ONE,
    ZERO,
    AmbientElement,
    AmbientMonomial,
    TensorElement,
    element,
    monomial,
    q_gen,
)
from braidrat.coalgebra import SpanError
from braidrat.families import Family, FamilyMonomial, _basis_by_dim, _embed, family_monomial
from braidrat.operations import _MASK, _psi, _sqj

# ---------------------------------------------------------------------------
# Recursive Cartan splitting, one generator copy at a time.

_UNIT = monomial()


def q_recursive_monomial(m: AmbientMonomial) -> AmbientElement:
    if m == _UNIT:
        return ZERO
    if m == monomial(1):
        return element(q_gen(1))
    if m == monomial(-1):
        return element(monomial(-4, {1: 1}))
    if m.g_exp == 0 and len(m.q_exps) == 1 and m.q_exps[0][1] == 1:
        return element(q_gen(m.q_exps[0][0] + 1))
    if m.g_exp > 0:
        x = monomial(1)
        rest = monomial(m.g_exp - 1, dict(m.q_exps))
    elif m.g_exp < 0:
        x = monomial(-1)
        rest = monomial(m.g_exp + 1, dict(m.q_exps))
    else:
        i, e = m.q_exps[0]
        x = q_gen(i)
        exps = dict(m.q_exps)
        exps[i] = e - 1
        rest = monomial(0, exps)
    return (
        element(x * x) * q_recursive_element(element(rest))
        + q_recursive_monomial(x) * element(rest * rest)
    )


def q_recursive_element(e: AmbientElement) -> AmbientElement:
    out = ZERO
    for m in e.terms:
        out = out + q_recursive_monomial(m)
    return out


# ---------------------------------------------------------------------------
# Object-level coproduct: per monomial, the product of monomial-pair set
# powers (square-and-multiply with ``fpairs_mul``), summed.


def reference_coproduct(e: AmbientElement) -> TensorElement:
    out: frozenset = frozenset()
    for m in e.terms:
        g_part = monomial(m.g_exp)
        psi = frozenset({(g_part, g_part)})
        for i, n in m.q_exps:
            twist = monomial(1 << i)
            base = frozenset({(twist, q_gen(i)), (q_gen(i), twist)})
            while n:
                if n & 1:
                    psi = fpairs_mul(psi, base)
                base = fpairs_mul(base, base)
                n >>= 1
        out = out ^ psi
    return TensorElement(out)


# ---------------------------------------------------------------------------
# The (left dim, right dim) of every pair of the packed psi kernel: the
# oracle for the closed-form left dims.  The dim is field 0 of a half.


def coproduct_dims(e: AmbientElement) -> set[tuple[int, int]]:
    pairs = _parity(x for m in e.terms for x in operations._psi_half(operations._pack(m)))
    return {(u & _MASK, v & _MASK) for u, v in pairs}


# ---------------------------------------------------------------------------
# Object-level dual Steenrod operations: Sq_1^* trades one odd power of
# Q^i g, i >= 2, for two more Q^{i-1} g, and j >= 2 peels one polynomial
# generator at a time by the dual Cartan rule, with monomial objects and no
# memo.


def _reference_sq1_monomial(m: AmbientMonomial) -> AmbientElement:
    out = ZERO
    for i, e in m.q_exps:
        if i >= 2 and e & 1:
            exps = dict(m.q_exps)
            exps[i] = e - 1
            exps[i - 1] = exps.get(i - 1, 0) + 2
            out = out + element(monomial(m.g_exp, exps))
    return out


def _reference_sqj_monomial(m: AmbientMonomial, j: int) -> AmbientElement:
    if m.dim < j:
        return ZERO
    if j == 1:
        return _reference_sq1_monomial(m)
    i, e = m.q_exps[0]
    exps = dict(m.q_exps)
    exps[i] = e - 1
    rest = monomial(m.g_exp, exps)
    out = element(q_gen(i)) * _reference_sqj_monomial(rest, j)
    if i >= 2:
        out = out + element(monomial(0, {i - 1: 2})) * _reference_sqj_monomial(rest, j - 1)
    return out


def reference_sqj(e: AmbientElement, j: int) -> AmbientElement:
    out = ZERO
    for m in e.terms:
        out = out + _reference_sqj_monomial(m, j)
    return out


# ---------------------------------------------------------------------------
# Object-level family embedding: generators through the recursive Cartan
# splitter, multiplied out as ``AmbientElement`` powers and products.


def _reference_generator(family: Family, idx: int) -> AmbientElement:
    if family is Family.BRAID:
        return element(monomial(1) if idx == 0 else q_gen(idx))
    if family is Family.RAT and idx == -1:
        return element(monomial(1))
    gen = element(monomial(-1 if family is Family.RAT else -2, {1: 1}))
    for _ in range(idx):
        gen = q_recursive_element(gen)
    return gen


def reference_embed(fm: FamilyMonomial) -> AmbientElement:
    out = ONE
    for idx, e in fm.exps:
        out = out * _reference_generator(fm.family, idx) ** e
    return out


# ---------------------------------------------------------------------------
# Closed-form support of the braid top class: subset sums of generator dims.


def braid_top_support(k: int) -> frozenset[int]:
    dims = [(2 << j) - 1 for j in range(k.bit_length()) if (k >> j) & 1]
    sums = {0}
    for d in dims:
        sums |= {s + d for s in sums}
    return frozenset(sums)


# ---------------------------------------------------------------------------
# Family-level brute-force structure constants (no elimination).

FPair = tuple[FamilyMonomial, FamilyMonomial]


def _parity(items) -> frozenset:
    counts: Counter = Counter(items)
    return frozenset(x for x, c in counts.items() if c & 1)


def fpairs_mul(a: frozenset, b: frozenset) -> frozenset:
    return _parity((l1 * l2, r1 * r2) for l1, r1 in a for l2, r2 in b)


def fpairs_pow(a: frozenset, n: int) -> frozenset:
    unit = FamilyMonomial(next(iter(a))[0].family, ())
    out = frozenset({(unit, unit)})
    for _ in range(n):
        out = fpairs_mul(out, a)
    return out


def q_polynomial(i: int) -> frozenset[FamilyMonomial]:
    """The i-th ambient polynomial generator written in the rat family:
    Qg = g rho_0, and Q^{m+1}g = g^{2^m} rho_m + rho_0^{2^m} Q^m g for m >= 1."""
    if i == 0:
        return frozenset({FamilyMonomial(Family.RAT, ((-1, 1),))})
    poly = frozenset({FamilyMonomial(Family.RAT, ((-1, 1), (0, 1)))})
    for m in range(1, i):
        gpow = FamilyMonomial(Family.RAT, ((-1, 1 << m),))
        rho_m = FamilyMonomial(Family.RAT, ((m, 1),))
        rho0_pow = FamilyMonomial(Family.RAT, ((0, 1 << m),))
        poly = frozenset({rho0_pow * p for p in poly}) ^ frozenset({gpow * rho_m})
    return poly


def family_generator_coproduct(family: Family, idx: int) -> frozenset:
    unit = FamilyMonomial(family, ())
    gen = FamilyMonomial(family, ((idx, 1),))
    if family is Family.CONF:
        return frozenset({(unit, gen), (gen, unit)})
    if family is Family.BRAID:
        if idx == 0:
            return frozenset({(gen, gen)})
        gpow = FamilyMonomial(family, ((0, 1 << idx),))
        return frozenset({(gpow, gen), (gen, gpow)})
    if idx == -1:
        return frozenset({(gen, gen)})
    gpow = FamilyMonomial(family, ((-1, 1 << idx),))
    out = {(gpow, gen), (gen, gpow)}
    if idx == 0:
        return frozenset(out)
    rho0_pow = FamilyMonomial(family, ((0, 1 << idx),))
    for p in q_polynomial(idx):
        out.add((p, rho0_pow))
        out.add((rho0_pow, p))
    return frozenset(out)


def brute_force_delta(family: Family, k: int):
    """Structure constants as sets of index pairs (i, j), keyed like
    GradedCoalgebra.delta (see ``packed_delta``), computed by direct
    family-level tensor expansion."""
    by_dim = _basis_by_dim(family, k)
    index = {fm: i for row in by_dim for i, fm in enumerate(row)}
    unit = FamilyMonomial(family, ())
    delta: dict[tuple[int, int], tuple[frozenset, ...]] = {}
    per_degree: dict[int, list[dict[int, set]]] = {}
    for d, row in enumerate(by_dim):
        per_degree[d] = []
        for fm in row:
            pairs = frozenset({(unit, unit)})
            for idx, e in fm.exps:
                pairs = fpairs_mul(pairs, fpairs_pow(family_generator_coproduct(family, idx), e))
            buckets: dict[int, set] = {}
            for left, right in pairs:
                buckets.setdefault(left.dim, set()).add((index[left], index[right]))
            per_degree[d].append(buckets)
    for d, row in enumerate(by_dim):
        for s in range(d + 1):
            delta[(d, s)] = tuple(
                frozenset(per_degree[d][a].get(s, set())) for a in range(len(row))
            )
    return delta


# ---------------------------------------------------------------------------
# The ambient route: embed a component's basis and eliminate once per degree.


def _coordinates(vectors, what: str) -> Callable[[Iterable[int]], int]:
    """Coordinate map onto ``vectors`` (sets of packed halves), from one
    elimination.

    Raises ``SpanError`` if the vectors are dependent.  ``coords(terms)``,
    for distinct terms, is the bit mask over ``vectors`` summing to
    ``terms``; it raises ``SpanError`` when ``terms`` leaves their span.
    """
    index: dict = {}
    rows = []
    for terms in vectors:
        row = 0
        for t in terms:
            row |= 1 << index.setdefault(t, len(index))
        rows.append(row)
    solve, null = gf2.solver(rows)
    if null:
        raise SpanError(f"the embedded {what} basis is linearly dependent")

    def coords(terms) -> int:
        try:
            combo = solve(sum([1 << index[t] for t in terms]))
        except KeyError:  # a term no basis element has
            combo = None
        if combo is None:
            raise SpanError(f"a class leaves the span of the embedded {what} basis")
        return combo

    return coords


class Component(NamedTuple):
    """One weight-graded component embedded in the ambient algebra: the basis
    by degree, the packed embedding of each basis element, and per degree
    the coordinate map onto the embedded basis."""

    by_dim: list[list[FamilyMonomial]]
    embeds: list[list[frozenset[int]]]
    coords: list[Callable[[Iterable[int]], int]]


def build_component(family: Family, k: int) -> Component:
    """Enumerate, embed and eliminate the weight-k component of ``family``;
    a dependent embedded basis raises ``SpanError``."""
    by_dim = _basis_by_dim(family, k)
    embeds = [[_embed(fm) for fm in row] for row in by_dim]
    coords = [_coordinates(row, f"degree-{d}") for d, row in enumerate(embeds)]
    return Component(by_dim, embeds, coords)


def _bits(vec: int) -> list[int]:
    return [i for i in range(vec.bit_length()) if vec >> i & 1]


def ambient_steenrod(family: Family, k: int, j: int = 1) -> dict[int, tuple[int, ...]]:
    """Matrices shaped like ``steenrod_matrix``, by the ambient route: the
    packed ``_sqj`` of each embedded basis element, solved onto the embedded
    basis of the degree j below."""
    c = build_component(family, k)
    dims = [len(row) for row in c.by_dim]
    out: dict[int, tuple[int, ...]] = {}
    for d in range(1, len(dims)):
        if not dims[d]:
            continue
        below = d - j
        to_basis = c.coords[below] if below >= 0 else _coordinates([], f"degree-{below}")
        matrix = [0] * (dims[below] if below >= 0 else 0)
        for col, e in enumerate(c.embeds[d]):
            for t_idx in _bits(to_basis(_sqj(e, j))):
                matrix[t_idx] |= 1 << col
        out[d] = tuple(matrix)
    return out


def ambient_generator_steenrod(family: Family, idx: int, j: int = 1) -> frozenset:
    """Sq_j^* of one generator as family monomials, by the ambient route in
    the component of the generator's weight."""
    gen = family_monomial(family, {idx: 1})
    c = build_component(family, gen.weight)
    d = gen.dim
    if d < j:
        return frozenset()
    image = c.coords[d - j](_sqj(c.embeds[d][c.by_dim[d].index(gen)], j))
    return frozenset(c.by_dim[d - j][i] for i in _bits(image))


# ---------------------------------------------------------------------------
# Ambient structure constants: run the packed psi kernel on the embedded
# basis and eliminate, with no generator coproduct in closed form.  The
# split-s part T of the coproduct of a degree-d element is sum C_ij e_i (x)
# f_j over the degree s and d-s bases.  Grouped by right factor v, T's left factors solve
# to y_v[i] = sum_j C_ij f_j[v]; the v with bit i set in y_v solve to row i
# of C.  Either solve raises ``SpanError`` exactly when T leaves
# span(e (x) f), and a pair whose dims do not add up to d raises
# ``ValueError``.


def _ambient_row(c: Component, d: int, e: frozenset) -> list[frozenset]:
    """Per split s = 0..d, the index pairs of the coproduct of the embedded
    degree-d element ``e`` of the built component ``c``."""
    parts: dict[int, dict] = {}  # left dim -> right half -> left halves
    for u, v in _psi(e):
        s, t = u & _MASK, v & _MASK
        if s + t != d:
            raise ValueError(
                f"coproduct pair of dimensions ({s}, {t}) has total {s + t}, expected {d}"
            )
        parts.setdefault(s, {}).setdefault(v, []).append(u)
    row = []
    for s in range(d + 1):
        by_left: dict[int, list] = {}
        for v, us in parts.get(s, {}).items():
            for i in _bits(c.coords[s](us)):
                by_left.setdefault(i, []).append(v)
        row.append(frozenset(
            (i, j) for i, vs in by_left.items() for j in _bits(c.coords[d - s](vs))
        ))
    return row


def ambient_delta(family: Family, k: int):
    """Structure constants as sets of index pairs (i, j), keyed like
    GradedCoalgebra.delta (see ``packed_delta``), by the ambient route."""
    c = build_component(family, k)
    rows = [[_ambient_row(c, d, e) for e in embeds] for d, embeds in enumerate(c.embeds)]
    return {
        (d, s): tuple(row[s] for row in rows[d])
        for d in range(len(rows)) for s in range(d + 1)
    }


def ambient_generator_coproduct(family: Family, idx: int) -> frozenset:
    """The coproduct of one generator as pairs of family monomials, by the
    ambient route in the component of the generator's weight, which holds
    the generator and, unless the coproduct is wrong, every half of its
    pairs."""
    gen = family_monomial(family, {idx: 1})
    c = build_component(family, gen.weight)
    d = gen.dim
    row = _ambient_row(c, d, c.embeds[d][c.by_dim[d].index(gen)])
    return frozenset(
        (c.by_dim[s][i], c.by_dim[d - s][j]) for s, pairs in enumerate(row) for i, j in pairs
    )


# ---------------------------------------------------------------------------
# Per-element checks of structure constants as sets of index pairs (i, j).


def packed_delta(delta):
    """GradedCoalgebra.delta, ``[d][s][a]``, from structure constants given
    as sets of index pairs (i, j) keyed by (d, s): each set becomes the
    sorted tuple of i * n + j, with n the number of elements of the right
    degree d - s, read off ``delta``."""
    n = [len(delta[(d, 0)]) for d in range(1 + max(d for d, _ in delta))]
    return tuple(
        tuple(
            tuple(tuple(sorted(i * n[d - s] + j for i, j in pairs)) for pairs in delta[(d, s)])
            for s in range(d + 1)
        )
        for d in range(len(n))
    )


def rank_triples(delta) -> tuple[tuple[int, int, int], ...]:
    """(d, s, rank) for every split of ``GradedCoalgebra.delta``, in degree
    order: the F2 rank, by ``_rank``, of the split's rows, one bit per
    packed pair."""
    return tuple(
        (d, s, _rank([sum(1 << x for x in set(pairs)) for pairs in comps]))
        for d, row in enumerate(delta) for s, comps in enumerate(row)
    )


def counit_rows_hold(delta, dims) -> bool:
    """delta(d, 0)[a] = {(0, a)} and delta(d, d)[a] = {(a, 0)} everywhere."""
    return all(
        delta[(d, 0)][a] == {(0, a)} and delta[(d, d)][a] == {(a, 0)}
        for d in range(len(dims))
        for a in range(dims[d])
    )


def coassociative(delta, dims) -> bool:
    """(delta (x) 1) delta == (1 (x) delta) delta on every element, for every
    split (s, t) with s + t <= d, as parities of index triples."""
    for d in range(len(dims)):
        for a in range(dims[d]):
            for s in range(d + 1):
                for t in range(d - s + 1):
                    lhs = _parity(
                        (i, p, q)
                        for i, j in delta[(d, s)][a]
                        for p, q in delta[(d - s, t)][j]
                    )
                    rhs = _parity(
                        (p, q, c)
                        for m, c in delta[(d, s + t)][a]
                        for p, q in delta[(s + t, s)][m]
                    )
                    if lhs != rhs:
                        return False
    return True


# ---------------------------------------------------------------------------
# Brute-force isomorphism count: every tuple of per-degree invertible
# matrices, with no elimination, kernel or search.


def _rank(rows) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


def _gl_count(n: int) -> int:
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


def _column(rows, src: int) -> list[int]:
    """The rows with bit ``src`` set: column ``src`` of a bit-row matrix."""
    return [r for r, row in enumerate(rows) if row >> src & 1]


def intertwines(a, b, phi, steenrod=None) -> bool:
    """Whether the invertible per-degree maps ``phi`` (bit-row matrices over
    b's basis, one column per element of a's) carry a's coproduct to b's, as
    parities of index pairs split by split, and, given Sq_1^* matrices
    ``(sq_a, sq_b)`` in ``steenrod_matrix`` form, a's column images to b's."""
    dims = a.dims
    for d, n in enumerate(dims):
        for x in range(n):
            img = _column(phi[d], x)
            for s in range(d + 1):
                w = dims[d - s]
                lhs = _parity(divmod(y, w) for m in img for y in b.delta[d][s][m])
                rhs = _parity(
                    (p, q)
                    for i, j in (divmod(y, w) for y in a.delta[d][s][x])
                    for p in _column(phi[s], i)
                    for q in _column(phi[d - s], j)
                )
                if lhs != rhs:
                    return False
            if steenrod is not None and d:
                sq_a, sq_b = steenrod
                lhs = _parity(t for m in img for t in _column(sq_b[d], m))
                rhs = _parity(p for t in _column(sq_a[d], x) for p in _column(phi[d - 1], t))
                if lhs != rhs:
                    return False
    return True


def invertible_maps(dims):
    """Every tuple of invertible per-degree bit-row matrices of sizes ``dims``."""
    per_degree = [
        [m for m in itertools.product(range(1 << n), repeat=n) if _rank(m) == n]
        for n in dims
    ]
    return itertools.product(*per_degree)


def brute_force_isomorphism_count(a, b, steenrod=None, *, limit: int = 3000):
    """Number of isomorphisms a -> b (intertwining the dual Steenrod action
    when ``steenrod`` is given), or None when more than ``limit`` invertible
    maps would have to be checked."""
    dims = a.dims
    if dims != b.dims or math.prod(_gl_count(n) for n in dims) > limit:
        return None
    return sum(1 for phi in invertible_maps(dims) if intertwines(a, b, phi, steenrod))


# ---------------------------------------------------------------------------
# Seeded random inputs of bounded size.


def random_monomial(rng: random.Random, *, max_g: int = 4, max_idx: int = 4,
                    max_factors: int = 2, max_exp: int = 3) -> AmbientMonomial:
    q = {}
    for _ in range(rng.randint(0, max_factors)):
        q[rng.randint(1, max_idx)] = rng.randint(1, max_exp)
    return monomial(rng.randint(-max_g, max_g), q)


def random_element(rng: random.Random, *, max_terms: int = 3, **kw) -> AmbientElement:
    out = ZERO
    for _ in range(rng.randint(0, max_terms)):
        out = out + element(random_monomial(rng, **kw))
    return out


def random_family_monomial(
    rng: random.Random, families: tuple[Family, ...] = (Family.BRAID, Family.RAT)
) -> FamilyMonomial:
    family = rng.choice(families)
    low = -1 if family is Family.RAT else 0
    exps = {}
    for _ in range(rng.randint(1, 3)):
        exps[rng.randint(low, 3)] = rng.randint(1, 2)
    return family_monomial(family, exps)
