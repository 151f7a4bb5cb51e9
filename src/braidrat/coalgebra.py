"""Finite weight-graded coalgebras over F2 and their comparison machinery.

Extracts explicit structure constants for the weight-graded components of
the three generator families, computes isomorphism invariants and coproduct
support sets, decides coalgebra isomorphism by invariant comparison followed
by a complete degree-by-degree linear solve for a change of basis, and
packages the verification routines used by the CLI: the odd/even
multiplication-by-g comparison, the braid/configuration correspondence, and
the support-set comparison of top classes.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, repeat
from typing import Mapping, NamedTuple, Sequence

from . import gf2
from .ambient import xor_all
from .families import (
    Family,
    FamilyMonomial,
    _basis_by_dim,
    _embed,
    generator_coproduct,
    generator_steenrod,
    top_class,
)
from .operations import _MASK, _left_dims, _psi, _sq_half, _unpack

DEFAULT_ISO_BUDGET = 10**6


class SpanError(RuntimeError):
    """A computed class left the span of the family basis."""


def _columns(comps: Sequence[tuple[int, ...]], width: int) -> list[tuple[int, int, int]]:
    """Transpose one split's structure constants: (i, j, mask) for each
    distinct x = i * width + j in them, mask the elements a with x in
    ``comps[a]``."""
    cols: dict[int, int] = {}
    for a, pairs in enumerate(comps):
        bit = 1 << a
        for x in pairs:
            cols[x] = cols.get(x, 0) | bit
    return [(*divmod(x, width), mask) for x, mask in cols.items()]


def _level(x):
    """``x``, a level of ``GradedCoalgebra``'s input, if it is a sequence."""
    if type(x) is tuple or isinstance(x, Sequence):  # the ABC check is slow
        return x
    raise ValueError(f"dims and structure constants need sequences, got {type(x).__name__}")


class _Coalgebra(NamedTuple):
    dims: tuple[int, ...]
    delta: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]


class GradedCoalgebra(_Coalgebra):
    """A finite graded F2 coalgebra given by its dims and structure constants.

    ``delta[d][s][a]`` is a sorted tuple of distinct ints
    ``i * dims[d - s] + j``, one for each index pair (i, j) such that the
    (degree s, degree d-s) component of the coproduct of basis element ``a``
    of degree d contains b_i (x) b_j.  The constructor stores nested
    sequences (not mappings or sets) of this shape as tuples at every level,
    so no object the caller holds can change the coalgebra, and checks this
    form, connectedness (one class in degree 0), the counit rows
    (``__post_init__``) and coassociativity element by element, ``_replace``
    included, raising ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, dims, delta):
        self = cls._new(dims, delta)
        if not self._coassociative():
            raise ValueError("structure constants are not coassociative")
        return self

    @classmethod
    def _new(cls, dims, delta):
        """Every check of the constructor but the per-element coassociativity
        pass, for a family component whose generator coproducts
        ``_coproduct_rows`` has checked."""
        delta = tuple(tuple(tuple(map(tuple, map(_level, _level(split)))) for split in _level(row))
                      for row in _level(delta))
        self = super().__new__(cls, tuple(_level(dims)), delta)
        self.__post_init__()
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __post_init__(self) -> None:
        dims, delta = self.dims, self.delta
        if not all(map(isinstance, dims, repeat(int))) or dims[:1] != (1,):
            raise ValueError(f"needs connected coalgebras with int dims, dims[0] = 1; got {dims}")
        if len(delta) != len(dims) or any(len(row) != d + 1 for d, row in enumerate(delta)):
            raise ValueError("structure constants need the splits s = 0..d of each degree d")
        for d, row in enumerate(delta):
            for s, comps in enumerate(row):
                size = dims[s] * dims[d - s]
                # each entry must be ints that rise strictly from -1 to size:
                # sorted, distinct and in range
                ints = all(map(isinstance, chain(*comps), repeat(int)))
                if not ints or len(comps) != dims[d] or not all(
                    x < y for pairs in comps for x, y in zip((-1, *pairs), (*pairs, size))
                ):
                    raise ValueError(f"malformed structure constants at {(d, s)}")
            for a in range(dims[d]):
                if not row[0][a] == row[d][a] == (a,):
                    raise ValueError(f"counit row violated at degree {d}, element {a}")

    def _coassociative(self) -> bool:
        """Compare (delta (x) 1) delta with (1 (x) delta) delta for all
        elements of a degree at once: per split (s, t), each side maps every
        triple (x, y, z) of degrees (s, t, d - s - t), packed into one int
        key, to the mask of the elements whose image contains it, and the
        two sides agree when their XOR is zero at every key."""
        dims, delta = self.dims, self.delta
        # With the counit rows checked, the splits s = 0, t = 0 and s + t = d
        # hold for any structure constants: both sides are then
        # {(0, p, q) : (p, q) in delta[d][t][a]}, {(i, 0, j) : (i, j) in
        # delta[d][s][a]} and {(i, j, 0) : (i, j) in delta[d][s][a]}.
        for d in range(len(dims)):
            cols = [_columns(comps, dims[d - s]) for s, comps in enumerate(delta[d])]
            for s in range(1, d):
                for t in range(1, d - s):
                    width = dims[d - s - t]
                    diff: dict[int, int] = {}  # left side XOR right side
                    inner = delta[d - s][t]
                    for i, j, mask in cols[s]:
                        base = i * dims[t] * width
                        for off in inner[j]:
                            key = base + off
                            diff[key] = diff.get(key, 0) ^ mask
                    inner = delta[s + t][s]
                    for m, c, mask in cols[s + t]:
                        for off in inner[m]:
                            key = off * width + c
                            diff[key] = diff.get(key, 0) ^ mask
                    if any(diff.values()):
                        return False
        return True


def extract_coalgebra(family: Family, k: int) -> GradedCoalgebra:
    """Structure constants of the weight-graded component in the family basis
    (see ``component_coalgebra``).  Raises ``ValueError``, before any
    enumeration, if the predicted basis size is above ``BASIS_BOUND``."""
    return component_coalgebra(_basis_by_dim(family, k))


def _multiply_out(by_dim: Sequence[Sequence[FamilyMonomial]], image, arity: int, what: str):
    """Multiply out a ring map over a component given by its basis by degree,
    a whole component as ``families.basis`` enumerates it, one empty of
    classes included.  ``image(family, idx)`` is a generator's image as
    ``arity``-tuples of family monomials, ``arity`` 1 or 2.  Does its setup
    once and returns ``expand(fm)``: for a basis monomial fm, for each term
    of the product of the images of its generators, its place (degree,
    index) in ``by_dim``, or a pair of places when ``arity`` is 2.

    The setup checks the closed forms of psi and Sq_* of every generator the
    component holds (``_check_generator``, once per process for each), so
    before any product is formed, whichever of the two is multiplied out.

    An exponent vector is one int with a field of W bits per generator,
    W = k.bit_length() for the component's top weight k, and a tuple packs
    its n-th monomial at bit n * B, with B the width of all fields.  Powers
    are Frobenius shifts and products are ``xor_all`` of adds, as in
    ``families._embed``, whose loop this repeats rather than shares, since
    the ambient route through ``_embed`` is this route's test oracle.  Every
    field of a partial product is at most the sum, over its factors, of the
    largest field of their generator images; the sum is checked below 2^W
    before any product is formed, so no field carries into the next.  Each
    monomial is then looked up among the packed basis monomials, and one
    outside the basis raises ``SpanError``.
    """
    gens = sorted({idx for row in by_dim for fm in row for idx, _ in fm.exps})
    width = max((fm.weight for row in by_dim for fm in row), default=0).bit_length()
    slot = {idx: 1 << (width * p) for p, idx in enumerate(gens)}
    shift = width * len(gens)
    low = (1 << shift) - 1

    def pack(fm: FamilyMonomial) -> int:
        try:
            return sum(e * slot[idx] for idx, e in fm.exps)
        except KeyError:  # a generator no basis element holds
            raise SpanError(f"{fm} leaves the generators of the component") from None

    where = {pack(fm): (d, i) for d, row in enumerate(by_dim) for i, fm in enumerate(row)}
    packed, bound = {}, {}
    for idx in gens:
        family = by_dim[0][0].family
        _check_generator(family, idx)
        closed = image(family, idx)
        packed[idx] = [sum(pack(fm) << (shift * n) for n, fm in enumerate(t)) for t in closed]
        bound[idx] = max((e for t in closed for fm in t for _, e in fm.exps), default=0)

    def expand(fm: FamilyMonomial) -> list:
        if sum(bound[idx] * e for idx, e in fm.exps) >> width:
            raise ValueError(f"{what} of {fm} exceeds the packed field width {width}")
        acc = {0}
        for idx, e in fm.exps:
            for b in range(e.bit_length()):
                if e >> b & 1:
                    power = [x << b for x in packed[idx]]
                    # For a fixed a the sums a + x over distinct x are distinct.
                    acc = xor_all({a + x for x in power} for a in acc)
        try:
            return ([(where[x & low], where[x >> shift]) for x in acc] if arity == 2
                    else [where[x] for x in acc])
        except KeyError:
            raise SpanError(
                f"a term of the {what} of {fm} leaves the basis of the component"
            ) from None

    return expand


def _coproduct_rows(by_dim: Sequence[Sequence[FamilyMonomial]]):
    """``row(d)`` for a component given by its basis by degree: the
    structure constants ``delta[d]`` in the form of ``GradedCoalgebra``,
    multiplied out the first time degree d is asked for and kept.

    psi is a ring map, so each basis element's coproduct is the product of
    its generators' coproducts (``families.generator_coproduct``), multiplied
    out by ``_multiply_out`` on pairs; a pair whose dims do not add up to
    the element's raises ``ValueError``.  Its generator check makes the
    component, closed under psi since every half was found in its basis,
    counital and coassociative (``_check_generator``), so the per-element
    pass of the ``GradedCoalgebra`` constructor, nine times the cost of the
    extraction itself on rat:32, is not needed for it.
    """
    expand = _multiply_out(by_dim, generator_coproduct, 2, "coproduct")
    dims = [len(row) for row in by_dim]

    @lru_cache(maxsize=None)
    def row(d: int) -> tuple:
        splits: list[list] = [[] for _ in range(d + 1)]
        for fm in by_dim[d]:
            parts: list[list] = [[] for _ in range(d + 1)]
            for (s, i), (t, j) in expand(fm):
                if s + t != d:
                    raise ValueError(
                        f"coproduct pair of dimensions ({s}, {t}) has total {s + t}, expected {d}"
                    )
                parts[s].append(i * dims[t] + j)
            for s, xs in enumerate(parts):
                splits[s].append(tuple(sorted(xs)))
        return tuple(map(tuple, splits))

    return row


def component_coalgebra(by_dim: Sequence[Sequence[FamilyMonomial]]) -> GradedCoalgebra:
    """Structure constants of a component given by its basis by degree:
    every degree of ``_coproduct_rows``, whose generator checks run first."""
    row = _coproduct_rows(by_dim)
    return GradedCoalgebra._new([len(r) for r in by_dim], [row(d) for d in range(len(by_dim))])


@lru_cache(maxsize=None)
def _check_generator(family: Family, idx: int) -> None:
    """Raise ``ValueError``, naming the generator x and the operation,
    unless its closed forms agree with the ambient operations on its
    embedding E(x) (``_embed``, as packed halves):

    * psi: the XOR over the pairs (u, v) of ``generator_coproduct`` of the
      pairs {(a, b) : a in E(u), b in E(v)} is ``operations._psi`` of E(x);
    * Sq_*: E(x) + E(Sq_1^* x), with Sq_1^* x from ``generator_steenrod``,
      is the XOR of ``operations._sq_half`` over E(x), so Sq_j^* x is
      checked to vanish for j >= 2 as well.

    Why this is enough.  E is a ring map, injective on each family's ring:
    each monomial's image has a leading term of its own, the one with the
    highest Q^i g exponents (the ambient test oracle's elimination confirms
    this on every admitted component), so E (x) E is injective too.  psi
    and Sq_* are ring maps, and psi is coassociative and counital.  The
    closed forms define ring maps Delta and S on the family ring, the ones
    ``_multiply_out`` multiplies out, so equality on the generators gives
    (E (x) E) Delta = psi E and E S = Sq_* E on every monomial.  Hence
    Delta is coassociative and counital, and both closed forms are the
    right ones, not merely lawful.  The check trusts the packed kernels;
    ``tests/test_operations.py`` checks those against the recursive
    object-level oracles.
    """
    gen = FamilyMonomial(family, ((idx, 1),))
    halves = _embed(gen)
    pairs = xor_all({(a, b) for a in _embed(u) for b in _embed(v)}
                    for u, v in generator_coproduct(family, idx))
    if pairs != _psi(halves):
        raise ValueError(f"the closed-form coproduct of {gen} is not psi of its embedding")
    if xor_all(_embed(fm) for (fm,) in _total_steenrod(family, idx)) != xor_all(
        map(_sq_half, halves)
    ):
        raise ValueError(f"the closed-form Sq_* of {gen} is not Sq_* of its embedding")


def _set_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending: the places of the 1s in its binary
    digits, least significant first.  Unlike ``_bits`` it takes time linear
    in the width, not in the width times the number of set bits."""
    return [m.start() for m in re.finditer("1", bin(mask)[:1:-1])]


def s_set(fm: FamilyMonomial) -> frozenset[int]:
    """Left dimensions where the coproduct of the embedded class is nonzero.

    This is the union over the monomials m of ``embed(fm)`` of the left dims
    of psi(m) (``operations._left_dims`` of the packed halves), since no
    pair cancels: every pair (u, v) of psi(m) has u * v = m * g^weight(m),
    whose g exponent 2 g_exp + sum_i e_i 2^i fixes the g_exp of m, so pairs
    from distinct monomials differ, and within psi(m) distinct submask tuples
    give distinct pairs.

    Raises ``ValueError`` if a monomial's dimension is not ``fm.dim``, which
    signals a non-homogeneous embedding.
    """
    d = fm.dim
    mask = 0
    for h in _embed(fm):
        if h & _MASK != d:
            raise ValueError(
                f"embedded monomial {_unpack(h)} has dimension {h & _MASK}, expected {d}"
            )
        mask |= _left_dims(h)
    return frozenset(_set_bits(mask))


SteenrodPair = tuple[Mapping[int, Sequence[int]], Mapping[int, Sequence[int]]]


def _read_columns(rows: Sequence[int], n: int, m: int, what: str, use: str) -> list[list[int]]:
    """Read an n x m matrix given by its rows, bit c of ``rows[t]`` the
    entry in column c, by column: ``cols[c]`` lists the t with that bit set.
    The one check of a matrix row: raises ``ValueError`` unless ``rows`` is
    a sequence (not a mapping or set) of exactly n ints in 0..2^m - 1."""
    got = len(rows) if isinstance(rows, Sequence) else type(rows).__name__
    if got != n or not all(isinstance(row, int) and 0 <= row < 1 << m for row in rows):
        raise ValueError(f"{what} has {got} rows, expected {n} for {use},"
                         f" each an int in 0..2^{m} - 1")
    return [[t for t, row in enumerate(rows) if row >> c & 1] for c in range(m)]


def _sq1_columns(a: GradedCoalgebra, b: GradedCoalgebra, steenrod: SteenrodPair | None):
    """Read a Sq_1^* matrix pair, one mapping from degree to rows per side as
    ``steenrod_matrix`` gives for j = 1, the degrees 1..top and no other key,
    each by ``_read_columns``: ``cols[d][src]`` lists the degree-(d-1)
    elements in Sq_1^* of element src of degree d.
    Returns ``(cols_a, cols_b)``, or ``(None, None)`` for no pair."""
    if steenrod is None:
        return None, None
    sides = len(steenrod) if isinstance(steenrod, Sequence) else type(steenrod).__name__
    if sides != 2:
        raise ValueError(f"steenrod needs one matrix family per side, got {sides}")
    out = []
    for c, sq in zip((a, b), steenrod):
        if not isinstance(sq, Mapping):
            raise ValueError(f"steenrod needs a mapping per side, got {type(sq).__name__}")
        dims = c.dims
        if sq.keys() != set(range(1, len(dims))):
            raise ValueError(f"Sq_1^* needs one matrix per degree 1..{len(dims) - 1} and no"
                             f" other key, got the keys {list(sq)}")
        out.append([[()]] + [  # degree 0 is one class, mapped to no degree
            _read_columns(sq[d], dims[d - 1], dims[d], f"Steenrod matrix of degree {d}", "Sq_1^*")
            for d in range(1, len(dims))
        ])
    return tuple(out)


def verify_coalgebra_map(
    a: GradedCoalgebra, b: GradedCoalgebra, phi: Sequence[Sequence[int]],
    steenrod: SteenrodPair | None = None,
) -> bool:
    """Check that phi (per-degree matrices, columns over a's basis) is an
    invertible graded map with delta_b(phi(x)) = (phi (x) phi)(delta_a(x)),
    and, given the Sq_1^* pair of ``coalgebras_isomorphic``, with
    S_b phi_d = phi_{d-1} S_a in every degree (``_sq1_columns`` reads it).
    Raises ``ValueError`` unless phi has one matrix per degree of a, each of
    dims[d] rows as ``_read_columns`` reads them."""
    sq_a, sq_b = _sq1_columns(a, b, steenrod)
    dims = a.dims
    got = len(phi) if isinstance(phi, Sequence) else type(phi).__name__
    if got != len(dims):
        raise ValueError(f"phi needs {len(dims)} matrices, one per degree of a, got {got}")
    # images[d][src]: the basis elements of b in phi_d(e_src)
    images = [_read_columns(rows, n, n, f"phi of degree {d}", "a's basis")
              for d, (rows, n) in enumerate(zip(phi, dims))]
    if dims != b.dims or any(gf2.rank(phi[d]) != n for d, n in enumerate(dims)):
        return False
    for d in range(len(dims)):
        for src in range(dims[d]):
            img = images[d][src]
            for s in range(d + 1):
                width = dims[d - s]
                lhs = xor_all(b.delta[d][s][m] for m in img)
                rhs = xor_all(
                    {p * width + q for p in images[s][i] for q in images[d - s][j]}
                    for i, j in (divmod(x, width) for x in a.delta[d][s][src])
                )
                if lhs != rhs:
                    return False
            if sq_a is not None and xor_all(sq_b[d][m] for m in img) != xor_all(
                images[d - 1][t] for t in sq_a[d][src]
            ):
                return False
    return True


class IsoVerdict(NamedTuple):
    """Outcome of an isomorphism decision: yes (with an explicit per-degree
    witness), no (with the distinguishing invariant or an exhausted search),
    or inconclusive (search budget hit).  ``tried`` counts search nodes.  A
    ``no`` on an invariant holds its two values in ``left`` and ``right``:
    the dims, or the (d, s, rank) of the one split whose ranks differ."""

    kind: str  # "yes" | "no" | "inconclusive"
    dims: tuple[int, ...] = ()
    witness: tuple[tuple[int, ...], ...] | None = None
    invariant: str | None = None
    left: object = None
    right: object = None
    reason: str | None = None
    tried: int = 0


def coalgebras_isomorphic(
    a: GradedCoalgebra,
    b: GradedCoalgebra,
    budget: int = DEFAULT_ISO_BUDGET,
    *,
    steenrod: SteenrodPair | None = None,
) -> IsoVerdict:
    """Decide graded-coalgebra isomorphism.

    The invariants are compared first: the dims, then the ranks of the
    splits s = 1..d-1 of each degree d in turn (``_rank_mismatch``); on a
    mismatch the verdict is ``no`` with the distinguishing invariant (for
    the ranks, the first split in degree order whose ranks differ).
    Otherwise a complete search for an isomorphism runs (see
    ``_search_isomorphism``), intertwining the dual Steenrod action as well
    when ``steenrod`` matrices for both sides are supplied.  These are
    Sq_1^* matrices, as ``steenrod_matrix`` gives for j = 1, read once by
    ``_sq1_columns`` before the invariants; malformed ones raise
    ``ValueError``.  A ``yes`` is returned only once ``verify_coalgebra_map``
    has passed its witness, Steenrod pair included (else ``RuntimeError``).
    """
    sq = _sq1_columns(a, b, steenrod)
    verdict = (_mismatch(a.dims, "dims", a.dims, b.dims)
               or _rank_mismatch(a.dims, enumerate(zip(a.delta, b.delta)))
               or _search_isomorphism(a, b, budget, sq))
    if verdict.kind == "yes" and not verify_coalgebra_map(a, b, verdict.witness, steenrod):
        raise RuntimeError("isomorphism search produced a witness that fails verification")
    return verdict


def _mismatch(dims, name: str, left, right) -> IsoVerdict | None:
    """``no`` on invariant ``name`` if its two sides differ, else None."""
    if left == right:
        return None
    return IsoVerdict(
        "no", dims=dims, invariant=name, left=left, right=right, reason="invariant mismatch",
    )


def _rank_mismatch(dims, rows) -> IsoVerdict | None:
    """``no`` on ``component_ranks`` at the first split whose F2 ranks
    differ between the two sides, ``left = (d, s, rank_a)`` and ``right =
    (d, s, rank_b)``; else None.  ``rows`` yields ``(d, (delta_a[d],
    delta_b[d]))``, and the splits s = 1..d-1 of each are read one at a
    time, none past the first that differs.

    The rank of a split is an invariant by itself, since an isomorphism
    conjugates it by phi_d and phi_s (x) phi_(d-s), so one that differs
    proves ``no`` whatever was not read.  The splits 0 and d are the counit
    rows, of rank dims[d] on both sides.
    """
    found = (_mismatch(dims, "component_ranks", (d, s, _split_rank(row_a[s])),
                       (d, s, _split_rank(row_b[s])))
             for d, (row_a, row_b) in rows for s in range(1, d))
    return next(filter(None, found), None)


def _split_rank(comps: Sequence[tuple[int, ...]]) -> int:
    """The F2 rank of one split's structure constants, a row per element."""
    # the ints of an entry are distinct, so their sum is their OR
    return gf2.rank([sum(1 << x for x in entry) for entry in comps])


def _stable_edge(by_dim: Sequence[Sequence[FamilyMonomial]]) -> int:
    """The lowest degree in which the weight bound of a component given by
    its basis by degree leaves out a monomial of its family's generators of
    positive dim: k // w + 1 for top weight k, w the weight of the one
    generator of dim 1 (gamma_1, rho_0 or c_0), since every other one has a
    smaller weight per dim.  That is k + 1 for rat:k and conf:k and
    floor(m / 2) + 1 for braid:m; the top class has weight k in every family."""
    top = next((fm for row in reversed(by_dim) for fm in row), None)
    if top is None:
        return len(by_dim)
    return top.weight // (2 if top.family is Family.BRAID else 1) + 1


def components_isomorphic(
    by_dim_a: Sequence[Sequence[FamilyMonomial]],
    by_dim_b: Sequence[Sequence[FamilyMonomial]],
    budget: int = DEFAULT_ISO_BUDGET,
    *,
    steenrod: bool = False,
) -> IsoVerdict:
    """Decide isomorphism of two components given by their bases by degree.
    The verdict, evidence included, is that of ``coalgebras_isomorphic`` on
    their coalgebras (and their Sq_1^* matrices when ``steenrod`` is true),
    built only when the stable edge leaves it open.

    One ``_coproduct_rows`` per side checks its generators first.
    The dims come from the bases, then ``_rank_mismatch`` reads the
    stable-edge degrees E and E + 1 (``_stable_edge``, the smaller of the
    two sides), where the ranks of rat:k and braid:2k first differ; a ``no``
    there names that split and multiplies out no other degree.  Otherwise
    the same rows build both coalgebras, so each degree is multiplied out
    once on each side, a ``yes`` included.
    """
    row_a, row_b = _coproduct_rows(by_dim_a), _coproduct_rows(by_dim_b)
    dims = tuple(map(len, by_dim_a))
    edge = min(_stable_edge(by_dim_a), _stable_edge(by_dim_b))
    verdict = (_mismatch(dims, "dims", dims, tuple(map(len, by_dim_b)))
               or _rank_mismatch(dims, ((d, (row_a(d), row_b(d)))
                                        for d in (edge, edge + 1) if d < len(dims))))
    if verdict:
        return verdict
    sq = (component_steenrod(by_dim_a), component_steenrod(by_dim_b)) if steenrod else None
    a, b = (GradedCoalgebra._new(dims, [row(d) for d in range(len(dims))])
            for row in (row_a, row_b))
    return coalgebras_isomorphic(a, b, budget, steenrod=sq)


def _bits(vec: int) -> list[int]:
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


def _equation(c: GradedCoalgebra, sq, d: int, src: int, col) -> int:
    """Images under ``col`` of the split-s coproduct components of basis
    element ``src`` of degree d, s = 1..d-1, and, given the Sq_1^* columns
    ``sq`` of ``_sq1_columns``, of its dual Steenrod image, packed into one
    bit-vector.  ``col(s, i)`` is the image of basis element i of degree s,
    as a bit-vector over the target basis."""
    dims = c.dims
    vec = 0
    for s in range(1, d):
        width = dims[d - s]
        vec <<= dims[s] * width
        for x in c.delta[d][s][src]:
            i, j = divmod(x, width)
            right = col(d - s, j)
            for p in _bits(col(s, i)):
                vec ^= right << (p * width)
    if sq is not None and d:
        vec <<= dims[d - 1]
        for t in sq[d][src]:
            vec ^= col(d - 1, t)
    return vec


def _search_isomorphism(a: GradedCoalgebra, b: GradedCoalgebra, budget: int, sq) -> IsoVerdict:
    """Depth-first search for phi: a -> b, one column of phi_d at a time.

    With phi_0..phi_{d-1} fixed, the column y = phi_d(e_src) over b's
    degree-d basis must satisfy, for every split s = 1..d-1,
    sum_m y_m delta_b^{(d,s)}(m) = (phi_s (x) phi_{d-s})(delta_a^{(d,s)}(src)),
    and with the Sq_1^* columns ``sq`` of ``_sq1_columns`` also S_b^{(d)} y =
    phi_{d-1} S_a^{(d)} e_src.  Both are linear in y, so the solutions are
    one particular solution plus the kernel; the search branches only over
    kernel choices that keep the columns of phi_d independent.  b's equation
    rows of a degree are eliminated when the walk first reaches it, so a
    search cut short pays only for the degrees it entered.  Splits 0 and d
    hold for every y because the coalgebras are connected (one degree-0
    class, so phi_0 = [1]) and their counit rows hold, both checked in
    ``GradedCoalgebra.__post_init__``.

    Each accepted column is one search node.  Finishing within ``budget``
    nodes without a witness covers every map, so ``no`` is a proof; running
    out of budget is ``inconclusive``.  The one caller,
    ``coalgebras_isomorphic``, compares the dims first and verifies a witness.
    """
    dims = a.dims
    sq_a, sq_b = sq
    systems: dict[int, tuple] = {}  # per degree: a solve of b's equation rows, and their kernel
    order = [(d, src) for d, n in enumerate(dims) for src in range(n)]
    start = [sum(dims[:d]) for d in range(len(dims))]
    cols: list[int] = []  # chosen columns phi_d(e_src), in ``order``

    def candidates(node: int):
        d, src = order[node]
        if d not in systems:
            systems[d] = gf2.solver(
                [_equation(b, sq_b, d, m, lambda s, i: 1 << i) for m in range(dims[d])]
            )
        solve, null = systems[d]
        y0 = solve(_equation(a, sq_a, d, src, lambda s, i: cols[start[s] + i]))
        if y0 is None:
            return
        prior = cols[start[d]:node]
        for choice in range(1 << len(null)):
            y = y0
            for k in _bits(choice):
                y ^= null[k]
            if gf2.rank(prior + [y]) == len(prior) + 1:
                yield y

    stack = [candidates(0)]
    tried = 0
    while stack:
        y = next(stack[-1], None)
        if y is None:
            stack.pop()
            if stack:
                cols.pop()
            continue
        if tried >= budget:
            return IsoVerdict(
                "inconclusive", dims=dims, reason="search budget exhausted", tried=tried,
            )
        tried += 1
        cols.append(y)
        if len(cols) < len(order):
            stack.append(candidates(len(cols)))
            continue
        phi = tuple(
            tuple(sum(((cols[start[d] + c] >> r) & 1) << c for c in range(n)) for r in range(n))
            for d, n in enumerate(dims)
        )
        return IsoVerdict("yes", dims=dims, witness=phi, tried=tried)
    return IsoVerdict(
        "no", dims=dims, reason="exhaustive search found no compatible isomorphism",
        tried=tried,
    )


def steenrod_matrix(family: Family, k: int, *, j: int = 1) -> dict[int, tuple[int, ...]]:
    """Per-degree matrices of the dual Steenrod operation in the family basis
    (see ``component_steenrod``).  Raises ``ValueError``, before any
    enumeration, if the predicted basis size is above ``BASIS_BOUND``."""
    return component_steenrod(_basis_by_dim(family, k), j)


def _total_steenrod(family: Family, idx: int) -> list[tuple[FamilyMonomial]]:
    """Sq_* = sum_j Sq_j^* of one generator x: x + Sq_1^* x."""
    gen = FamilyMonomial(family, ((idx, 1),))
    return [(gen,)] + [(fm,) for fm in generator_steenrod(family, idx)]


def component_steenrod(
    by_dim: Sequence[Sequence[FamilyMonomial]], j: int = 1
) -> dict[int, tuple[int, ...]]:
    """Per-degree matrices of Sq_j^* on a component given by its basis by degree.

    Entry ``out[d]``, for every degree d = 1..top, empty ones included, maps
    degree d to degree d-j; rows are indexed by the target basis, with bit b
    set when the image of source b hits that row.  Sq_* is a ring map that
    sends each generator x to x + Sq_1^* x (``families.generator_steenrod``),
    so Sq_j^* of a degree-d element is the degree-(d-j) part of the product
    of those images, each multiplied out by the ``expand`` of
    ``_multiply_out``.  Raises ``SpanError`` if a term leaves the basis.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    expand = _multiply_out(by_dim, _total_steenrod, 1, "dual Steenrod image")
    out = {}
    for d in range(1, len(by_dim)):
        matrix = [0] * (len(by_dim[d - j]) if d >= j else 0)
        for col, fm in enumerate(by_dim[d]):
            for s, t in expand(fm):
                if s == d - j:
                    matrix[t] |= 1 << col
        out[d] = tuple(matrix)
    return out


class LemmaBraidReport(NamedTuple):
    """Verification that multiplying by g identifies the even and odd
    components; ``classes_checked`` is the size of the weight-2k basis."""

    k: int
    bijection_ok: bool
    coproduct_ok: bool
    classes_checked: int

    @property
    def verified(self) -> bool:
        return self.bijection_ok and self.coproduct_ok


def check_lemma_braid(k: int) -> LemmaBraidReport:
    """Check b -> g*b maps the weight-2k basis onto the weight-2k+1 one row by
    row, index for index (g, of dim 0, leads the lexicographic order, and
    weight 2k+1 forces an odd g exponent), and then Delta(g*b) = (g (x) g)
    Delta(b): ``row_even(d) == row_odd(d)`` of their ``_coproduct_rows``, whose
    generator checks run first, for d up to the first degree that differs."""
    even, odd = _basis_by_dim(Family.BRAID, 2 * k), _basis_by_dim(Family.BRAID, 2 * k + 1)
    row_even, row_odd = _coproduct_rows(even), _coproduct_rows(odd)
    g = FamilyMonomial(Family.BRAID, ((0, 1),))
    bijection_ok = [[fm * g for fm in row] for row in even] == odd
    coproduct_ok = bijection_ok and all(row_even(d) == row_odd(d) for d in range(len(even)))
    return LemmaBraidReport(k, bijection_ok, coproduct_ok, sum(map(len, even)))


class BraidConfReport(NamedTuple):
    """Outcome of comparing the weight-2k braid component with the length-k
    configuration component."""

    k: int
    verdict: IsoVerdict

    @property
    def isomorphic(self) -> bool:
        return self.verdict.kind == "yes"


def check_braid_conf(k: int, *, budget: int = DEFAULT_ISO_BUDGET) -> BraidConfReport:
    """Decide whether the length-k configuration component and the weight-2k
    braid component have isomorphic coalgebras."""
    return BraidConfReport(k, components_isomorphic(
        _basis_by_dim(Family.CONF, k), _basis_by_dim(Family.BRAID, 2 * k), budget,
    ))


class TheoremReport(NamedTuple):
    """Support-set comparison of the top classes of the weight-k rational
    component and the weight-2k braid component."""

    k: int
    support_x: tuple[int, ...]
    support_y: tuple[int, ...]
    distinct: bool
    branch: str  # "power_of_two" | "generic"
    checks: dict[str, object]
    iso: IsoVerdict | None = None

    @property
    def conforms(self) -> bool:
        """Distinct supports away from k in {1, 3}; equal supports plus a full
        coalgebra isomorphism at k in {1, 3}."""
        if self.k in (1, 3):
            return not self.distinct and self.iso is not None and self.iso.kind == "yes"
        return self.distinct and all(
            v for name, v in self.checks.items() if isinstance(v, bool)
        )

    @property
    def undecided(self) -> bool:
        """Conformance hangs on an isomorphism search that ran out of budget."""
        return self.k in (1, 3) and self.iso is not None and self.iso.kind == "inconclusive"


def theorem_main(k: int, *, iso_budget: int = DEFAULT_ISO_BUDGET) -> TheoremReport:
    """Compare S(x) and S(y) for the two top classes at parameter k.

    When k+1 is not a power of two, additionally verifies the witness
    dimension 2^r - 1 (r minimal positive with bit r set and bit r-1 clear in
    k) lies in S(x) but not S(y); when k+1 is a power of two and k > 3,
    verifies 5 separates the supports while 2 lies in neither.  When the
    supports agree, a full isomorphism check is run and reported.
    """
    x = top_class(Family.RAT, k)
    y = top_class(Family.BRAID, k)
    sx = s_set(x)
    sy = s_set(y)
    distinct = sx != sy
    power = (k & (k + 1)) == 0
    checks: dict[str, object] = {}
    if not power:
        bits = {j for j in range(k.bit_length()) if (k >> j) & 1}
        r = min(j for j in bits if j >= 1 and (j - 1) not in bits)
        w = (1 << r) - 1
        checks = {
            "r": r,
            "witness_dim": w,
            "witness_in_support_x": w in sx,
            "witness_not_in_support_y": w not in sy,
        }
    elif k > 3:
        checks = {
            "five_in_support_x": 5 in sx,
            "five_not_in_support_y": 5 not in sy,
            "two_not_in_support_x": 2 not in sx,
            "two_not_in_support_y": 2 not in sy,
        }
    iso = None
    if not distinct:
        iso = components_isomorphic(
            _basis_by_dim(Family.BRAID, 2 * k), _basis_by_dim(Family.RAT, k), iso_budget,
        )
    return TheoremReport(
        k,
        tuple(sorted(sx)),
        tuple(sorted(sy)),
        distinct,
        "power_of_two" if power else "generic",
        checks,
        iso,
    )
