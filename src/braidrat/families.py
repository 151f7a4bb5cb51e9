"""Generator families for the three spaces and their weight-graded bases.

Three polynomial families embed into the ambient algebra:

* ``braid``  -- generators gamma_i = Q^i g for i >= 0 (gamma_0 = g), of
  weight 2**i and dimension 2**i - 1; the weight-k span models the homology
  of the k-strand braid classifying space.
* ``rat``    -- generators g and rho_i = Q^i(g^-1 Qg) for i >= 0, of weight
  2**i and dimension 2**(i+1) - 1; the weight-k span models the homology of
  the space of based degree-k rational self-maps of the sphere.
* ``conf``   -- generators c_i = Q^i(g^-2 Qg) for i >= 0, of weight 2**i and
  dimension 2**(i+1) - 1; the span of weight <= k models the homology of the
  length-<=-k labelled configuration space.

Family weight for ``conf`` counts configuration length; its ambient
embedding lands entirely in weight 0, so embeddings preserve dimension for
all families but weight only for ``braid`` and ``rat``.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Mapping, NamedTuple

from .ambient import AmbientElement, Bigrade, _check_int, xor_all
from .operations import _G, _QG, _check_field_range, _half_bound, _q, _view

BASIS_BOUND = 4096
SUPPORT_BOUND = 1 << 28


class Family(enum.Enum):
    BRAID = "braid"
    RAT = "rat"
    CONF = "conf"


def _check_family(family) -> None:
    """The one check of a family the caller gives the library, beside
    ``_check_int``: raise ``ValueError`` naming ``family`` unless it is a
    ``Family`` member, such as the string "rat", which is not."""
    if not isinstance(family, Family):
        raise ValueError(f"family must be a Family member, got {family!r}")


# The name and lowest index of each family's generators: rat's g is -1.
_INDEX_RANGE = {f: (f"{f.value} generator index", -1 if f is Family.RAT else 0) for f in Family}


def generator_bigrade(family: Family, idx: int) -> Bigrade:
    """Weight and dim of one generator; the one check of a generator index,
    an int from the family's lowest index up (``_check_int``), after that of
    its family (``_check_family``)."""
    _check_family(family)
    _check_int(idx, *_INDEX_RANGE[family])
    if family is Family.BRAID:
        return Bigrade(1 << idx, (1 << idx) - 1)
    if idx == -1:
        return Bigrade(1, 0)
    return Bigrade(1 << idx, (2 << idx) - 1)


def generator_label(family: Family, idx: int) -> str:
    if family is Family.BRAID:
        return "g" if idx == 0 else f"gamma_{idx}"
    if family is Family.RAT:
        return "g" if idx == -1 else f"rho_{idx}"
    return f"c_{idx}"


class FamilyMonomial(NamedTuple):
    """A monomial in the abstract generators of one family, canonical form."""

    family: Family
    exps: tuple[tuple[int, int], ...] = ()
    __add__ = __rmul__ = None  # no tuple concatenation or repetition

    @property
    def weight(self) -> int:
        return sum(generator_bigrade(self.family, i).weight * e for i, e in self.exps)

    @property
    def dim(self) -> int:
        return sum(generator_bigrade(self.family, i).dim * e for i, e in self.exps)

    @property
    def bigrade(self) -> Bigrade:
        return Bigrade(self.weight, self.dim)

    def __mul__(self, other: "FamilyMonomial") -> "FamilyMonomial":
        if not isinstance(other, FamilyMonomial):
            return NotImplemented
        if other.family is not self.family:
            raise ValueError("cannot multiply monomials from different families")
        merged = dict(self.exps)
        for i, e in other.exps:
            merged[i] = merged.get(i, 0) + e
        return FamilyMonomial(self.family, tuple(sorted(merged.items())))

    def label(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for idx, e in self.exps:
            name = generator_label(self.family, idx)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "exps": {generator_label(self.family, i): e for i, e in self.exps},
        }

    def __str__(self) -> str:
        return self.label()


def family_monomial(family: Family, exps: Mapping[int, int]) -> FamilyMonomial:
    """Build a family monomial from an {index: exponent} map of generator
    indices (``generator_bigrade`` checks them) and int exponents >= 0."""
    cleaned = {}
    for i, e in exps.items():
        generator_bigrade(family, i)  # validates the index
        _check_int(e, "generator exponent", 0)
        if e:
            cleaned[i] = e
    return FamilyMonomial(family, tuple(sorted(cleaned.items())))


@lru_cache(maxsize=None)
def _generator_halves(family: Family, idx: int) -> tuple[frozenset[int], int]:
    """The packed terms of a generator's embedding, and the largest
    ``_half_bound`` among them.  Each generator is Q applied idx times to its
    seed (g for braid, g^-1 Qg for rat, g^-2 Qg for conf), on packed halves;
    rat's g, idx -1, is its own seed."""
    generator_bigrade(family, idx)  # validates the index
    seed = {Family.BRAID: _G, Family.RAT: _QG - _G, Family.CONF: _QG - 2 * _G}[family]
    if idx == -1:
        seed, idx = _G, 0
    halves = {seed}
    for _ in range(idx):
        halves = _q(halves)
    return frozenset(halves), max(map(_half_bound, halves))


def _embed(fm: FamilyMonomial) -> frozenset[int]:
    """The embedding of ``fm`` as packed halves (see ``operations._pack``).

    A power is a product of Frobenius squares, h^(2^b) = h << b, and a
    product is ``xor_all`` of int adds.  ``_half_bound`` is subadditive, so
    no field of any partial product leaves the digit range when the bounds
    of the factors sum below it; otherwise ``GeneratorLimitError`` is raised
    before any product is formed.
    """
    factors = [(_generator_halves(fm.family, idx), e) for idx, e in fm.exps]
    _check_field_range(sum(bound * e for (_, bound), e in factors), fm)
    out = {0}
    for (halves, _), e in factors:
        for b in range(e.bit_length()):
            if e >> b & 1:
                power = [c << b for c in halves]
                # For a fixed a the sums a + c over distinct c are distinct.
                out = xor_all({a + c for c in power} for a in out)
    return frozenset(out)


def embed(fm: FamilyMonomial) -> AmbientElement:
    """Multiplicative embedding of a family monomial into the ambient algebra."""
    return _view(_embed(fm))


def _rat_q_terms(i: int) -> frozenset[FamilyMonomial]:
    """The terms of Q^i g written in the rat generators, i >= 1: Qg = g rho_0
    and Q^(m+1) g = g^(2^m) rho_m + rho_0^(2^m) Q^m g (see
    ``generator_coproduct``).  Only the new term holds rho_m, so no two
    terms are equal and Q^i g has i of them."""
    terms = frozenset({FamilyMonomial(Family.RAT, ((-1, 1), (0, 1)))})
    for m in range(1, i):
        rho0_pow = FamilyMonomial(Family.RAT, ((0, 1 << m),))
        head = FamilyMonomial(Family.RAT, ((-1, 1 << m), (m, 1)))
        terms = frozenset({rho0_pow * p for p in terms} | {head})
    return terms


def generator_coproduct(
    family: Family, idx: int
) -> frozenset[tuple[FamilyMonomial, FamilyMonomial]]:
    """psi of one generator as pairs of family monomials, in closed form:

    * conf: c_i is primitive, 1 (x) c_i + c_i (x) 1;
    * braid: g is grouplike, g (x) g, and gamma_i, i >= 1, is
      g^(2^i)-twisted primitive, g^(2^i) (x) gamma_i + gamma_i (x) g^(2^i);
    * rat: g and rho_0 likewise, and rho_i, i >= 1, has in addition
      p (x) rho_0^(2^i) + rho_0^(2^i) (x) p for each term p of Q^i g
      (``_rat_q_terms``).

    Proof sketch.  psi is an algebra map with psi(g) = g (x) g and
    psi(Q^i g) = g^(2^i) (x) Q^i g + Q^i g (x) g^(2^i), and Q kills squares,
    so Q(s y) = s^2 Qy when s is a square.  Hence c_i = g^(-2^(i+1))
    Q^(i+1) g, and psi(c_i) is primitive once g^(-2^(i+1)) (x) g^(-2^(i+1))
    cancels the twists.  rho_0 = g^-1 Qg gives g (x) rho_0 + rho_0 (x) g.
    For i >= 1, rho_1 = g^-2 Q^2 g + rho_0^2 g^-2 Qg (as Q(g^-1) =
    g^-4 Qg), and applying Q i - 1 more times gives rho_i =
    G^-1 (Q^(i+1) g + R P) with G = g^(2^i), R = rho_0^(2^i) and
    P = Q^i g, which is also the recursion of ``_rat_q_terms``.  With
    psi(R) = G (x) R + R (x) G and psi(P) = G (x) P + P (x) G, expanding
    psi(G^-1) psi(Q^(i+1) g + R P) gives G (x) rho_i + rho_i (x) G +
    P (x) R + R (x) P.  None of these pairs cancels: the four kinds have
    the distinct left dims 0, 2^(i+1) - 1, 2^i - 1 and 2^i, and the terms
    p of P are distinct.  These are identities between embedded classes;
    the embedding is injective on each component (the ambient test oracle
    in ``tests/helpers.py`` eliminates each embedded basis and raises
    ``SpanError`` otherwise), so they hold in the family.

    A basis monomial's coproduct is the product of its generators'
    coproducts.  Every pair of a generator has halves of its weight (braid,
    rat) or weights summing to it (conf), with dims summing to its dim; so
    every pair of a weight-k monomial has halves in the component's basis
    and dims summing to its dim, and the component is a sub-coalgebra.
    """
    weight = generator_bigrade(family, idx).weight  # validates the index
    unit = FamilyMonomial(family, ())
    gen = FamilyMonomial(family, ((idx, 1),))
    if family is Family.CONF:
        return frozenset({(unit, gen), (gen, unit)})
    g_idx = 0 if family is Family.BRAID else -1
    if idx == g_idx:
        return frozenset({(gen, gen)})
    twist = FamilyMonomial(family, ((g_idx, weight),))
    out = {(twist, gen), (gen, twist)}
    if family is Family.RAT and idx >= 1:
        rho0_pow = FamilyMonomial(family, ((0, weight),))
        for p in _rat_q_terms(idx):
            out |= {(p, rho0_pow), (rho0_pow, p)}
    return frozenset(out)


def generator_steenrod(family: Family, idx: int) -> frozenset[FamilyMonomial]:
    """Sq_1^* of one generator as family monomials, in closed form: the square
    of the generator one index down for braid gamma_i, i >= 2, and for rat
    rho_i and conf c_i, i >= 1; zero on the generators of dim <= 1, g,
    gamma_1, rho_0 and c_0.  Every Sq_j^*, j >= 2, is zero on every
    generator.

    Proof sketch.  The total dual operation Sq_* = sum_j Sq_j^* is a ring map
    with Sq_*(Q^i g) = Q^i g + (Q^(i-1) g)^2 for i >= 2, fixing g^(+-1) and
    Qg.  That is the braid rule, and Sq_* fixes every power of g and of
    rho_0 = g^-1 Qg.  conf: c_i = g^(-2^(i+1)) Q^(i+1) g
    (see ``generator_coproduct``), so Sq_* c_i = c_i + (g^(-2^i) Q^i g)^2 =
    c_i + c_(i-1)^2 for i >= 1.  rat: rho_i = G^-1 (Q^(i+1) g + R P) with
    G = g^(2^i), R = rho_0^(2^i) and P = Q^i g; Sq_* fixes G and R, so
    Sq_* rho_i = rho_i + G^-1 ((Q^i g)^2 + R (Q^(i-1) g)^2), which is the
    square of the same identity one index down, rho_(i-1)^2; for i = 1 it is
    g^-2 (Qg)^2 = rho_0^2.  Each image has the weight of its generator and
    one dim less.  As for ``generator_coproduct``, these identities between
    embedded classes hold in the family, and Sq_* of a basis monomial is the
    product of x + Sq_1^* x over its generators x.
    """
    if generator_bigrade(family, idx).dim <= 1:  # validates the index
        return frozenset()
    return frozenset({FamilyMonomial(family, ((idx - 1, 2),))})


def _generator_indices(family: Family, k: int) -> list[int]:
    idxs = list(range(k.bit_length()))
    if family is Family.RAT:
        idxs = [-1] + idxs
    return idxs


def _exponent_vectors(weights: tuple[int, ...], total: int,
                      exact: bool) -> list[tuple[int, ...]]:
    # Extend every partial vector one generator at a time, lowest exponent
    # first, so the order stays lexicographic.  Each weight divides the next,
    # so when exact the later generators can fill the weight a partial vector
    # leaves exactly when the next weight divides it; after the last, when it
    # is 0, the one multiple of total + 1 in range.
    steps = weights[1:] + (total + 1,) if exact else (1,) * len(weights)
    level = [((), total)]
    for w, step in zip(weights, steps):
        level = [(vec + (e,), rest) for vec, left in level
                 for e in range(left // w + 1) if (rest := left - e * w) % step == 0]
    return [vec for vec, _ in level]


def check_basis_size(family: Family, k: int) -> None:
    """Raise ``ValueError`` when the basis of ``family`` at k, counted
    without enumerating it, has more than ``BASIS_BOUND`` monomials, or
    unless k is an int >= 1."""
    # For k >= 2 every family has more than k/2 basis monomials (the
    # partitions of k into 1s and 2s alone number floor(k/2) + 1), so such
    # a k is refused without the O(k) count.
    _check_int(k, "k", 1)
    if k >= 2 * BASIS_BOUND:
        raise ValueError(f"basis size above {k // 2} exceeds bound {BASIS_BOUND}")
    total = basis_size(family, k)
    if total > BASIS_BOUND:
        raise ValueError(f"basis size {total} exceeds bound {BASIS_BOUND}")


def _top_class_cost(family: Family, k: int) -> int:
    """Bits of mask work ``s_set`` spends on the top class at k, from k
    alone: one mask of dim + 1 bits per monomial of the embedding, where
    dim = 2k - popcount(k) and the embedding has 2^popcount(k >> 1)
    monomials for rat (rho_0 embeds as one monomial, each rho_j, j >= 1, as
    two) and one for braid."""
    terms = 1 << (k >> 1).bit_count() if family is Family.RAT else 1
    return terms * (2 * k - k.bit_count() + 1)


def check_top_class_size(family: Family, k: int) -> None:
    """Raise ``ValueError`` when the top class at k costs more than
    ``SUPPORT_BOUND`` bits, or unless k is an int >= 1 and ``family`` a
    ``Family`` member."""
    _check_int(k, "k", 1)
    _check_family(family)
    cost = _top_class_cost(family, k)
    if cost > SUPPORT_BOUND:
        raise ValueError(f"top-class support cost {cost} exceeds bound {SUPPORT_BOUND}")


def check_top_class_range(lo: int, hi: int) -> None:
    """Raise ``ValueError`` when the top classes of both families at k = lo..hi
    cost more than ``SUPPORT_BOUND`` bits together, which bounds the supports a
    sweep keeps; each k adds over 2k bits, so this stops within 2^14 steps.
    Both ends must be ints >= 1; hi < lo is an empty range."""
    _check_int(lo, "k", 1)
    _check_int(hi, "k", 1)
    total = 0
    for k in range(lo, hi + 1):
        total += _top_class_cost(Family.RAT, k) + _top_class_cost(Family.BRAID, k)
        if total > SUPPORT_BOUND:
            raise ValueError(f"top-class support cost {total} of k = {lo}..{k}"
                             f" exceeds bound {SUPPORT_BOUND}")


def basis(family: Family, k: int) -> list[FamilyMonomial]:
    """Monomials of weight exactly k (braid, rat) or weight <= k (conf).

    The list is sorted by dimension, then lexicographically on exponent
    vectors, so output order is deterministic.  Its size is checked by
    ``check_basis_size`` before any enumeration.
    """
    return [fm for row in _basis_by_dim(family, k) for fm in row]


def _basis_by_dim(family: Family, k: int) -> list[list[FamilyMonomial]]:
    """``basis`` grouped by dimension, one row per dimension 0..top.  The
    exponent vectors come in ascending lexicographic order, so appending
    each monomial to the row of its dimension sorts every row."""
    check_basis_size(family, k)
    idxs = _generator_indices(family, k)
    weights, dims = zip(*(generator_bigrade(family, i) for i in idxs))
    out: list[list[FamilyMonomial]] = []
    for vec in _exponent_vectors(weights, k, family is not Family.CONF):
        d = sum(map(int.__mul__, dims, vec))
        while len(out) <= d:
            out.append([])
        out[d].append(FamilyMonomial(family, tuple((i, e) for i, e in zip(idxs, vec) if e)))
    return out


def basis_size(family: Family, k: int) -> int:
    """``len(basis(family, k))``, counted without enumerating: the number of
    partitions of k (of each weight <= k for ``conf``) into generator weights."""
    _check_int(k, "k", 1)
    ways = [1] + [0] * k
    for idx in _generator_indices(family, k):
        w = generator_bigrade(family, idx).weight
        for t in range(w, k + 1):
            ways[t] += ways[t - w]
    return sum(ways) if family is Family.CONF else ways[k]


def top_class(family: Family, k: int) -> FamilyMonomial:
    """The unique basis monomial of maximal dimension.

    For ``rat`` this is prod rho_j over the binary expansion k = sum 2^j; for
    ``braid`` the argument denotes the 2k-strand space and the top class is
    prod gamma_{j+1}.  Raises ``ValueError`` when ``check_top_class_size``
    refuses k.
    """
    if family is Family.CONF:
        raise ValueError("top_class is defined for the braid and rat families")
    check_top_class_size(family, k)
    bits = [j for j in range(k.bit_length()) if (k >> j) & 1]
    if family is Family.RAT:
        return FamilyMonomial(family, tuple((j, 1) for j in bits))
    return FamilyMonomial(family, tuple((j + 1, 1) for j in bits))


def poincare_vector(family: Family, k: int) -> list[int]:
    """Number of basis monomials in each dimension, indexed 0..top."""
    return [len(row) for row in _basis_by_dim(family, k)]
