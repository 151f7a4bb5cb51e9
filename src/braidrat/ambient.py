"""Exact arithmetic in a bigraded polynomial algebra over F2.

The ambient algebra is F2[g, g^-1] tensor F2[Qg, Q2g, ...]: one invertible
generator ``g`` of weight 1 and dimension 0, together with a polynomial
generator ``Q^i g`` for every index i >= 1, of weight 2**i and homological
dimension 2**i - 1.  An element is a finite F2-sum of monomials stored as a
set, so a repeated monomial cancels on construction and the empty set is the
zero element.

All values are immutable and every operation is a pure function, so values
may be shared freely between threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple


class Bigrade(NamedTuple):
    """Weight and homological dimension of a homogeneous class."""

    weight: int
    dim: int


class GeneratorLimitError(ValueError):
    """A monomial's exponents leave the range of the packed coproduct kernel."""


class AmbientMonomial(NamedTuple):
    """A Laurent monomial ``g^a * prod_i (Q^i g)^e_i`` in canonical form.

    ``q_exps`` is sorted by generator index and never stores a zero exponent,
    so structural equality is mathematical equality and set-based F2
    cancellation is sound.
    """

    g_exp: int = 0
    q_exps: tuple[tuple[int, int], ...] = ()
    __add__ = __rmul__ = None  # no tuple concatenation or repetition

    @property
    def weight(self) -> int:
        return self.g_exp + sum(e << i for i, e in self.q_exps)

    @property
    def dim(self) -> int:
        return sum(((1 << i) - 1) * e for i, e in self.q_exps)

    @property
    def bigrade(self) -> Bigrade:
        return Bigrade(self.weight, self.dim)

    def __mul__(self, other: "AmbientMonomial") -> "AmbientMonomial":
        if not isinstance(other, AmbientMonomial):
            return NotImplemented
        merged = dict(self.q_exps)
        for i, e in other.q_exps:
            merged[i] = merged.get(i, 0) + e
        return AmbientMonomial(self.g_exp + other.g_exp, tuple(sorted(merged.items())))

    def to_json(self) -> dict:
        return {"g": self.g_exp, "q": {str(i): e for i, e in self.q_exps}}

    def __str__(self) -> str:
        if self.g_exp == 0 and not self.q_exps:
            return "1"
        parts = []
        if self.g_exp != 0:
            parts.append("g" if self.g_exp == 1 else f"g^{self.g_exp}")
        for i, e in self.q_exps:
            name = "Qg" if i == 1 else f"Q{i}g"
            parts.append(name if e == 1 else f"({name})^{e}")
        return "*".join(parts)


def _check_ints(*values) -> None:
    """Raise ``ValueError`` unless every generator index and exponent given is an int."""
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"generator indices and exponents must be ints, got {v!r}")


def monomial(g_exp: int = 0, q: Mapping[int, int] | None = None) -> AmbientMonomial:
    """Build a monomial from a g-exponent and a {index: exponent} map."""
    _check_ints(g_exp)
    cleaned = {}
    for i, e in (q or {}).items():
        _check_ints(i, e)
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        if e < 0:
            raise ValueError(f"generator exponent must be >= 0, got {e}")
        if e:
            cleaned[i] = e
    return AmbientMonomial(g_exp, tuple(sorted(cleaned.items())))


def q_gen(i: int) -> AmbientMonomial:
    """The generator Q^i g as a monomial."""
    return monomial(0, {i: 1})


def xor_all(parts: Iterable[Iterable]) -> set:
    """F2 sum of the given parts, accumulated in one set.

    The items within each part must be distinct: ``symmetric_difference_update``
    collapses a duplicate inside one part instead of cancelling it.  Items
    repeated across parts cancel in pairs.
    """
    out: set = set()
    for items in parts:
        out.symmetric_difference_update(items)
    return out


class AmbientElement(NamedTuple):
    """A finite F2-sum of ambient monomials (coefficient 1 each)."""

    terms: frozenset[AmbientMonomial] = frozenset()
    __rmul__ = None  # no tuple repetition

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[AmbientMonomial]:
        return sorted(self.terms)

    def __add__(self, other: "AmbientElement") -> "AmbientElement":
        if not isinstance(other, AmbientElement):
            return NotImplemented
        return AmbientElement(self.terms ^ other.terms)

    def __mul__(self, other: "AmbientElement") -> "AmbientElement":
        if not isinstance(other, AmbientElement):
            return NotImplemented
        # Monomial products cancel: for a fixed a, distinct b give distinct a*b.
        return AmbientElement(frozenset(xor_all({a * b for b in other.terms} for a in self.terms)))

    def square(self) -> "AmbientElement":
        # Frobenius: cross terms cancel in characteristic 2.
        return AmbientElement(frozenset(m * m for m in self.terms))

    def __pow__(self, n: int) -> "AmbientElement":
        if n < 0:
            raise ValueError("element powers must be nonnegative")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base.square()
            n >>= 1
        return result

    def __repr__(self) -> str:
        # Terms in sorted order, so equal elements have equal reprs whatever
        # order their set was built in.
        terms = ", ".join(map(repr, self.sorted_terms()))
        return f"AmbientElement(terms=frozenset({'{' + terms + '}' if terms else ''}))"

    def to_json(self) -> list[dict]:
        return [m.to_json() for m in self.sorted_terms()]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(str(m) for m in self.sorted_terms())


def element(*terms: AmbientMonomial) -> AmbientElement:
    """F2 sum of the given monomials (duplicates cancel)."""
    return AmbientElement(frozenset(xor_all((t,) for t in terms)))


ZERO = element()
ONE = element(monomial())
G = monomial(1)
G_INV = monomial(-1)


MonomialPair = tuple[AmbientMonomial, AmbientMonomial]


class TensorElement(NamedTuple):
    """A finite F2-sum of ordered monomial pairs in the two-fold tensor product."""

    terms: frozenset[MonomialPair] = frozenset()
    __rmul__ = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[MonomialPair]:
        return sorted(self.terms)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        return TensorElement(self.terms ^ other.terms)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        # As for AmbientElement: a fixed pair times distinct pairs stays distinct.
        return TensorElement(frozenset(xor_all(
            {(a1 * b1, a2 * b2) for b1, b2 in other.terms} for a1, a2 in self.terms
        )))

    def square(self) -> "TensorElement":
        return TensorElement(frozenset((a * a, b * b) for a, b in self.terms))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{a} (x) {b}" for a, b in self.sorted_terms())


def tensor(x: AmbientElement, y: AmbientElement) -> TensorElement:
    """The simple tensor x (x) y, expanded over monomial pairs."""
    return TensorElement(frozenset((a, b) for a in x.terms for b in y.terms))


def tensor_components(t: TensorElement, total_dim: int) -> dict[int, TensorElement]:
    """Partition a tensor of total dimension ``total_dim`` by left dimension.

    Rejects input containing a pair whose dimensions do not sum to
    ``total_dim``; that signals a non-homogeneous element upstream.
    Empty parts are omitted.
    """
    buckets: dict[int, set[MonomialPair]] = {}
    for a, b in t.terms:
        if a.dim + b.dim != total_dim:
            raise ValueError(
                f"pair {a} (x) {b} has total dimension {a.dim + b.dim}, expected {total_dim}"
            )
        buckets.setdefault(a.dim, set()).add((a, b))
    return {s: TensorElement(frozenset(ms)) for s, ms in buckets.items()}
