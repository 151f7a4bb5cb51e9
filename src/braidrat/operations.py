"""Homology operations on ambient elements.

Implements the Araki-Kudo operation Q (linear, Cartan formula
Q(xy) = x^2 Qy + Qx y^2, with Q(g) = Qg, Q(g^-1) = g^-4 Qg and
Q(Q^i g) = Q^{i+1} g), the diagonal coproduct (an algebra map with
psi(g^a) = g^a (x) g^a and psi(Q^i g) = g^{2^i} (x) Q^i g + Q^i g (x) g^{2^i}),
and the dual Steenrod operations Sq_j^*.

All three run on packed ints: a monomial is one int, its half, and a
monomial pair is a (left, right) tuple of halves, so multiplying is integer
addition and F2 cancellation is set symmetric difference.  The family
generators are built by the packed ``_q``.  Coalgebra verdicts read the
closed-form generator images of ``families``; ``_psi`` and ``_sq_half`` are
the reference that ``coalgebra._check_generator`` compares those images
with, on each generator's embedding, before any of them is multiplied out.
``araki_kudo_q``, ``iterated_q``, ``coproduct``, ``sq1_dual`` and
``sqj_dual`` are views that pack their argument and unpack the result.
``_left_dims`` reads the left dims of the pairs of one packed half in closed
form, without forming a pair.

The coproduct memo is the one cache, and in the package only ``coproduct``
and the generator check fill it: it maps each half to a frozenset of (left,
right) tuples, write-once, and entries are never mutated after insertion,
so concurrent readers are safe.  Sq_j^* is read off the closed-form terms
of the total operation Sq_* by their dim and needs no memo.
"""
from __future__ import annotations

from typing import Iterable

from .ambient import (
    AmbientElement,
    AmbientMonomial,
    GeneratorLimitError,
    TensorElement,
    _check_int,
    xor_all,
)

_PSI_CACHE: dict[int, frozenset[tuple[int, int]]] = {}


# Packed half-monomials.  The monomial g^a * prod_i (Q^i g)^(e_i) is one int,
# its half: field 0 is its dim, field 1 is a and field i + 1 is e_i, _W bits
# each at bit _W * field.  Fields are balanced base-2^_W digits because g
# exponents may be negative: products are integer adds, and the int
# determines the monomial as long as every field stays below _HALF in
# absolute value (see ``_field_bound``).
_W = 32
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)


def _slot(field: int) -> int:
    return 1 << (_W * field)


_G = _slot(1)  # g
_QG = _slot(2) + 1  # Qg, of dim 1


def _field_bound(g_exp: int, exps: Iterable[tuple[int, int]]) -> int:
    """|a| + sum_i e_i 2^i for g^a prod_i (Q^i g)^(e_i), a bound on every
    field of that monomial and of the left and right half of every pair of
    its coproduct.  It is subadditive under products, and Sq_j^* keeps it."""
    return abs(g_exp) + sum(e << i for i, e in exps)


def _check_field_range(bound: int, what: object) -> None:
    if bound >= _HALF:
        raise GeneratorLimitError(f"{what} exceeds the packed field range 2^{_W - 1}")


def _pack(m: AmbientMonomial) -> int:
    """``m`` as a packed half; raises ``GeneratorLimitError`` when a field of
    it or of its coproduct could leave the digit range."""
    _check_field_range(_field_bound(m.g_exp, m.q_exps), m)
    return m.dim + m.g_exp * _slot(1) + sum(e * _slot(i + 1) for i, e in m.q_exps)


def _fields(h: int) -> list[int]:
    """The fields of a packed half, field 0 first, up to its last nonzero one."""
    out = []
    while h:
        d = h & _MASK
        if d >= _HALF:
            d -= 1 << _W
        out.append(d)
        h = (h - d) >> _W
    return out


def _unpack(h: int) -> AmbientMonomial:
    g_exp, *exps = _fields(h)[1:] or [0]
    return AmbientMonomial(g_exp, tuple((i, e) for i, e in enumerate(exps, 1) if e))


def _half_bound(h: int) -> int:
    """``_field_bound`` of the monomial the packed half ``h`` holds."""
    g_exp, *exps = _fields(h)[1:] or [0]
    return _field_bound(g_exp, enumerate(exps, 1))


def _view(halves: Iterable[int]) -> AmbientElement:
    return AmbientElement(frozenset(map(_unpack, halves)))


def _q_half(h: int) -> list[int]:
    # Repeating the Cartan formula, Q(m) is the sum over the factors f of m
    # with an odd exponent of m^2 Q(f) / f^2: Q kills squares, so
    # Q(f^e) = f^(2e - 2) Q(f) for odd e, where Q(g^a) = g^(2a - 2) Qg and
    # Q(Q^i g) = Q^{i+1} g.  Each term doubles the fields, trades two copies
    # of f for one of the next generator and has dim 2 dim + 1.  Its field
    # bound is twice that of m, plus 4 when a is odd and negative, since
    # then |2a - 2| = 2|a| + 2 and Qg adds 2.
    fields = _fields(h)
    odd = [f for f, e in enumerate(fields[1:], 1) if e & 1]
    if odd:
        a = fields[1]
        _check_field_range(2 * _half_bound(h) + (4 if a < 0 and a & 1 else 0), "Q of a monomial")
    return [2 * h + _slot(f + 1) - 2 * _slot(f) + 1 for f in odd]


def _q(halves: Iterable[int]) -> set[int]:
    """Q of the F2 sum of distinct ``halves``, as packed halves."""
    return xor_all(map(_q_half, halves))


def araki_kudo_q(e: AmbientElement) -> AmbientElement:
    """Apply Q linearly over F2; doubles weight and sends dimension d to 2d+1."""
    return _view(_q(map(_pack, e.terms)))


def iterated_q(e: AmbientElement, n: int) -> AmbientElement:
    """Q applied n times, for an int n >= 0."""
    _check_int(n, "n", 0)
    halves = set(map(_pack, e.terms))
    for _ in range(n):
        halves = _q(halves)
    return _view(halves)


def _submasks(e: int) -> Iterable[int]:
    j = e
    while True:
        yield j
        if j == 0:
            return
        j = (j - 1) & e


def _psi_half(h: int) -> frozenset[tuple[int, int]]:
    cached = _PSI_CACHE.get(h)
    if cached is not None:
        return cached
    fields = _fields(h)
    a = fields[1] * _G if len(fields) > 1 else 0
    out = [(a, a)]
    for i, e in enumerate(fields[2:], 1):
        if not e:
            continue
        # psi(Q^i g) = x + y with x = g^{2^i} (x) Q^i g, y = Q^i g (x) g^{2^i};
        # binom(e, j) is odd exactly for the submasks j of e (Lucas), so
        # (x + y)^e = sum over those j of x^j y^{e-j}.  Nothing cancels: the
        # left half's Q^i g exponent is e - j, so distinct choices of j per
        # field give distinct pairs.
        g, q = (1 << i) * _G, _slot(i + 1) + (1 << i) - 1
        out = [(u + j * g + (e - j) * q, v + j * q + (e - j) * g)
               for u, v in out for j in _submasks(e)]
    cached = _PSI_CACHE[h] = frozenset(out)
    return cached


def _psi(halves: Iterable[int]) -> set[tuple[int, int]]:
    """The diagonal coproduct of the F2 sum of distinct ``halves``, as
    (left, right) tuples of packed halves."""
    return xor_all(map(_psi_half, halves))


def coproduct(e: AmbientElement) -> TensorElement:
    """The diagonal coproduct, linear over F2 and multiplicative on monomials."""
    pairs = _psi(map(_pack, e.terms))
    views = {h: _unpack(h) for pair in pairs for h in pair}
    return TensorElement(frozenset((views[u], views[v]) for u, v in pairs))


def _left_dims(h: int) -> int:
    """The left dims of the pairs of psi(m) for the packed half ``h`` of m,
    as a bit mask: bit s is set when some pair has left dim s.

    In ``_psi_half`` the factor (Q^i g)^(e_i) puts g^(2^i j) (Q^i g)^(e_i - j),
    of dim (2^i - 1)(e_i - j), into the left half of a pair for each submask
    j of e_i, and e_i - j runs over the same submasks.  So the left dims are
    the sums of (2^i - 1) << b over the subsets of the set bits b of all the
    e_i, built here one set bit at a time, without forming a pair.  The mask
    is m.dim + 1 bits wide; ``_pack`` applies the field-range guard.
    """
    acc = 1
    for i, e in enumerate(_fields(h)[2:], 1):
        while e:
            low = e & -e
            acc |= acc << (((1 << i) - 1) * low)
            e ^= low
    return acc


def _sq_half(h: int) -> list[int]:
    # Sq_* = sum_j Sq_j^* is a ring map fixing g^a and Qg, with
    # Sq_*(Q^i g) = Q^i g + (Q^{i-1} g)^2 for i >= 2.  The summands of
    # (Q^i g + (Q^{i-1} g)^2)^e are those of the submasks j of e (Lucas):
    # j copies of Q^i g traded for 2j of Q^{i-1} g, j dims lower.  Reading
    # field i + 1 from the top index down recovers each j, so the terms are
    # distinct.
    terms = [h]
    for i, e in enumerate(_fields(h)[3:], 2):
        if e:
            trade = _slot(i + 1) - 2 * _slot(i) + 1
            terms = [t - j * trade for t in terms for j in _submasks(e)]
    return terms


def _sqj(halves: Iterable[int], j: int) -> set[int]:
    """Sq_j^* of the F2 sum of distinct ``halves``, as packed halves, for an
    int j >= 1."""
    _check_int(j, "j", 1)
    return xor_all([t for t in _sq_half(h) if t & _MASK == (h & _MASK) - j] for h in halves)


def sq1_dual(e: AmbientElement) -> AmbientElement:
    """The dual of the first Steenrod square; preserves weight, lowers dim by 1."""
    return _view(_sqj(map(_pack, e.terms), 1))


def sqj_dual(e: AmbientElement, j: int) -> AmbientElement:
    """The dual of Sq^j: the part j dims lower of the ring map
    Sq_* = sum_j Sq_j^*, which fixes g^a and Qg and sends Q^i g (i >= 2) to
    Q^i g + (Q^{i-1} g)^2.

    Generator values vanish for j >= 2; j = 1 is ``sq1_dual``.  A j that
    is not an int >= 1 raises ``ValueError``.
    """
    return _view(_sqj(map(_pack, e.terms), j))
