"""Homology operations on ambient elements.

Implements the Araki-Kudo operation Q (linear, Cartan formula
Q(xy) = x^2 Qy + Qx y^2, with Q(g) = Qg, Q(g^-1) = g^-4 Qg and
Q(Q^i g) = Q^{i+1} g), the diagonal coproduct (an algebra map with
psi(g^a) = g^a (x) g^a and psi(Q^i g) = g^{2^i} (x) Q^i g + Q^i g (x) g^{2^i}),
and the dual Steenrod operations Sq_j^*.

The coproduct runs on a packed-int kernel: a monomial pair is one Python
int, so multiplying pairs is integer addition and F2 cancellation is set
symmetric difference.  ``coproduct_fields`` decodes each surviving pair into
the field tuples of its two halves, which coalgebra extraction groups
without building monomials, and ``coproduct`` turns those into a
``TensorElement``.  ``coproduct_left_dims`` reads the left dims of the pairs
of one monomial in closed form, without forming a pair.

Per-monomial results are memoized in write-once caches (the coproduct memo
holds frozensets of packed ints); entries are never mutated after insertion,
so concurrent readers are safe.
"""

from __future__ import annotations

from typing import Iterable

from .ambient import (
    ZERO,
    AmbientElement,
    AmbientMonomial,
    GeneratorLimitError,
    TensorElement,
    element,
    monomial,
    q_gen,
    xor_all,
)

_Q_CACHE: dict[AmbientMonomial, AmbientElement] = {}
_PSI_CACHE: dict[AmbientMonomial, frozenset[int]] = {}
_SQJ_CACHE: dict[tuple[AmbientMonomial, int], AmbientElement] = {}


def _f2_sum(parts: Iterable[AmbientElement]) -> AmbientElement:
    return AmbientElement(frozenset(xor_all(p.terms for p in parts)))


def _q_of_g_power(a: int) -> AmbientElement:
    # Closed form, validated against the recursive Cartan splitting in tests:
    # Q(g^a) = g^{2(a-1)} Qg for odd a and 0 for even a (squares die).
    if a & 1 == 0:
        return ZERO
    return element(monomial(2 * (a - 1), {1: 1}))


def _q_of_q_power(i: int, e: int) -> AmbientElement:
    if e & 1 == 0:
        return ZERO
    return element(monomial(0, {i: 2 * (e - 1), i + 1: 1}) if e > 1 else q_gen(i + 1))


def _q_monomial(m: AmbientMonomial) -> AmbientElement:
    """Cartan recursion, splitting off the leading generator power."""
    cached = _Q_CACHE.get(m)
    if cached is not None:
        return cached
    if m.g_exp != 0:
        head = monomial(m.g_exp)
        rest = AmbientMonomial(0, m.q_exps)
        q_head = _q_of_g_power(m.g_exp)
    elif m.q_exps:
        (i, e) = m.q_exps[0]
        head = monomial(0, {i: e})
        rest = AmbientMonomial(0, m.q_exps[1:])
        q_head = _q_of_q_power(i, e)
    else:
        _Q_CACHE[m] = ZERO
        return ZERO
    if rest.g_exp == 0 and not rest.q_exps:
        out = q_head
    else:
        out = element(head * head) * _q_monomial(rest) + q_head * element(rest * rest)
    _Q_CACHE[m] = out
    return out


def araki_kudo_q(e: AmbientElement) -> AmbientElement:
    """Apply Q linearly over F2; doubles weight and sends dimension d to 2d+1."""
    return _f2_sum(map(_q_monomial, e.terms))


def iterated_q(e: AmbientElement, n: int) -> AmbientElement:
    """Q applied n times."""
    for _ in range(n):
        e = araki_kudo_q(e)
    return e


# Packed coproduct kernel.  A monomial pair is one int.  Each half has a dim
# field (field 0), a g field (field 1) and a Q^i g exponent field (field
# i + 1), _W bits each; field j of the left half sits at slot 2j and of the
# right half at slot 2j + 1, so the layout does not depend on the largest
# index.  Fields are balanced base-2^_W digits because g exponents may be
# negative: pairs multiply by integer addition, and the int determines the
# pair as long as every field stays below _HALF in absolute value.
_W = 32
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)


def _slot(field: int, right: int) -> int:
    return 1 << ((2 * field + right) * _W)


_G_PAIR = _slot(1, 0) + _slot(1, 1)  # g (x) g


def _submasks(e: int) -> Iterable[int]:
    j = e
    while True:
        yield j
        if j == 0:
            return
        j = (j - 1) & e


def _check_field_range(m: AmbientMonomial) -> None:
    # Every field of every pair is bounded by this: |g| <= |g_exp| + sum e_i 2^i,
    # while each dim and each e_i is at most sum e_i 2^i.
    bound = abs(m.g_exp) + sum(e << i for i, e in m.q_exps)
    if bound >= _HALF:
        raise GeneratorLimitError(
            f"monomial {m} exceeds the coproduct field range 2^{_W - 1}"
        )


def _psi_monomial(m: AmbientMonomial) -> frozenset[int]:
    cached = _PSI_CACHE.get(m)
    if cached is not None:
        return cached
    _check_field_range(m)
    out = {m.g_exp * _G_PAIR}
    for i, e in m.q_exps:
        # psi(Q^i g) = x + y with x = g^{2^i} (x) Q^i g, y = Q^i g (x) g^{2^i};
        # binom(e, j) is odd exactly for the submasks j of e (Lucas), so
        # (x + y)^e = sum over those j of x^j y^{e-j}.
        x = (1 << i) * _slot(1, 0) + ((1 << i) - 1) * _slot(0, 1) + _slot(i + 1, 1)
        y = ((1 << i) - 1) * _slot(0, 0) + _slot(i + 1, 0) + (1 << i) * _slot(1, 1)
        power = [j * x + (e - j) * y for j in _submasks(e)]
        # For a fixed b the sums a + b over distinct a are distinct, so one
        # symmetric difference per b is an exact F2 product.
        out = xor_all({a + b for a in out} for b in power)
    cached = _PSI_CACHE[m] = frozenset(out)
    return cached


def monomial_fields(m: AmbientMonomial) -> tuple[int, ...]:
    """The fields of ``m`` as one half of a packed pair, (dim, g, e_1, ...),
    with trailing zeros stripped: the key ``coproduct_fields`` yields."""
    exps = dict(m.q_exps)
    fields = [m.dim, m.g_exp, *(exps.get(i, 0) for i in range(1, m.max_q_index + 1))]
    while fields and not fields[-1]:
        fields.pop()
    return tuple(fields)


def coproduct_fields(e: AmbientElement) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs of the diagonal coproduct of ``e``, each as the fields of its
    left and right half (see ``monomial_fields``), decoded from the packed
    ints without building monomials."""
    out = []
    for x in xor_all(map(_psi_monomial, e.terms)):
        digits = []
        while x:
            d = x & _MASK
            if d >= _HALF:
                d -= 1 << _W
            digits.append(d)
            x = (x - d) >> _W
        left, right = digits[0::2], digits[1::2]
        # The last digit is nonzero, so only the other half can end in zeros.
        half = right if len(digits) & 1 else left
        while half and not half[-1]:
            half.pop()
        out.append((tuple(left), tuple(right)))
    return out


def _unpack_half(fields: tuple[int, ...], memo: dict) -> AmbientMonomial:
    m = memo.get(fields)
    if m is None:
        g_exp = fields[1] if len(fields) > 1 else 0
        q_exps = tuple((i, e) for i, e in enumerate(fields[2:], 1) if e)
        m = memo[fields] = AmbientMonomial(g_exp, q_exps)
    return m


def coproduct(e: AmbientElement) -> TensorElement:
    """The diagonal coproduct, linear over F2 and multiplicative on monomials."""
    memo: dict = {}
    return TensorElement(frozenset(
        (_unpack_half(left, memo), _unpack_half(right, memo))
        for left, right in coproduct_fields(e)
    ))


def coproduct_left_dims(m: AmbientMonomial) -> int:
    """The left dims of the pairs of psi(m), as a bit mask: bit s is set when
    some pair has left dim s.

    In ``_psi_monomial`` the factor (Q^i g)^(e_i) contributes the left half
    g^(2^i j) (Q^i g)^(e_i - j), of dim (2^i - 1)(e_i - j), for each submask
    j of e_i, and e_i - j runs over the same submasks.  So the left dims are
    the sums of (2^i - 1) << b over the subsets of the set bits b of all the
    e_i, built here one set bit at a time, without forming a pair.  The mask
    is m.dim + 1 bits wide; ``m`` passes the coproduct's field-range guard.
    """
    _check_field_range(m)
    acc = 1
    for i, e in m.q_exps:
        while e:
            low = e & -e
            acc |= acc << (((1 << i) - 1) * low)
            e ^= low
    return acc


def _sq1_monomial(m: AmbientMonomial) -> AmbientElement:
    # Derivation: hit one factor at a time; Sq_1^*(Q^i g) = (Q^{i-1} g)^2 for
    # i >= 2 and zero on g and Qg, so only odd powers of Q^i g, i >= 2 survive.
    out = []
    for i, e in m.q_exps:
        if i >= 2 and e & 1:
            exps = dict(m.q_exps)
            exps[i] = e - 1
            exps[i - 1] = exps.get(i - 1, 0) + 2
            out.append(monomial(m.g_exp, exps))
    return element(*out)


def sq1_dual(e: AmbientElement) -> AmbientElement:
    """The dual of the first Steenrod square; preserves weight, lowers dim by 1."""
    return _f2_sum(map(_sq1_monomial, e.terms))


def _sqj_monomial(m: AmbientMonomial, j: int) -> AmbientElement:
    if m.dim < j:
        return ZERO
    if j == 1:
        return _sq1_monomial(m)
    cached = _SQJ_CACHE.get((m, j))
    if cached is not None:
        return cached
    # Peel one copy of the first polynomial generator and apply the dual
    # Cartan rule; on a single generator only Sq_0^* and Sq_1^* are nonzero.
    (i, e) = m.q_exps[0]
    exps = dict(m.q_exps)
    if e == 1:
        del exps[i]
    else:
        exps[i] = e - 1
    rest = monomial(m.g_exp, exps)
    out = element(q_gen(i)) * _sqj_monomial(rest, j)
    if i >= 2:
        out = out + element(monomial(0, {i - 1: 2})) * _sqj_monomial(rest, j - 1)
    _SQJ_CACHE[(m, j)] = out
    return out


def sqj_dual(e: AmbientElement, j: int) -> AmbientElement:
    """The dual of Sq^j, extended to products by the dual Cartan rule.

    Generator values vanish for j >= 2; j = 1 delegates to ``sq1_dual``.
    """
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if j == 1:
        return sq1_dual(e)
    return _f2_sum(_sqj_monomial(m, j) for m in e.terms)
