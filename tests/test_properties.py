"""Property-based tests for the algebraic laws, on elements of bounded size."""

from collections import Counter
from contextlib import suppress
from functools import cache

from hypothesis import given, settings, strategies as st

from braidrat.ambient import (
    ZERO,
    element,
    monomial,
    tensor_components,
    xor_all,
)
from braidrat.coalgebra import (
    GradedCoalgebra,
    coalgebras_isomorphic,
    extract_coalgebra,
    s_set,
    steenrod_matrix,
    verify_coalgebra_map,
)
from braidrat.families import Family, embed
from braidrat.operations import araki_kudo_q, coproduct, sq1_dual

from helpers import random_family_monomial, reference_coproduct

import random

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def monomials(draw):
    g = draw(st.integers(-4, 4))
    n = draw(st.integers(0, 2))
    idxs = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n, unique=True))
    exps = {i: draw(st.integers(1, 3)) for i in idxs}
    return monomial(g, exps)


@st.composite
def elements(draw):
    out = ZERO
    for m in draw(st.lists(monomials(), max_size=3)):
        out = out + element(m)
    return out


@SETTINGS
@given(st.lists(st.lists(st.integers(0, 12), unique=True, max_size=8), max_size=8))
def test_xor_all_matches_counter_parity(parts):
    counts = Counter(x for part in parts for x in part)
    assert xor_all(parts) == {x for x, n in counts.items() if n & 1}


@SETTINGS
@given(elements(), elements())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@SETTINGS
@given(elements(), elements(), elements())
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@SETTINGS
@given(elements())
def test_addition_self_cancels(a):
    assert a + a == ZERO
    assert a + ZERO == a


@SETTINGS
@given(monomials(), monomials())
def test_bigrades_add_under_multiplication(m, n):
    assert (m * n).weight == m.weight + n.weight
    assert (m * n).dim == m.dim + n.dim


@SETTINGS
@given(monomials(), monomials())
def test_cartan_formula(m, n):
    lhs = araki_kudo_q(element(m) * element(n))
    rhs = element(m * m) * araki_kudo_q(element(n)) + araki_kudo_q(element(m)) * element(
        n * n
    )
    assert lhs == rhs


@SETTINGS
@given(elements())
def test_q_kills_squares(e):
    assert araki_kudo_q(e.square()) == ZERO


@SETTINGS
@given(monomials())
def test_q_bigrade_law(m):
    img = araki_kudo_q(element(m))
    for t in img.terms:
        assert t.weight == 2 * m.weight
        assert t.dim == 2 * m.dim + 1


@st.composite
def wide_elements(draw):
    """Mixed weights, negative g exponents, exponents up to 40, indices up to 8."""
    out = ZERO
    for _ in range(draw(st.integers(0, 4))):
        idxs = draw(st.lists(st.integers(1, 8), max_size=3, unique=True))
        exps = {i: draw(st.integers(1, 40)) for i in idxs}
        out = out + element(monomial(draw(st.integers(-64, 64)), exps))
    return out


@SETTINGS
@given(wide_elements())
def test_coproduct_matches_object_route(e):
    assert coproduct(e) == reference_coproduct(e)


@SETTINGS
@given(elements(), elements())
def test_coproduct_multiplicative(a, b):
    assert coproduct(a * b) == coproduct(a) * coproduct(b)


@SETTINGS
@given(elements())
def test_coproduct_coassociative(e):
    psi = coproduct(e)
    left: Counter = Counter()
    for a, b in psi.terms:
        for x, y in coproduct(element(a)).terms:
            left[(x, y, b)] += 1
    right: Counter = Counter()
    for a, b in psi.terms:
        for x, y in coproduct(element(b)).terms:
            right[(a, x, y)] += 1
    assert {t for t, c in left.items() if c & 1} == {t for t, c in right.items() if c & 1}


@SETTINGS
@given(elements())
def test_coproduct_counit(e):
    psi = coproduct(e)
    left = ZERO
    right = ZERO
    for a, b in psi.terms:
        if a.dim == 0:
            left = left + element(b)
        if b.dim == 0:
            right = right + element(a)
    assert left == e and right == e


@SETTINGS
@given(monomials())
def test_coproduct_pairs_carry_equal_weights(m):
    for a, b in coproduct(element(m)).terms:
        assert a.weight == b.weight == m.weight
        assert a.dim + b.dim == m.dim


@SETTINGS
@given(monomials())
def test_tensor_components_reassemble(m):
    psi = coproduct(element(m))
    parts = tensor_components(psi, m.dim)
    total = psi + psi  # zero tensor of the right type
    for part in parts.values():
        assert not part.is_zero
        total = total + part
    assert total == psi


@SETTINGS
@given(elements())
def test_sq1_squared_vanishes(e):
    assert sq1_dual(sq1_dual(e)) == ZERO


@SETTINGS
@given(elements(), elements())
def test_sq1_is_a_derivation(a, b):
    assert sq1_dual(a * b) == sq1_dual(a) * b + a * sq1_dual(b)


@SETTINGS
@given(monomials())
def test_sq1_bigrade_law(m):
    for t in sq1_dual(element(m)).terms:
        assert t.weight == m.weight
        assert t.dim == m.dim - 1


def test_support_sets_symmetric_with_endpoints():
    rng = random.Random(20260808)
    for _ in range(300):
        fm = random_family_monomial(rng)
        d = fm.dim
        s = s_set(fm)
        assert 0 in s and d in s
        assert all((d - x) in s for x in s)


def test_embed_top_class_nonzero_small():
    rng = random.Random(7)
    for _ in range(100):
        fm = random_family_monomial(rng)
        assert not embed(fm).is_zero


# What a caller might pass by mistake: scalars of every kind, and lists,
# dicts keyed by small ints and sets, nested
JUNK = st.recursive(
    st.one_of(st.integers(), st.floats(), st.text(max_size=3), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.integers(-1, 5), inner, max_size=5),
        st.sets(st.integers(-1, 40), max_size=5),
    ),
    max_leaves=12,
)


@cache
def _braid6_rat3():
    a, b = extract_coalgebra(Family.BRAID, 6), extract_coalgebra(Family.RAT, 3)
    sq = (steenrod_matrix(Family.BRAID, 6), steenrod_matrix(Family.RAT, 3))
    return a, b, sq, coalgebras_isomorphic(a, b, steenrod=sq).witness


def _replaced(data, nested, depth, junk):
    """``nested`` with junk at a drawn place ``depth`` levels down, or
    fewer where a level is empty."""
    if not depth or not nested:
        return junk
    i = data.draw(st.integers(0, len(nested) - 1))
    return (*nested[:i], _replaced(data, nested[i], depth - 1, junk), *nested[i + 1:])


@SETTINGS
@given(st.data(), JUNK, st.sampled_from(["phi", "steenrod-a", "steenrod-b", "delta"]))
def test_junk_matrices_raise_value_error_or_nothing_else(data, junk, where):
    # phi (itself, a degree or a row), one side of the Sq_1^* pair (itself or
    # a degree) or a level of delta (itself down to one int) is junk
    a, b, sq, phi = _braid6_rat3()
    if where == "phi":
        phi = _replaced(data, phi, data.draw(st.integers(0, 2)), junk)
    elif where == "delta":
        delta = _replaced(data, a.delta, data.draw(st.integers(0, 4)), junk)
        try:
            a = GradedCoalgebra(a.dims, delta)
        except ValueError:
            return
    else:
        side = where == "steenrod-b"
        mats = junk
        if data.draw(st.booleans()):
            mats = {**sq[side], data.draw(st.sampled_from(sorted(sq[side]))): junk}
        sq = (sq[0], mats) if side else (mats, sq[1])
    with suppress(ValueError):
        coalgebras_isomorphic(a, b, steenrod=sq)
    with suppress(ValueError):
        verify_coalgebra_map(a, b, phi, steenrod=sq)
