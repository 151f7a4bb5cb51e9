"""Unit tests for the homology operations, checked against hand expansions
and an independent recursive Cartan splitter."""

import pytest

from braidrat.ambient import (
    ONE,
    ZERO,
    G,
    G_INV,
    GeneratorLimitError,
    TensorElement,
    element,
    monomial,
    q_gen,
    tensor,
)
from braidrat import operations
from braidrat.coalgebra import s_set
from braidrat.families import (
    Family,
    FamilyMonomial,
    _generator_halves,
    embed,
    family_monomial,
    top_class,
)
from braidrat.operations import (
    araki_kudo_q,
    coproduct,
    iterated_q,
    sq1_dual,
    sqj_dual,
)

from helpers import (
    _reference_generator,
    coproduct_dims,
    q_recursive_element,
    random_element,
    random_monomial,
    reference_coproduct,
    reference_sqj,
)

import random

RHO0 = element(G_INV * q_gen(1))


def rho(i):
    return embed(family_monomial(Family.RAT, {i: 1}))


def test_q_inverse_generator():
    assert araki_kudo_q(element(G_INV)) == element(monomial(-4, {1: 1}))


def test_q_of_primitive_combination():
    assert araki_kudo_q(RHO0) == element(monomial(-2, {2: 1}), monomial(-4, {1: 3}))


def test_q_kills_even_powers():
    assert araki_kudo_q(element(monomial(2))) == ZERO
    assert araki_kudo_q(element(monomial(0, {1: 2}))) == ZERO
    assert araki_kudo_q(element(monomial(-6))) == ZERO


def test_q_on_unit_and_zero():
    assert araki_kudo_q(ONE) == ZERO
    assert araki_kudo_q(ZERO) == ZERO


def test_q_generator_tower():
    assert araki_kudo_q(element(q_gen(1))) == element(q_gen(2))
    assert araki_kudo_q(element(q_gen(5))) == element(q_gen(6))


def test_q_g_power_closed_form_matches_recursive_splitting():
    for a in range(-16, 17):
        got = araki_kudo_q(element(monomial(a)))
        oracle = q_recursive_element(element(monomial(a)))
        assert got == oracle
        if a % 2 == 0:
            assert got == ZERO
        else:
            assert got == element(monomial(2 * (a - 1), {1: 1}))


def test_q_mixed_monomials_match_recursive_splitting():
    samples = [
        monomial(3, {1: 1}),
        monomial(-2, {1: 2, 2: 1}),
        monomial(1, {2: 3}),
        monomial(-5, {1: 1, 3: 1}),
        monomial(0, {1: 3, 2: 2}),
    ]
    for m in samples:
        assert araki_kudo_q(element(m)) == q_recursive_element(element(m))


def test_q_cartan_formula_spot():
    # Q(g * Qg) = g^2 Q2g + (Qg)^3
    got = araki_kudo_q(element(G * q_gen(1)))
    assert got == element(monomial(2, {2: 1}), monomial(0, {1: 3}))


def test_iterated_q_expansions():
    assert iterated_q(RHO0, 2) == element(monomial(-4, {3: 1}), monomial(-8, {1: 4, 2: 1}))
    c0 = element(monomial(-2, {1: 1}))
    assert iterated_q(c0, 1) == element(monomial(-4, {2: 1}))
    assert iterated_q(c0, 2) == element(monomial(-8, {3: 1}))


def test_coproduct_of_group_like_powers():
    assert coproduct(element(G)) == TensorElement(frozenset({(G, G)}))
    m = monomial(-3)
    assert coproduct(element(m)) == TensorElement(frozenset({(m, m)}))


def test_coproduct_two_term_formula():
    for i in range(1, 9):
        twist = monomial(1 << i)
        expected = TensorElement(frozenset({(twist, q_gen(i)), (q_gen(i), twist)}))
        assert coproduct(element(q_gen(i))) == expected


def test_coproduct_primitive_in_component():
    m = G_INV * q_gen(1)
    expected = TensorElement(frozenset({(G, m), (m, G)}))
    assert coproduct(RHO0) == expected


def test_coproduct_is_multiplicative_spot():
    a = element(monomial(2, {1: 1}))
    b = element(monomial(-1, {2: 1}))
    assert coproduct(a * b) == coproduct(a) * coproduct(b)


def four_term_formula(i):
    g_pow = element(monomial(1 << i))
    q_i = element(q_gen(i))
    rho_0_pow = RHO0 ** (1 << i)
    rho_i = rho(i)
    return (
        tensor(g_pow, rho_i)
        + tensor(q_i, rho_0_pow)
        + tensor(rho_0_pow, q_i)
        + tensor(rho_i, g_pow)
    )


@pytest.mark.parametrize("i", range(1, 7))
def test_coproduct_four_term_formula(i):
    assert coproduct(rho(i)) == four_term_formula(i)


def test_coproduct_counit_collapse():
    e = element(monomial(3, {1: 1}), monomial(1, {2: 1}))
    psi = coproduct(e)
    left_collapse = ZERO
    right_collapse = ZERO
    for a, b in psi.terms:
        if a.dim == 0:
            left_collapse = left_collapse + element(b)
        if b.dim == 0:
            right_collapse = right_collapse + element(a)
    assert left_collapse == e
    assert right_collapse == e


def test_coproduct_pairs_have_equal_weights_per_side():
    e = element(monomial(-1, {1: 1, 2: 1}))
    for a, b in coproduct(e).terms:
        assert a.weight == b.weight == -1 + 2 + 4


def test_coproduct_dims_match_decoded_pairs():
    rng = random.Random(4412)
    cases = [
        random_element(rng, max_terms=4, max_g=16, max_idx=8, max_factors=3, max_exp=40)
        for _ in range(200)
    ]
    cases += [embed(top_class(f, k)) for f in (Family.RAT, Family.BRAID) for k in range(1, 40)]
    cases += [embed(family_monomial(Family.CONF, {i: 1, i + 1: 2})) for i in range(4)]
    for e in cases:
        assert coproduct_dims(e) == {(a.dim, b.dim) for a, b in coproduct(e).terms}


def test_coproduct_left_dims_match_packed_pairs():
    rng = random.Random(5120)
    cases = [
        random_monomial(rng, max_g=16, max_idx=8, max_factors=3, max_exp=40)
        for _ in range(300)
    ]
    cases += [monomial(operations._HALF - 1), monomial(3 - operations._HALF, {1: 1})]
    for m in cases:
        left = {s for s, _ in coproduct_dims(element(m))}
        assert operations._left_dims(operations._pack(m)) == sum(1 << s for s in left)


@pytest.mark.parametrize(
    "m",
    [monomial(-(1 << 40)), monomial(-(1 << 40), {1: 1}), monomial(0, {1: 1 << 40}),
     monomial(operations._HALF), monomial(-operations._HALF),
     monomial(1 - operations._HALF, {1: 1}), family_monomial(Family.RAT, {32: 1}),
     family_monomial(Family.BRAID, {31: 1}), family_monomial(Family.CONF, {29: 1})],
)
def test_coproduct_field_range_guard(m):
    if isinstance(m, FamilyMonomial):
        # the first generator of each family that no packed half can hold
        # (test_packed_generators_fill_the_field_range); the CLI refuses top
        # classes that reach one by their predicted support cost first
        with pytest.raises(GeneratorLimitError):
            s_set(m)
        return
    for read_out in (coproduct, coproduct_dims):
        with pytest.raises(GeneratorLimitError):
            read_out(element(m))
    with pytest.raises(GeneratorLimitError):
        operations._pack(m)
    assert m not in operations._PSI_CACHE


GENERATOR_LIMITS = {Family.BRAID: 31, Family.RAT: 29, Family.CONF: 29}


def test_packed_generators_fill_the_field_range():
    for family, limit in GENERATOR_LIMITS.items():
        for idx in range(-1 if family is Family.RAT else 0, limit):
            halves, _ = _generator_halves(family, idx)
            if idx <= 6:  # the recursive oracle is too deep past this
                expected = _reference_generator(family, idx)
                assert halves == set(map(operations._pack, expected.terms))
        with pytest.raises(GeneratorLimitError):
            _generator_halves(family, limit)
    # the view keeps exact answers up to the range, and refuses past it
    assert araki_kudo_q(element(q_gen(29))) == element(q_gen(30))
    with pytest.raises(GeneratorLimitError):
        araki_kudo_q(element(q_gen(30)))
    # Q(g^a) = g^(2a - 2) Qg has field bound 2|a| + 4 when a is odd and negative
    a = 3 - (1 << 30)
    assert araki_kudo_q(element(monomial(a))) == element(monomial(2 * a - 2, {1: 1}))
    with pytest.raises(GeneratorLimitError):
        araki_kudo_q(element(monomial(a - 2)))


def test_coproduct_at_field_range_edge():
    for m in (monomial(operations._HALF - 1), monomial(1 - operations._HALF),
              monomial(3 - operations._HALF, {1: 1})):
        assert coproduct(element(m)) == reference_coproduct(element(m))


def test_sq1_generator_values():
    assert sq1_dual(element(G)) == ZERO
    assert sq1_dual(element(G_INV)) == ZERO
    assert sq1_dual(element(q_gen(1))) == ZERO
    assert sq1_dual(element(q_gen(2))) == element(monomial(0, {1: 2}))
    assert sq1_dual(element(q_gen(3))) == element(monomial(0, {2: 2}))


def test_sq1_reference_values():
    assert sq1_dual(element(monomial(2, {2: 1}))) == element(monomial(2, {1: 2}))
    # g * Q(g^-1 Qg) expands to g^-1 Q2g + g^-3 (Qg)^3 and maps to g^-1 (Qg)^2
    x = element(G) * araki_kudo_q(RHO0)
    assert x == element(monomial(-1, {2: 1}), monomial(-3, {1: 3}))
    assert sq1_dual(x) == element(monomial(-1, {1: 2}))
    assert sq1_dual(element(monomial(3))) == ZERO


def test_sq1_vanishes_on_squares():
    for e in (element(monomial(1, {2: 1})), rho(2)):
        assert sq1_dual(e.square()) == ZERO


def test_sq1_preserves_weight_lowers_dim():
    e = element(monomial(-4, {1: 2, 3: 1}))
    img = sq1_dual(e)
    assert not img.is_zero
    for m in img.terms:
        assert m.weight == -4 + 4 + 8
        assert m.dim == (2 + 7) - 1


def test_sqj_generator_values_vanish():
    assert sqj_dual(element(q_gen(2)), 2) == ZERO
    assert sqj_dual(element(q_gen(4)), 3) == ZERO


def test_sqj_dual_cartan_on_square():
    # only the (1, 1) split survives: Sq_2^*((Q2g)^2) = (Sq_1^* Q2g)^2
    assert sqj_dual(element(monomial(0, {2: 2})), 2) == element(monomial(0, {1: 4}))


def test_sqj_zero_above_dimension():
    e = element(monomial(1, {1: 1}))  # dimension 1
    for j in (2, 3, 5):
        assert sqj_dual(e, j) == ZERO


def test_sqj_delegates_to_sq1():
    e = element(monomial(2, {2: 1}), monomial(0, {3: 1}))
    assert sqj_dual(e, 1) == sq1_dual(e)
    with pytest.raises(ValueError):
        sqj_dual(e, 0)


def test_sqj_hand_expansion():
    # Sq_2^*(Q2g * Q3g) = Sq_1^*(Q2g) Sq_1^*(Q3g) by the dual Cartan rule
    e = element(monomial(0, {2: 1, 3: 1}))
    expected = element(monomial(0, {1: 2, 2: 2}))
    assert sqj_dual(e, 2) == expected


def test_q_bigrade_law_spot():
    e = element(monomial(-1, {1: 1}))  # weight 1, dim 1
    img = araki_kudo_q(e)
    for m in img.terms:
        assert m.weight == 2 and m.dim == 3


def test_packed_sqj_matches_object_reference():
    rng = random.Random(7121)
    cases = [
        (random_element(rng, max_terms=4, max_g=16, max_idx=6, max_factors=3, max_exp=9),
         (1, 2, 3))
        for _ in range(300)
    ]
    for t in (top_class(f, k) for f in (Family.RAT, Family.BRAID) for k in range(1, 24)):
        # on the top classes, of dim d, also the edge of the dim filter
        cases.append((embed(t), {j for j in (1, 2, 3, t.dim - 1, t.dim, t.dim + 1) if j >= 1}))
    for e, js in cases:
        halves = list(map(operations._pack, e.terms))
        for j in js:
            expected = reference_sqj(e, j)
            # packed ints compare the dim field too, which no view decodes
            assert operations._sqj(halves, j) == set(map(operations._pack, expected.terms))
            assert sqj_dual(e, j) == expected


def test_packed_halves_round_trip():
    half = operations._HALF
    rng = random.Random(9001)
    monos = [random_monomial(rng, max_g=40, max_idx=8, max_factors=3, max_exp=40)
             for _ in range(60)]
    # negative halves (g only, g < 0) and the largest admitted index, 30
    monos += [monomial(-5), monomial(1 - half), monomial(half - 1), monomial(),
              monomial(-(1 << 30) + 1, {30: 1}), monomial(3 - (1 << 30), {1: 1, 30: 1}),
              monomial(0, {29: 1, 30: 1})]
    for m in monos:
        h = operations._pack(m)
        assert operations._unpack(h) == m
        assert operations._fields(h)[:1] in ([], [m.dim])
    with pytest.raises(GeneratorLimitError):
        operations._pack(q_gen(31))


def test_psi_half_terms_are_distinct_submask_choices():
    # the closed form forms one pair per choice of a submask of every e_i and
    # cancels nothing, and each pair (u, v) multiplies to m * g^weight(m)
    rng = random.Random(2511)
    monos = [random_monomial(rng, max_g=40, max_idx=8, max_factors=3, max_exp=40)
             for _ in range(200)]
    for m in monos:
        h = operations._pack(m)
        pairs = operations._psi_half(h)
        assert len(pairs) == 1 << sum(bin(e).count("1") for _, e in m.q_exps), m
        assert all(u + v == h + m.weight * operations._G for u, v in pairs), m
