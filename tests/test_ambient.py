"""Unit tests for the ambient algebra arithmetic."""

import pytest

from braidrat.ambient import (
    ONE,
    ZERO,
    Bigrade,
    G,
    G_INV,
    TensorElement,
    element,
    monomial,
    q_gen,
    tensor,
    tensor_components,
)


def test_monomial_canonical_form_drops_zero_exponents():
    assert monomial(2, {1: 0, 2: 3}) == monomial(2, {2: 3})
    assert monomial(0, {}) == monomial()


def test_monomial_rejects_bad_indices_and_exponents():
    with pytest.raises(ValueError):
        monomial(0, {0: 1})
    with pytest.raises(ValueError):
        monomial(0, {1: -1})


def test_monomial_bigrades():
    assert monomial(1).bigrade == Bigrade(1, 0)
    assert q_gen(1).bigrade == Bigrade(2, 1)
    assert q_gen(3).bigrade == Bigrade(8, 7)
    # g^-2 Q2g and g^-4 (Qg)^3 are both of weight 2 and dimension 3
    assert monomial(-2, {2: 1}).bigrade == Bigrade(2, 3)
    assert monomial(-4, {1: 3}).bigrade == Bigrade(2, 3)


def test_monomial_product_adds_exponents():
    m = monomial(-1, {1: 1})
    assert m * m == monomial(-2, {1: 2})
    assert G * G_INV == monomial()
    assert monomial(2, {1: 1}) * monomial(-1, {2: 2}) == monomial(1, {1: 1, 2: 2})


def test_element_cancellation_on_construction():
    assert element(q_gen(1), q_gen(1)) == ZERO
    assert element(q_gen(1), q_gen(2), q_gen(1)) == element(q_gen(2))


def test_element_addition_is_symmetric_difference():
    x = element(G, q_gen(1))
    assert x + ZERO == x
    assert x + x == ZERO
    assert element(G) + element(q_gen(1)) == x
    assert len((element(G) + element(q_gen(1))).terms) == 2


def test_element_multiplication_distributes_and_cancels():
    assert element(G) * element(G_INV) == ONE
    two = element(G, q_gen(1))
    # (g + Qg)(g + Qg) = g^2 + (Qg)^2 over F2
    assert two * two == element(monomial(2), monomial(0, {1: 2}))


def test_element_power_matches_repeated_multiplication():
    x = element(monomial(-1, {1: 1}), monomial(2))
    by_mul = ONE
    for _ in range(5):
        by_mul = by_mul * x
    assert x ** 5 == by_mul
    assert x ** 0 == ONE


def test_tensor_components_splits_by_left_dimension():
    psi_qg = TensorElement(frozenset({(monomial(2), q_gen(1)), (q_gen(1), monomial(2))}))
    parts = tensor_components(psi_qg, 1)
    assert parts == {
        0: TensorElement(frozenset({(monomial(2), q_gen(1))})),
        1: TensorElement(frozenset({(q_gen(1), monomial(2))})),
    }


def test_tensor_components_empty_and_error():
    assert tensor_components(TensorElement(), 3) == {}
    bad = TensorElement(frozenset({(q_gen(1), q_gen(1))}))
    with pytest.raises(ValueError):
        tensor_components(bad, 3)


def test_tensor_product_cancels():
    t = TensorElement(frozenset({(G, q_gen(1)), (q_gen(1), G)}))
    sq = t * t
    # cross terms appear twice and cancel
    assert sq == TensorElement(
        frozenset({(monomial(2), monomial(0, {1: 2})), (monomial(0, {1: 2}), monomial(2))})
    )
    assert t.square() == sq


def test_tensor_of_elements_expands_all_pairs():
    t = tensor(element(G, q_gen(1)), element(G_INV))
    assert t.terms == frozenset({(G, G_INV), (q_gen(1), G_INV)})


def test_string_rendering():
    assert str(monomial()) == "1"
    assert str(monomial(-4, {1: 3})) == "g^-4*(Qg)^3"
    assert str(monomial(1, {2: 1})) == "g*Q2g"
    assert str(ZERO) == "0"


def test_json_round_shapes():
    m = monomial(-2, {1: 2, 3: 1})
    assert m.to_json() == {"g": -2, "q": {"1": 2, "3": 1}}
    e = element(m, G)
    assert e.to_json() == [mm.to_json() for mm in sorted(e.terms)]
