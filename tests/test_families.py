"""Unit tests for generator families, bases, embeddings and top classes."""

import itertools

import pytest

from braidrat import families, gf2
from braidrat.ambient import Bigrade, element, monomial, q_gen
from braidrat.families import (
    BASIS_BOUND,
    Family,
    FamilyMonomial,
    _embed,
    basis,
    basis_size,
    check_top_class_range,
    check_top_class_size,
    embed,
    family_monomial,
    generator_bigrade,
    generator_coproduct,
    generator_steenrod,
    poincare_vector,
    top_class,
)
from braidrat.operations import _pack

import helpers
from helpers import ambient_generator_coproduct, ambient_generator_steenrod, reference_embed


def test_generator_bigrades():
    assert generator_bigrade(Family.BRAID, 0) == Bigrade(1, 0)
    assert generator_bigrade(Family.BRAID, 3) == Bigrade(8, 7)
    assert generator_bigrade(Family.RAT, -1) == Bigrade(1, 0)
    assert generator_bigrade(Family.RAT, 0) == Bigrade(1, 1)
    assert generator_bigrade(Family.RAT, 2) == Bigrade(4, 7)
    assert generator_bigrade(Family.CONF, 0) == Bigrade(1, 1)
    assert generator_bigrade(Family.CONF, 2) == Bigrade(4, 7)


def test_generator_index_validation():
    with pytest.raises(ValueError):
        generator_bigrade(Family.BRAID, -1)
    with pytest.raises(ValueError):
        generator_bigrade(Family.RAT, -2)
    with pytest.raises(ValueError):
        family_monomial(Family.CONF, {-1: 1})


def test_braid_basis_weight_six():
    got = [(fm.label(), fm.dim) for fm in basis(Family.BRAID, 6)]
    assert got == [
        ("g^6", 0),
        ("g^4*gamma_1", 1),
        ("g^2*gamma_1^2", 2),
        ("gamma_1^3", 3),
        ("g^2*gamma_2", 3),
        ("gamma_1*gamma_2", 4),
    ]
    embeds = [embed(fm) for fm in basis(Family.BRAID, 6)]
    assert embeds == [
        element(monomial(6)),
        element(monomial(4, {1: 1})),
        element(monomial(2, {1: 2})),
        element(monomial(0, {1: 3})),
        element(monomial(2, {2: 1})),
        element(monomial(0, {1: 1, 2: 1})),
    ]


def test_rat_basis_weight_three():
    bas = basis(Family.RAT, 3)
    assert [fm.dim for fm in bas] == [0, 1, 2, 3, 3, 4]
    embeds = [embed(fm) for fm in bas]
    assert embeds == [
        element(monomial(3)),
        element(monomial(1, {1: 1})),
        element(monomial(-1, {1: 2})),
        element(monomial(-3, {1: 3})),
        element(monomial(-1, {2: 1}), monomial(-3, {1: 3})),
        element(monomial(-3, {1: 1, 2: 1}), monomial(-5, {1: 4})),
    ]


def test_small_bases():
    assert [fm.label() for fm in basis(Family.BRAID, 1)] == ["g"]
    assert [fm.label() for fm in basis(Family.RAT, 1)] == ["g", "rho_0"]
    assert [fm.label() for fm in basis(Family.CONF, 2)] == ["1", "c_0", "c_0^2", "c_1"]


def test_conf_basis_includes_unit_and_all_lower_weights():
    bas = basis(Family.CONF, 3)
    assert FamilyMonomial(Family.CONF, ()) in bas
    weights = sorted({fm.weight for fm in bas})
    assert weights == [0, 1, 2, 3]


def test_basis_bounds():
    with pytest.raises(ValueError):
        basis(Family.BRAID, 0)
    with pytest.raises(ValueError):
        basis_size(Family.BRAID, 0)


def test_basis_size_counts_the_enumerated_basis():
    for family in Family:
        for k in range(1, 33):
            assert basis_size(family, k) == len(basis(family, k)), (family, k)
    # counted once by enumeration: 3 s for the two bases of 27,338, 500 s for rat:200
    assert basis_size(Family.RAT, 64) == basis_size(Family.BRAID, 128) == 27338
    assert basis_size(Family.RAT, 200) == 7389572


def test_basis_rows_match_a_product_enumeration():
    # every exponent vector in the box 0..k // weight, in itertools.product's
    # lexicographic order, kept at weight k (at most k for conf) and
    # appended to the row of its dim
    for family in Family:
        for k in range(1, 21):
            idxs = [-1] * (family is Family.RAT) + [i for i in range(k) if 1 << i <= k]
            gens = [generator_bigrade(family, i) for i in idxs]
            rows = []
            for vec in itertools.product(*(range(k // g.weight + 1) for g in gens)):
                weight = sum(e * g.weight for e, g in zip(vec, gens))
                if weight == k or family is Family.CONF and weight < k:
                    d = sum(e * g.dim for e, g in zip(vec, gens))
                    rows += [[] for _ in range(d + 1 - len(rows))]
                    rows[d].append(FamilyMonomial(family, tuple(
                        (i, e) for i, e in zip(idxs, vec) if e)))
            assert families._basis_by_dim(family, k) == rows, (family, k)


def test_embeddings_of_generators():
    assert embed(family_monomial(Family.RAT, {0: 1})) == element(monomial(-1, {1: 1}))
    assert embed(family_monomial(Family.RAT, {1: 1})) == element(
        monomial(-2, {2: 1}), monomial(-4, {1: 3})
    )
    for i in range(4):
        assert embed(family_monomial(Family.BRAID, {i: 1})) == element(
            monomial(1) if i == 0 else q_gen(i)
        )
    assert embed(family_monomial(Family.CONF, {0: 1})) == element(monomial(-2, {1: 1}))
    assert embed(family_monomial(Family.CONF, {2: 1})) == element(monomial(-8, {3: 1}))


def test_embed_is_multiplicative():
    a = family_monomial(Family.RAT, {-1: 2, 0: 1})
    b = family_monomial(Family.RAT, {0: 1, 1: 1})
    assert embed(a * b) == embed(a) * embed(b)


def test_embed_preserves_bigrade_for_braid_and_rat():
    for family, k in ((Family.BRAID, 7), (Family.RAT, 5)):
        for fm in basis(family, k):
            e = embed(fm)
            assert not e.is_zero
            for m in e.terms:
                assert m.bigrade == fm.bigrade


def test_conf_embedding_preserves_dim_with_weight_zero():
    # configuration classes all live in the ambient weight-0 component
    for fm in basis(Family.CONF, 4):
        for m in embed(fm).terms:
            assert m.weight == 0
            assert m.dim == fm.dim


def test_embed_injective_on_bases():
    for family, k in ((Family.BRAID, 6), (Family.RAT, 5), (Family.CONF, 4)):
        bas = basis(family, k)
        support = sorted({m for fm in bas for m in embed(fm).terms})
        index = {m: i for i, m in enumerate(support)}
        rows = [sum(1 << index[m] for m in embed(fm).terms) for fm in bas]
        assert gf2.rank(rows) == len(bas)


def test_top_class_values():
    assert top_class(Family.RAT, 3) == family_monomial(Family.RAT, {0: 1, 1: 1})
    assert top_class(Family.RAT, 3).dim == 4
    assert top_class(Family.BRAID, 1) == family_monomial(Family.BRAID, {1: 1})
    with pytest.raises(ValueError):
        top_class(Family.CONF, 2)
    assert top_class(Family.RAT, 1024) == family_monomial(Family.RAT, {10: 1})
    with pytest.raises(ValueError, match="k must be >= 1"):
        top_class(Family.RAT, 0)
    for k in range(1, 1 << 14):
        for family in (Family.RAT, Family.BRAID):
            check_top_class_size(family, k)
    # braid:2^27 costs exactly SUPPORT_BOUND = 2^28 bits, one more k exceeds it
    assert top_class(Family.BRAID, 1 << 27).dim == (1 << 28) - 1
    for family, k, cost in ((Family.BRAID, (1 << 27) + 1, (1 << 28) + 1),
                            (Family.RAT, (1 << 15) - 1, (1 << 14) * ((1 << 16) - 16))):
        with pytest.raises(ValueError, match=f"cost {cost} exceeds bound {1 << 28}"):
            top_class(family, k)


def test_top_class_range_bounds_the_summed_cost():
    # rat and braid at k = 1..1997 cost 267,489,462 bits together, within
    # SUPPORT_BOUND = 2^28; k = 1998 adds 1,025,173.  Every k of such a range
    # passes check_top_class_size on its own.
    check_top_class_range(1, 1997)
    check_top_class_range(16383, 16383)
    for lo, hi, stop, cost in ((1, 1998, 1998, 268514635), (1, 16383, 1998, 268514635),
                               (100, 40000, 1999, 269432724),
                               (1 << 26, 1 << 26, 1 << 26, 3 << 27)):
        with pytest.raises(ValueError, match=f"cost {cost} of k = {lo}..{stop} exceeds"):
            check_top_class_range(lo, hi)
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_top_class_range(0, 5)


def test_top_class_size_guard_predicts_the_embedding(monkeypatch):
    # the guard's cost is terms * (dim + 1), with terms the monomials of the
    # embedding: check it against the embedding at the bound and one below
    for family in (Family.RAT, Family.BRAID):
        for k in range(1, 2049):
            x = top_class(family, k)
            terms = len(_embed(x))
            assert terms == (1 << (k >> 1).bit_count() if family is Family.RAT else 1)
            assert x.dim == 2 * k - k.bit_count()
            cost = terms * (x.dim + 1)
            with monkeypatch.context() as patch:
                patch.setattr(families, "SUPPORT_BOUND", cost)
                check_top_class_size(family, k)
                patch.setattr(families, "SUPPORT_BOUND", cost - 1)
                with pytest.raises(ValueError, match="exceeds bound"):
                    check_top_class_size(family, k)


def test_top_class_dimension_for_all_ones_weights():
    # k = 2^(r+1) - 1 gives top dimension 2^(r+2) - r - 3
    for r in range(5):
        k = (1 << (r + 1)) - 1
        fm = top_class(Family.RAT, k)
        assert fm == family_monomial(Family.RAT, {j: 1 for j in range(r + 1)})
        assert fm.dim == (1 << (r + 2)) - r - 3


def test_top_class_is_unique_maximum_of_basis():
    for k in range(1, 17):
        rat_dims = [fm.dim for fm in basis(Family.RAT, k)]
        braid_dims = [fm.dim for fm in basis(Family.BRAID, 2 * k)]
        x = top_class(Family.RAT, k)
        y = top_class(Family.BRAID, k)
        assert x.dim == max(rat_dims) and rat_dims.count(x.dim) == 1
        assert y.weight == 2 * k
        assert y.dim == max(braid_dims) and braid_dims.count(y.dim) == 1


def test_poincare_vectors():
    assert poincare_vector(Family.BRAID, 6) == [1, 1, 1, 2, 1]
    assert poincare_vector(Family.RAT, 3) == [1, 1, 1, 2, 1]
    for k in range(1, 17):
        assert poincare_vector(Family.BRAID, 2 * k) == poincare_vector(Family.RAT, k)


def test_odd_braid_basis_is_g_times_even_basis():
    g = FamilyMonomial(Family.BRAID, ((0, 1),))
    for k in range(1, 11):
        even = basis(Family.BRAID, 2 * k)
        odd = basis(Family.BRAID, 2 * k + 1)
        assert {fm * g for fm in even} == set(odd)
        assert len(even) == len(odd)


def test_family_monomial_json():
    assert family_monomial(Family.RAT, {-1: 3}).to_json() == {
        "family": "rat",
        "exps": {"g": 3},
    }
    assert family_monomial(Family.RAT, {0: 1, 1: 1}).to_json() == {
        "family": "rat",
        "exps": {"rho_0": 1, "rho_1": 1},
    }
    assert family_monomial(Family.CONF, {}).to_json() == {"family": "conf", "exps": {}}


def test_family_monomial_mul_rejects_mixed_families():
    with pytest.raises(ValueError):
        family_monomial(Family.RAT, {0: 1}) * family_monomial(Family.BRAID, {0: 1})


def test_packed_embedding_matches_object_products():
    # every basis element, decoded and as packed halves with their dim fields
    for family, top in ((Family.RAT, 16), (Family.BRAID, 32), (Family.CONF, 16)):
        for k in range(1, top + 1):
            for fm in basis(family, k):
                expected = reference_embed(fm)
                assert embed(fm) == expected, fm
                assert _embed(fm) == frozenset(map(_pack, expected.terms)), fm


def _admitted_generators():
    """Every generator that a component admitted by BASIS_BOUND can hold.
    Multiplying by g (braid, rat) or including weight <= k in weight <= k + 1
    (conf) injects each basis into the next, so basis sizes never fall and
    the first refused k bounds every admitted one."""
    for family in Family:
        k = 1
        while basis_size(family, k + 1) <= BASIS_BOUND:
            k += 1
        low = -1 if family is Family.RAT else 0
        for idx in range(low, k.bit_length()):
            yield family, idx


def test_generator_coproducts_match_the_ambient_route():
    for family, idx in _admitted_generators():
        assert generator_coproduct(family, idx) == ambient_generator_coproduct(family, idx), (
            family, idx)


def test_generator_steenrod_images_match_the_ambient_route():
    # Sq_1^* as in closed form, and Sq_2^*, Sq_3^* zero on every generator;
    # the oracle shares no code with the closed forms
    used = {"generator_steenrod", "_multiply_out", "steenrod_matrix"} & vars(helpers).keys()
    assert not used
    seen = set()
    for family, idx in _admitted_generators():
        image = generator_steenrod(family, idx)
        assert image == ambient_generator_steenrod(family, idx), (family, idx)
        for j in (2, 3):
            assert ambient_generator_steenrod(family, idx, j) == frozenset(), (family, idx, j)
        seen.add((family, bool(image)))
    assert len(seen) == 2 * len(Family)
