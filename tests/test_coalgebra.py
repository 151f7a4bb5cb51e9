"""Unit tests for coalgebra extraction, invariants, isomorphism search and
the verification routines."""

import hashlib
import json
import random
import re
from itertools import permutations

import pytest

import helpers
from braidrat import coalgebra, gf2, operations
from braidrat.cli import main
from braidrat.coalgebra import (
    DEFAULT_ISO_BUDGET,
    GradedCoalgebra,
    SpanError,
    _basis_by_dim,
    _search_isomorphism,
    _sq1_columns,
    check_lemma_braid,
    coalgebras_isomorphic,
    component_coalgebra,
    components_isomorphic,
    extract_coalgebra,
    s_set,
    steenrod_matrix,
    theorem_main,
    verify_coalgebra_map,
)
from braidrat.ambient import TensorElement, element, monomial, q_gen, tensor_components
from braidrat.families import (
    Family,
    FamilyMonomial,
    _embed,
    basis,
    embed,
    family_monomial,
    generator_coproduct,
    generator_steenrod,
    poincare_vector,
    top_class,
)
from braidrat.operations import _G, _pack, _psi, _sqj, coproduct

from helpers import (
    ambient_delta,
    ambient_steenrod,
    braid_top_support,
    brute_force_delta,
    brute_force_isomorphism_count,
    coassociative,
    coproduct_dims,
    counit_rows_hold,
    family_generator_coproduct,
    fpairs_mul,
    packed_delta,
    random_family_monomial,
    rank_triples,
)


def _labels(family, k):
    return [fm.label() for fm in basis(family, k)]


def test_extract_braid_weight_two():
    c = extract_coalgebra(Family.BRAID, 2)
    assert _labels(Family.BRAID, 2) == ["g^2", "gamma_1"]
    assert c.dims == (1, 1)
    assert c.delta == packed_delta({key: ({(0, 0)},) for key in ((0, 0), (1, 0), (1, 1))})


def test_extract_rat_weight_one():
    c = extract_coalgebra(Family.RAT, 1)
    assert _labels(Family.RAT, 1) == ["g", "rho_0"]
    assert c.dims == (1, 1)
    assert c.delta == packed_delta({key: ({(0, 0)},) for key in ((0, 0), (1, 0), (1, 1))})


def test_extract_rat_weight_two_four_term_splits():
    c = extract_coalgebra(Family.RAT, 2)
    assert _labels(Family.RAT, 2) == ["g^2", "g*rho_0", "rho_0^2", "rho_1"]
    assert c.dims == (1, 1, 1, 1)
    # the degree-3 class pairs with every split, the square rho_0^2 with the
    # outer ones only
    assert c.delta == packed_delta({
        (d, s): (set() if (d, s) == (2, 1) else {(0, 0)},)
        for d in range(4) for s in range(d + 1)
    })


def test_extracted_structure_constants_are_sorted_distinct_packed_pairs():
    for family, k in ((Family.RAT, 13), (Family.BRAID, 26), (Family.CONF, 16)):
        c = extract_coalgebra(family, k)
        dims = c.dims
        assert [len(row) for row in c.delta] == list(range(1, len(dims) + 1))
        for d, row in enumerate(c.delta):
            for s, comps in enumerate(row):
                assert type(comps) is tuple and len(comps) == dims[d]
                for pairs in comps:
                    assert type(pairs) is tuple and list(pairs) == sorted(set(pairs))
                    assert all(type(x) is int and x in range(dims[s] * dims[d - s])
                               for x in pairs)


def test_extracted_structure_matches_brute_force_small():
    # up to braid:20 and rat/conf:10 the ambient oracle's two-step solve
    # meets degrees with several basis elements on both sides of a split
    for family, top in ((Family.BRAID, 20), (Family.RAT, 10), (Family.CONF, 10)):
        for k in range(1, top + 1):
            c = extract_coalgebra(family, k)
            assert c.delta == packed_delta(ambient_delta(family, k)), (family, k)
            assert c.delta == packed_delta(brute_force_delta(family, k)), (family, k)


def _equal_embeddings(monkeypatch):
    # the two degree-3 basis elements of rat:3 embed equal in the ambient oracles
    first, second = _basis_by_dim(Family.RAT, 3)[3]
    monkeypatch.setattr(helpers, "_embed", lambda fm: _embed(first if fm == second else fm))


def _stray_coproduct_pair(monkeypatch):
    # in the ambient oracle, the top class A + B of rat:3 gains the pair
    # A (x) 1: its terms are all embedded halves, but the part B (x) 1 that
    # remains is outside the product span
    by_dim = _basis_by_dim(Family.RAT, 3)
    top = _embed(by_dim[4][0])
    (unit,) = _embed(by_dim[0][0])
    stray = (min(top), unit)
    monkeypatch.setattr(
        helpers, "_psi", lambda hs: _psi(hs) ^ {stray} if hs == top else _psi(hs)
    )


def _steenrod_image_off_span(monkeypatch):
    # in the ambient oracle, every dual Steenrod image gains Q3g, which no
    # embedded basis element has
    stray = _pack(q_gen(3))
    monkeypatch.setattr(helpers, "_sqj", lambda hs, j: _sqj(hs, j) ^ {stray})


_STEENROD_ARGVS = (["iso", "--a", "rat:3", "--b", "braid:6", "--steenrod"],
                   ["steenrod", "--family", "rat", "--k", "3"])


@pytest.mark.parametrize(
    "patch, delta_fails, steenrod_fails",
    [
        (_equal_embeddings, True, True),
        (_stray_coproduct_pair, True, False),
        (_steenrod_image_off_span, False, True),
    ],
)
def test_span_errors(monkeypatch, patch, delta_fails, steenrod_fails):
    # the ambient faults reach the ambient oracles only: production
    # extraction and Steenrod matrices never embed
    sq = steenrod_matrix(Family.RAT, 3)
    patch(monkeypatch)
    for fails, oracle in ((delta_fails, lambda: ambient_delta(Family.RAT, 3)),
                          (steenrod_fails, lambda: ambient_steenrod(Family.RAT, 3))):
        if not fails:
            oracle()
            continue
        with pytest.raises(SpanError):
            oracle()
    assert extract_coalgebra(Family.RAT, 3).delta == packed_delta(brute_force_delta(Family.RAT, 3))
    assert steenrod_matrix(Family.RAT, 3) == sq
    for argv in _STEENROD_ARGVS:
        assert main(argv) == 0


def _warm_generator_checks(family, k):
    """Run the generator checks of the component on the true closed forms.
    They are cached for the process, so a closed form planted afterwards
    reaches the guard its test names instead of the check."""
    for idx in sorted({idx for fm in basis(family, k) for idx, _ in fm.exps}):
        coalgebra._check_generator(family, idx)


def test_steenrod_rejects_closed_form_image_outside_the_basis(monkeypatch, capsys):
    # g in Sq_1^* rho_1 puts g^2 into the image of g rho_1; its dim is 1 less,
    # but g^2 has weight 2, outside rat:3
    _warm_generator_checks(Family.RAT, 3)
    g = family_monomial(Family.RAT, {-1: 1})

    def patched(family, idx):
        out = generator_steenrod(family, idx)
        return out | {g} if (family, idx) == (Family.RAT, 1) else out

    monkeypatch.setattr(coalgebra, "generator_steenrod", patched)
    with pytest.raises(SpanError, match="leaves the basis"):
        steenrod_matrix(Family.RAT, 3)
    for argv in _STEENROD_ARGVS:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def _inject_closed_form_pair(monkeypatch, pair):
    # rho_0's closed-form coproduct gains ``pair``
    def patched(family, idx):
        out = generator_coproduct(family, idx)
        return out ^ {pair} if (family, idx) == (Family.RAT, 0) else out

    monkeypatch.setattr(coalgebra, "generator_coproduct", patched)


def _assert_iso_exits_two(capsys):
    assert main(["iso", "--a", "rat:3", "--b", "braid:6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_extraction_rejects_inhomogeneous_pairs(monkeypatch, capsys):
    # ambient oracle: the pair g^3 (x) g^3 has dims (0, 0), in the coproduct
    # of a degree-4 class
    by_dim = _basis_by_dim(Family.RAT, 3)
    top = _embed(by_dim[4][0])
    (unit,) = _embed(by_dim[0][0])
    stray = (unit, unit)
    monkeypatch.setattr(
        helpers, "_psi", lambda hs: _psi(hs) | {stray} if hs == top else _psi(hs)
    )
    with pytest.raises(ValueError, match=r"\(0, 0\) has total 0, expected 4"):
        ambient_delta(Family.RAT, 3)
    # closed forms: g (x) g in psi(rho_0) puts g^3 (x) g^3 into psi(g^2 rho_0)
    _warm_generator_checks(Family.RAT, 3)
    g = family_monomial(Family.RAT, {-1: 1})
    _inject_closed_form_pair(monkeypatch, (g, g))
    with pytest.raises(ValueError, match=r"\(0, 0\) has total 0, expected 1"):
        extract_coalgebra(Family.RAT, 3)
    _assert_iso_exits_two(capsys)


def test_extraction_rejects_closed_form_pair_outside_the_basis(monkeypatch, capsys):
    # 1 (x) rho_0 in psi(rho_0) puts g^2 (x) g^2 rho_0 into psi(g^2 rho_0); its
    # dims add up, but g^2 has weight 2, outside rat:3
    _warm_generator_checks(Family.RAT, 3)
    unit = FamilyMonomial(Family.RAT, ())
    _inject_closed_form_pair(monkeypatch, (unit, family_monomial(Family.RAT, {0: 1})))
    with pytest.raises(SpanError, match="leaves the basis"):
        extract_coalgebra(Family.RAT, 3)
    _assert_iso_exits_two(capsys)


def test_extraction_guards_the_packed_field_width(monkeypatch, capsys):
    # g^4 (x) g^4 would carry out of rat:3's 2-bit exponent fields
    _warm_generator_checks(Family.RAT, 3)
    g4 = family_monomial(Family.RAT, {-1: 4})
    _inject_closed_form_pair(monkeypatch, (g4, g4))
    with pytest.raises(ValueError, match="packed field width 2"):
        extract_coalgebra(Family.RAT, 3)
    _assert_iso_exits_two(capsys)


def test_oracle_generator_expression_embeds_correctly():
    from braidrat.ambient import ZERO, element, monomial, q_gen
    from helpers import q_polynomial

    for i in range(4):
        total = ZERO
        for fm in q_polynomial(i):
            total = total + embed(fm)
        assert total == element(monomial(1) if i == 0 else q_gen(i))


def _planted(key, change):
    """``generator_coproduct`` with ``change`` applied to the closed form of
    generator ``key``, a (family, index) pair."""
    def patched(family, idx):
        out = generator_coproduct(family, idx)
        return change(out, family) if (family, idx) == key else out
    return patched


# Each plant keeps the dims of every pair consistent.  rho_1 loses g^2 (x)
# rho_1, so its counit fails; rho_2 loses g rho_0^3 (x) rho_0^4, and gamma_3
# gains gamma_1 gamma_2 g^2 (x) gamma_2 g^4, of dims (4, 3), and both stay
# counital but are no longer coassociative.  The generator check compares
# each closed form with psi of the generator's embedding, which sees all
# three.
PLANTS = {
    "rho_1": (
        _planted((Family.RAT, 1), lambda out, f: out - {
            (family_monomial(f, {-1: 2}), family_monomial(f, {1: 1}))}),
        "coproduct of rho_1 is not psi of its embedding", (Family.RAT, 3), [
            ("iso", "--a", "rat:3", "--b", "braid:6"),
            ("iso", "--a", "rat:13", "--b", "braid:26"),
            ("theorem-main", "--from", "3", "--to", "3"),
        ]),
    "rho_2": (
        _planted((Family.RAT, 2), lambda out, f: out - {
            (family_monomial(f, {-1: 1, 0: 3}), family_monomial(f, {0: 4}))}),
        "coproduct of rho_2 is not psi of its embedding", (Family.RAT, 4), [
            ("iso", "--a", "rat:4", "--b", "braid:8"),
            ("iso", "--a", "rat:13", "--b", "braid:26"),
        ]),
    "gamma_3": (
        _planted((Family.BRAID, 3), lambda out, f: out | {
            (family_monomial(f, {0: 2, 1: 1, 2: 1}), family_monomial(f, {0: 4, 2: 1}))}),
        "coproduct of gamma_3 is not psi of its embedding", (Family.BRAID, 8), [
            ("iso", "--a", "conf:4", "--b", "braid:8"),
            ("braid-conf", "--max-k", "4"),
            ("lemma-braid", "--max-k", "4"),
        ]),
}


@pytest.fixture
def fresh_generator_checks():
    # the generator checks are cached per (family, index) for the process
    coalgebra._check_generator.cache_clear()
    yield
    coalgebra._check_generator.cache_clear()


def _assert_refused(capsys, component, message, argvs):
    with pytest.raises(ValueError, match=re.escape(message)):
        extract_coalgebra(*component)
    for argv in argvs:
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv


@pytest.mark.parametrize("plant, message, component, argvs", PLANTS.values(), ids=PLANTS)
def test_a_planted_generator_coproduct_is_refused_on_every_family_path(
    monkeypatch, capsys, fresh_generator_checks, plant, message, component, argvs
):
    monkeypatch.setattr(coalgebra, "generator_coproduct", plant)
    _assert_refused(capsys, component, message, argvs)


def _no_steenrod_image(key):
    """``generator_steenrod`` with Sq_1^* of generator ``key`` set to 0."""
    def patched(family, idx):
        return frozenset() if (family, idx) == key else generator_steenrod(family, idx)
    return patched


# Closed forms that keep every law yet are wrong.  psi(rho_1) without
# g rho_0 (x) rho_0^2 stays counital and coassociative, and gives 'no' on
# component_ranks for rat:3 and braid:6 if it is not refused; Sq_1^* of
# rho_1 or gamma_2 set to 0 makes wrong Steenrod matrices.  Only the
# comparison with the ambient operation sees them.
LAWFUL_PLANTS = {
    "psi-rho_1": (
        "generator_coproduct",
        _planted((Family.RAT, 1), lambda out, f: out - {
            (family_monomial(f, {-1: 1, 0: 1}), family_monomial(f, {0: 2}))}),
        "coproduct of rho_1 is not psi of its embedding", (Family.RAT, 3), [
            ("iso", "--a", "rat:3", "--b", "braid:6"),
            ("iso", "--a", "rat:13", "--b", "braid:26"),
            ("theorem-main", "--from", "3", "--to", "3"),
        ]),
    "sq-rho_1": (
        "generator_steenrod", _no_steenrod_image((Family.RAT, 1)),
        "Sq_* of rho_1 is not Sq_* of its embedding", (Family.RAT, 3), [
            ("iso", "--a", "rat:3", "--b", "braid:6", "--steenrod"),
            ("steenrod", "--family", "rat", "--k", "3"),
        ]),
    "sq-gamma_2": (
        "generator_steenrod", _no_steenrod_image((Family.BRAID, 2)),
        "Sq_* of gamma_2 is not Sq_* of its embedding", (Family.BRAID, 6), [
            ("iso", "--a", "braid:6", "--b", "rat:3", "--steenrod"),
        ]),
}


@pytest.mark.parametrize("name, plant, message, component, argvs", LAWFUL_PLANTS.values(),
                         ids=LAWFUL_PLANTS)
def test_a_planted_lawful_closed_form_is_refused_on_every_family_path(
    monkeypatch, capsys, fresh_generator_checks, name, plant, message, component, argvs
):
    monkeypatch.setattr(coalgebra, name, plant)
    _assert_refused(capsys, component, message, argvs)


def test_generator_check_accepts_every_admitted_generator(fresh_generator_checks):
    # every generator index a component admitted by BASIS_BOUND can hold
    # (gamma_6, rho_5, c_5), and the next five of each family, which a
    # raised bound would admit
    for family, lo, hi in ((Family.BRAID, 0, 11), (Family.RAT, -1, 10), (Family.CONF, 0, 10)):
        for idx in range(lo, hi + 1):
            coalgebra._check_generator(family, idx)


def test_each_generator_is_checked_once(fresh_generator_checks):
    # rat:13 holds g and rho_0..rho_3, braid:26 g and gamma_1..gamma_4
    for _ in range(2):
        v = components_isomorphic(_basis_by_dim(Family.RAT, 13), _basis_by_dim(Family.BRAID, 26))
        assert v.kind == "no"
        assert coalgebra._check_generator.cache_info().misses == 10


def test_family_components_skip_the_per_element_pass_and_the_constructor_keeps_it(monkeypatch):
    comps = {(fam, k): extract_coalgebra(fam, k) for fam in Family for k in range(1, 17)}
    for c in comps.values():  # the public per-element pass accepts every one
        assert GradedCoalgebra(c.dims, c.delta) == c

    def refuse(self):
        raise AssertionError("per-element pass")

    monkeypatch.setattr(GradedCoalgebra, "_coassociative", refuse)
    assert extract_coalgebra(Family.RAT, 16) == comps[Family.RAT, 16]
    assert components_isomorphic(_basis_by_dim(Family.CONF, 8),
                                 _basis_by_dim(Family.BRAID, 16)).kind == "yes"
    for build in (lambda c: GradedCoalgebra(c.dims, c.delta), lambda c: c._replace(dims=c.dims)):
        with pytest.raises(AssertionError, match="per-element pass"):
            build(comps[Family.RAT, 3])


def test_graded_coalgebra_validation_rejects_bad_counit():
    delta = packed_delta({
        (0, 0): ({(0, 0)},),
        (1, 0): (set(),),
        (1, 1): ({(0, 0)},),
    })
    with pytest.raises(ValueError):
        GradedCoalgebra((1, 1), delta)


def test_graded_coalgebra_validation_rejects_broken_coassociativity():
    c = extract_coalgebra(Family.RAT, 3)
    tampered = [list(row) for row in c.delta]
    # dropping the (1, 2) split of rho_0^3 contradicts the degree-4 coproduct
    tampered[3][1] = ((), tampered[3][1][1])
    with pytest.raises(ValueError):
        GradedCoalgebra(c.dims, tampered)


@pytest.mark.parametrize("entry", [(1, 0), (0, 0), (0, 2), (-1, 1)])
def test_graded_coalgebra_validation_rejects_malformed_entries(entry):
    # delta(4, 1) of rat:3 is ((0, 1),), two of the 1 * 2 pairs of degrees
    # (1, 3); an entry out of order, repeated or out of range is refused
    c = extract_coalgebra(Family.RAT, 3)
    tampered = [list(row) for row in c.delta]
    tampered[4][1] = (entry,)
    with pytest.raises(ValueError, match=r"malformed structure constants at \(4, 1\)"):
        GradedCoalgebra(c.dims, tampered)


_SHAPE = "need the splits s = 0..d of each degree d"


@pytest.mark.parametrize("key", [(4, 5), (0, 1), (5, 0)])
def test_graded_coalgebra_validation_rejects_splits_outside_the_grid(key):
    # rat:3 has degrees 0..4, and degree d the splits s = 0..d; a split put
    # at (d, s) = key, after the last split of degree d or in a degree past
    # the top, is refused rather than stored beside the checked constants
    c = extract_coalgebra(Family.RAT, 3)
    d, s = key
    grown = [list(row) for row in c.delta] + [[]]
    assert len(grown[d]) == s
    grown[d].append(((),) * (c.dims[d] if d < len(c.dims) else 1))
    with pytest.raises(ValueError, match=_SHAPE):
        GradedCoalgebra(c.dims, grown[:max(d + 1, len(c.dims))])


def test_graded_coalgebra_validation_rejects_missing_splits():
    # a degree without its top split, a missing top degree, and no degrees
    c = extract_coalgebra(Family.RAT, 3)
    for delta in (c.delta[:4] + (c.delta[4][:4],), c.delta[:4], ()):
        with pytest.raises(ValueError, match=_SHAPE):
            GradedCoalgebra(c.dims, delta)


def _toggles(dims, delta, rng, count):
    """``count`` random single-pair toggles of index-pair structure
    constants, or every one when ``count`` is None, as (d, s, a, (i, j))."""
    keys = sorted((d, s) for d, s in delta if dims[d] and dims[s] and dims[d - s])
    if count is None:
        for d, s in keys:
            for a in range(dims[d]):
                for i in range(dims[s]):
                    for j in range(dims[d - s]):
                        yield d, s, a, (i, j)
        return
    for _ in range(count):
        d, s = rng.choice(keys)
        yield d, s, rng.randrange(dims[d]), (rng.randrange(dims[s]), rng.randrange(dims[d - s]))


def test_coassociativity_check_agrees_with_per_element_oracle():
    # every toggle of the smallest components, random ones of the rest, in
    # trivial and non-trivial splits alike; the toggles and their verdicts
    # are taken on index pairs, and only the constructor's input is packed
    rng = random.Random(66)
    comps = [
        (tuple(poincare_vector(fam, k)), brute_force_delta(fam, k))
        for fam, top in ((Family.RAT, 8), (Family.CONF, 8), (Family.BRAID, 16))
        for k in range(1, top + 1)
    ]
    # one class x_d per degree, delta x_d = sum_s x_s (x) x_{d-s}: unlike the
    # family components, delta x_2 has a middle term, so a toggle in the top
    # degree 3 is seen by the split (1, 1) alone
    comps += [
        ((1,) * (top + 1),
         {(d, s): (frozenset({(0, 0)}),) for d in range(top + 1) for s in range(d + 1)})
        for top in range(1, 6)
    ]
    outcomes = set()
    for dims, base in comps:
        GradedCoalgebra(dims, packed_delta(base))
        for d, s, a, pair in _toggles(dims, base, rng, None if sum(dims) <= 12 else 20):
            delta = dict(base)  # index pairs keyed by (d, s), as the oracle reads them
            delta[(d, s)] = tuple(
                pairs ^ {pair} if b == a else pairs for b, pairs in enumerate(delta[(d, s)])
            )
            expected = coassociative(delta, dims) and counit_rows_hold(delta, dims)
            try:
                GradedCoalgebra(dims, packed_delta(delta))
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, (dims, (d, s), a, pair)
            outcomes.add((s in (0, d), accepted))
    # toggles in trivial and non-trivial splits alike are rejected
    assert {(True, False), (False, False)} <= outcomes


def test_s_set_small_values():
    assert s_set(family_monomial(Family.RAT, {0: 1})) == frozenset({0, 1})
    assert s_set(family_monomial(Family.BRAID, {1: 1})) == frozenset({0, 1})
    assert s_set(family_monomial(Family.RAT, {1: 1})) == frozenset({0, 1, 2, 3})
    assert s_set(family_monomial(Family.BRAID, {2: 1})) == frozenset({0, 3})


def test_s_set_weight_seven_reference_points():
    x = top_class(Family.RAT, 7)
    y = top_class(Family.BRAID, 7)
    sx = s_set(x)
    sy = s_set(y)
    assert 2 not in sx and 5 in sx
    assert 2 not in sy and 5 not in sy
    assert sy == braid_top_support(7)


def test_s_set_empty_restriction_left_dim_two():
    x = top_class(Family.RAT, 7)
    parts = tensor_components(coproduct(embed(x)), x.dim)
    assert 2 not in parts


def test_braid_supports_match_subset_sum_oracle():
    for k in range(1, 33):
        y = top_class(Family.BRAID, k)
        assert s_set(y) == braid_top_support(k)


def test_rat_supports_match_family_expansion():
    unit = FamilyMonomial(Family.RAT, ())
    for k in range(1, 65):
        pairs = frozenset({(unit, unit)})
        for j in range(k.bit_length()):
            if k >> j & 1:
                pairs = fpairs_mul(pairs, family_generator_coproduct(Family.RAT, j))
        assert s_set(top_class(Family.RAT, k)) == {left.dim for left, _ in pairs}


def test_rat_supports_pinned():
    # sha256 recorded with the object-level coproduct, before the packed kernel
    supports = [[k, sorted(s_set(top_class(Family.RAT, k)))] for k in range(1, 129)]
    digest = hashlib.sha256(json.dumps(supports, separators=(",", ":")).encode()).hexdigest()
    assert digest == "b415d821f34143b2d6a218ec0c84b0d78f40536bcae00644d1a0b7a6c26207a3"


def test_s_set_matches_packed_coproduct_dims(monkeypatch):
    monkeypatch.setattr(operations, "_PSI_CACHE", {})  # drop the oracle's pair sets after
    rng = random.Random(3008)
    randoms = [random_family_monomial(rng, families=tuple(Family)) for _ in range(300)]
    assert {fm.family for fm in randoms} == set(Family)
    cases = [top_class(f, k) for f in (Family.RAT, Family.BRAID) for k in range(1, 301)]
    # wide masks with few bits, read through several runs of nonzero bytes
    cases += [top_class(Family.RAT, k) for k in (1 << 20, (1 << 20) + 5)]
    for fm in cases + randoms:
        dims = coproduct_dims(embed(fm))
        assert all(s + t == fm.dim for s, t in dims)
        assert s_set(fm) == {s for s, _ in dims}, fm


def test_theorem_main_does_not_run_the_psi_kernel(monkeypatch):
    calls = []
    psi_half = operations._psi_half
    monkeypatch.setattr(operations, "_psi_half", lambda h: calls.append(h) or psi_half(h))
    for k in range(65, 101):
        theorem_main(k)
    assert calls == []


def test_s_set_rejects_inhomogeneous_pairs(monkeypatch, capsys):
    # g has dimension 0, unlike the embedding of any class of positive dimension
    monkeypatch.setattr(coalgebra, "_embed", lambda fm: _embed(fm) ^ {_pack(monomial(1))})
    with pytest.raises(ValueError, match="expected 4"):
        s_set(top_class(Family.RAT, 3))
    for argv in (["s-set", "--family", "rat", "--k", "3"],
                 ["theorem-main", "--from", "2", "--to", "3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def _assert_rank_verdict(ca, cb, v):
    """``v``, the verdict of ``coalgebras_isomorphic`` on ca and cb with
    equal dims, against the oracle's ranks of the whole coalgebras
    (``rank_triples``).  It is a 'no' on component_ranks exactly when those
    ranks differ at a split 1 <= s < d; then both sides name the same
    (d, s), each with the oracle's rank there, the ranks differ, and (d, s)
    is the first split, in degree order, where the oracle's ranks differ."""
    left, right = ([t for t in rank_triples(c.delta) if 0 < t[1] < t[0]] for c in (ca, cb))
    first = next((x[:2] for x, y in zip(left, right) if x != y), None)
    if first is None:
        assert v.invariant is None
        return
    assert v.kind == "no" and v.invariant == "component_ranks"
    assert v.reason == "invariant mismatch" and v.dims == ca.dims
    assert v.left[:2] == v.right[:2]
    for c, (d, s, r) in ((ca, v.left), (cb, v.right)):
        assert {t[:2]: t[2] for t in rank_triples(c.delta)}[d, s] == r
    assert v.left[2] != v.right[2]
    assert v.left[:2] == first


def test_invariants_equal_for_weight_six_and_three():
    ca, cb = extract_coalgebra(Family.BRAID, 6), extract_coalgebra(Family.RAT, 3)
    assert ca.dims == cb.dims == (1, 1, 1, 2, 1)
    assert rank_triples(ca.delta) == rank_triples(cb.delta)
    v = coalgebras_isomorphic(ca, cb)
    assert v.kind == "yes" and v.invariant is None
    _assert_rank_verdict(ca, cb, v)


def test_invariants_differ_for_weight_fourteen_and_seven():
    ca, cb = extract_coalgebra(Family.BRAID, 14), extract_coalgebra(Family.RAT, 7)
    assert ca.dims == cb.dims
    v = coalgebras_isomorphic(ca, cb)
    assert v.kind == "no" and v.left != v.right
    _assert_rank_verdict(ca, cb, v)


def test_invariants_of_line_degrees_have_small_ranks():
    # a split of a degree of dim 1 has one row, so rank 0 or 1
    c = extract_coalgebra(Family.BRAID, 2)
    assert c.dims == (1, 1)
    assert all(r <= 1 for _, _, r in rank_triples(c.delta))
    ca, cb = extract_coalgebra(Family.BRAID, 14), extract_coalgebra(Family.RAT, 7)
    lines = [(d, r) for c in (ca, cb) for d, s, r in rank_triples(c.delta)
             if 0 < s < d and ca.dims[d] == 1]
    assert lines and all(r <= 1 for _, r in lines)


def test_iso_yes_with_verified_witness():
    ca = extract_coalgebra(Family.BRAID, 6)
    cb = extract_coalgebra(Family.RAT, 3)
    v = coalgebras_isomorphic(ca, cb)
    assert v.kind == "yes"
    assert verify_coalgebra_map(ca, cb, v.witness)


def test_iso_no_with_rechecked_invariant():
    ca = extract_coalgebra(Family.BRAID, 4)
    cb = extract_coalgebra(Family.RAT, 2)
    v = coalgebras_isomorphic(ca, cb)
    assert v.kind == "no"
    assert v.invariant is not None
    # recomputed by the oracle
    _assert_rank_verdict(ca, cb, v)
    assert v.left != v.right
    # the support sets themselves also separate these components
    assert s_set(top_class(Family.BRAID, 2)) == frozenset({0, 3})
    assert s_set(top_class(Family.RAT, 2)) == frozenset({0, 1, 2, 3})


def test_iso_self_is_identity():
    c = extract_coalgebra(Family.RAT, 3)
    v = coalgebras_isomorphic(c, c)
    assert v.kind == "yes"
    assert v.witness == ((1,), (1,), (1,), (1, 2), (1,))


def test_iso_budget_exhaustion_is_inconclusive():
    ca = extract_coalgebra(Family.BRAID, 6)
    cb = extract_coalgebra(Family.RAT, 3)
    v = coalgebras_isomorphic(ca, cb, budget=1)
    assert v.kind == "inconclusive"
    assert v.tried == 1


_ROUTE_PAIRS = [((Family.RAT, 2), (Family.RAT, 3))] + [  # the first a 'no' on dims
    pair for k in (1, 2, 3, 4, 5, 8, 13, 16) for pair in (
        ((Family.RAT, k), (Family.BRAID, 2 * k)),
        ((Family.CONF, k), (Family.BRAID, 2 * k)),
        ((Family.BRAID, 2 * k), (Family.BRAID, 2 * k + 1)),
        ((Family.RAT, k), (Family.CONF, k)),
    )
]


@pytest.mark.parametrize("steenrod", [False, True], ids=["plain", "steenrod"])
def test_component_route_agrees_with_the_full_route(steenrod):
    # components_isomorphic reads the stable edge first and otherwise hands
    # the whole coalgebras to coalgebras_isomorphic, which walks every split.
    # Both return the same whole verdict, a 'no' on component_ranks
    # included: it names the one split whose ranks differ
    kinds = set()
    for a, b in _ROUTE_PAIRS:
        got = components_isomorphic(_basis_by_dim(*a), _basis_by_dim(*b), steenrod=steenrod)
        sq = (steenrod_matrix(*a), steenrod_matrix(*b)) if steenrod else None
        ca, cb = extract_coalgebra(*a), extract_coalgebra(*b)
        full = coalgebras_isomorphic(ca, cb, steenrod=sq)
        assert got == full, (a, b)
        kinds.add((got.kind, got.invariant))
        if got.invariant == "component_ranks":
            _assert_rank_verdict(ca, cb, full)
    assert kinds == {("yes", None), ("no", "dims"), ("no", "component_ranks")}


def test_component_route_without_the_edge_read_is_the_full_walk(monkeypatch):
    # with no stable-edge degree to read, the walk of coalgebras_isomorphic
    # runs as before, evidence included
    monkeypatch.setattr(coalgebra, "_stable_edge", lambda by_dim: len(by_dim))
    kinds = set()
    for a, b in _ROUTE_PAIRS[:21]:
        got = components_isomorphic(_basis_by_dim(*a), _basis_by_dim(*b))
        assert got == coalgebras_isomorphic(extract_coalgebra(*a), extract_coalgebra(*b))
        kinds.add((got.kind, got.invariant))
    assert kinds == {("yes", None), ("no", "dims"), ("no", "component_ranks")}


def test_rat_and_braid_ranks_first_differ_at_the_stable_edge():
    # the pattern measured on the whole coalgebras by the oracle: rat:k and
    # braid:2k first differ in degree k + 1 at the split of the lowest set
    # bit of k + 1, or in degree k + 2 at split 2 when k + 1 = 2^m >= 8;
    # at k = 3 (and at k = 1, which has no degree 2) no split differs
    for k in range(1, 29):
        ca, cb = extract_coalgebra(Family.RAT, k), extract_coalgebra(Family.BRAID, 2 * k)
        first = next((x[:2] for x, y in zip(rank_triples(ca.delta), rank_triples(cb.delta))
                      if x != y), None)
        v = components_isomorphic(_basis_by_dim(Family.RAT, k), _basis_by_dim(Family.BRAID, 2 * k),
                                  budget=0)
        low = (k + 1) & -(k + 1)
        if k in (1, 3):
            assert first is None and v.kind != "no"
        else:
            assert first == ((k + 1, low) if low <= k else (k + 2, 2)), k
            assert v.left[:2] == first


def test_the_edge_read_decides_rat_where_the_theorem_separates():
    # the admitted components of equal dims fall into the groups {rat:k,
    # conf:k, braid:2k, braid:2k+1}, k = 1..39.  Against rat:k the edge read,
    # degrees k + 1 and k + 2, gives 'no' exactly where the top-class
    # supports of theorem_main differ, every k but 1 and 3; there the
    # invariants pass and the search is reached.  So the whole coalgebras,
    # and their Steenrod matrices, are built only for isomorphic pairs
    for k in range(1, 40):
        distinct = theorem_main(k).distinct
        assert distinct == (k not in (1, 3)), k
        rat = _basis_by_dim(Family.RAT, k)
        for other in ((Family.CONF, k), (Family.BRAID, 2 * k), (Family.BRAID, 2 * k + 1)):
            v = components_isomorphic(rat, _basis_by_dim(*other), budget=0)
            if distinct:
                assert (v.kind, v.invariant) == ("no", "component_ranks"), (k, other)
                assert v.left[0] in (k + 1, k + 2), (k, other)
            else:
                assert v.kind == "inconclusive" and v.tried == 0, (k, other)
    # and for every ordered pair of a group, k <= 16, the edge read returns
    # the verdict of the walk over the whole coalgebras, evidence included
    # (k = 17..39 run in CI)
    for k in range(1, 17):
        group = [_basis_by_dim(*c) for c in (
            (Family.RAT, k), (Family.CONF, k), (Family.BRAID, 2 * k), (Family.BRAID, 2 * k + 1))]
        whole = [component_coalgebra(by_dim) for by_dim in group]
        for (a, ca), (b, cb) in permutations(zip(group, whole), 2):
            assert components_isomorphic(a, b, budget=0) == coalgebras_isomorphic(
                ca, cb, budget=0), k


def test_iso_search_agrees_with_brute_force_count():
    # the invariant gate is bypassed, so pairs that differ only in their
    # invariants reach the exhaustive 'no' path of the search
    comps = [
        (extract_coalgebra(fam, k), steenrod_matrix(fam, k))
        for fam, top in ((Family.RAT, 8), (Family.CONF, 8), (Family.BRAID, 16))
        for k in range(1, top + 1)
    ]
    kinds = []
    for i, (ca, sq_a) in enumerate(comps):
        for cb, sq_b in comps[i:]:
            for sq in (None, (sq_a, sq_b)):
                count = brute_force_isomorphism_count(ca, cb, sq)
                if count is None:
                    continue
                v = _search_isomorphism(ca, cb, DEFAULT_ISO_BUDGET, _sq1_columns(ca, cb, sq))
                assert v.kind == ("yes" if count else "no"), (ca.dims, cb.dims, sq)
                assert v.kind == "no" or verify_coalgebra_map(ca, cb, v.witness, sq)
                kinds.append(v.kind)
    assert len(kinds) == 82 and kinds.count("no") == 12


def test_verify_map_agrees_with_the_oracle_on_every_invertible_map():
    # the search re-verifies only the witnesses it finds, so the verifier's
    # rejections are checked here, map by map, against the independent check.
    # The components are cocommutative, so split d - s restates split s; two
    # lines of dims (1, 1, 1), divided-power and primitive, differ only in
    # split (2, 1), the one where s = d - s.
    comps = [
        (extract_coalgebra(fam, k), steenrod_matrix(fam, k))
        for fam, top in ((Family.RAT, 4), (Family.CONF, 4), (Family.BRAID, 9))
        for k in range(1, top + 1)
    ] + [
        (GradedCoalgebra((1, 1, 1), (
            (((0,),),),
            (((0,),), ((0,),)),
            (((0,),), (middle,), ((0,),)),
        )), {1: (0,), 2: (0,)})
        for middle in ((0,), ())
    ]
    seen = set()
    for i, (ca, sq_a) in enumerate(comps):
        for cb, sq_b in comps[i:]:
            if ca.dims != cb.dims:
                continue
            for phi in helpers.invertible_maps(ca.dims):
                for sq in (None, (sq_a, sq_b)):
                    want = helpers.intertwines(ca, cb, phi, sq)
                    assert verify_coalgebra_map(ca, cb, phi, sq) == want, (ca.dims, phi, sq)
                    seen.add(want)
    assert seen == {True, False}


def test_steenrod_matrices_reference_values():
    sq_braid = steenrod_matrix(Family.BRAID, 6)
    sq_rat = steenrod_matrix(Family.RAT, 3)
    # degree 3: only the second basis element maps onto the degree-2 line
    assert sq_braid[3] == (2,)
    assert sq_rat[3] == (2,)
    # degree 4: the top class maps onto the first degree-3 element
    assert sq_braid[4] == (1, 0)
    assert sq_rat[4] == (1, 0)


def test_steenrod_matrices_match_the_ambient_route():
    # beyond the components of the pinned digest below
    for family, k in ((Family.RAT, 20), (Family.BRAID, 40), (Family.CONF, 16)):
        for j in (1, 2, 3):
            assert steenrod_matrix(family, k, j=j) == ambient_steenrod(family, k, j), (family, k, j)


def test_steenrod_matrices_pinned():
    # the digest was recorded from the per-target elimination this route replaced
    data = [
        [f.value, k, j, sorted([d, list(m)] for d, m in steenrod_matrix(f, k, j=j).items())]
        for f in Family
        for k in range(1, 13)
        for j in (1, 2, 3)
    ]
    digest = hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()
    assert digest == "0a98b96822c1b778a0656b02e5880a10b58b711ac6c2e7e636695ab97790e281"


def test_steenrod_matrices_zero_for_weight_one():
    sq = steenrod_matrix(Family.RAT, 1)
    assert all(row == 0 for mat in sq.values() for row in mat)


def test_steenrod_conf_span_closure():
    sq = steenrod_matrix(Family.CONF, 4)
    assert any(row for mat in sq.values() for row in mat)


def test_steenrod_extended_operations_matrix():
    sq2 = steenrod_matrix(Family.BRAID, 6, j=2)
    assert isinstance(sq2, dict)


def test_iso_rejects_steenrod_matrices_other_than_sq1():
    # Sq_2^* matrices map degree 1 onto no rows, while dims[0] = 1: taken for
    # Sq_1^*, they raised IndexError on the first pair and made the search
    # report a meaningless 'no' after 38 nodes on the second
    for (fa, ka), (fb, kb) in (((Family.BRAID, 6), (Family.RAT, 3)),
                               ((Family.CONF, 6), (Family.BRAID, 12))):
        ca, cb = extract_coalgebra(fa, ka), extract_coalgebra(fb, kb)
        sq2 = (steenrod_matrix(fa, ka, j=2), steenrod_matrix(fb, kb, j=2))
        with pytest.raises(ValueError, match="degree 1 has 0 rows, expected 1"):
            coalgebras_isomorphic(ca, cb, steenrod=sq2)
        sq1 = (steenrod_matrix(fa, ka), steenrod_matrix(fb, kb))
        assert coalgebras_isomorphic(ca, cb, steenrod=sq1).kind == "yes"


def test_iso_witness_steenrod_distinction():
    # two coalgebra isomorphisms exist at this size; only one respects the
    # dual Steenrod action, and the constrained search finds one that does
    ca = extract_coalgebra(Family.BRAID, 6)
    cb = extract_coalgebra(Family.RAT, 3)
    sq = (steenrod_matrix(Family.BRAID, 6), steenrod_matrix(Family.RAT, 3))
    plain = ((1,), (1,), (1,), (2, 3), (1,))
    assert verify_coalgebra_map(ca, cb, plain)
    assert not verify_coalgebra_map(ca, cb, plain, steenrod=sq)
    constrained = coalgebras_isomorphic(ca, cb, steenrod=sq)
    assert constrained.kind == "yes"
    assert verify_coalgebra_map(ca, cb, constrained.witness)
    assert verify_coalgebra_map(ca, cb, constrained.witness, steenrod=sq)


def test_verify_map_rejects_rows_outside_the_basis():
    # a rank check alone passed rows with a bit at or above n, or negative ones
    one = extract_coalgebra(Family.BRAID, 1)
    assert one.dims == (1,)
    assert verify_coalgebra_map(one, one, ((1,),))
    for bad in (2, -1):
        with pytest.raises(ValueError, match="phi of degree 0 has 1 rows, expected 1"):
            verify_coalgebra_map(one, one, ((bad,),))
    c = extract_coalgebra(Family.BRAID, 6)
    witness = coalgebras_isomorphic(c, c).witness
    assert verify_coalgebra_map(c, c, witness)
    # every column image of the shifted rows is empty
    shifted = tuple(tuple(row << n for row in phi) for phi, n in zip(witness, c.dims))
    with pytest.raises(ValueError, match="each an int in 0..2"):
        verify_coalgebra_map(c, c, shifted)


def test_graded_coalgebra_stores_dims_as_a_tuple():
    # list dims compared unequal to tuple dims: a 'no' on dims against c, and
    # the search refused the coalgebra as not connected
    c = extract_coalgebra(Family.BRAID, 6)
    listed = GradedCoalgebra(list(c.dims), c.delta)
    assert type(listed.dims) is tuple and listed == c
    assert coalgebras_isomorphic(c, listed).kind == "yes"
    assert coalgebras_isomorphic(listed, listed).kind == "yes"
    assert type(c._replace(dims=list(c.dims)).dims) is tuple


def test_iso_rejects_steenrod_that_is_not_a_pair():
    # one side's matrices alone were ignored on a 'no', and failed to unpack
    # in the search
    for f, k, g, m in ((Family.RAT, 13, Family.BRAID, 26), (Family.BRAID, 6, Family.BRAID, 6)):
        a, b = extract_coalgebra(f, k), extract_coalgebra(g, m)
        with pytest.raises(ValueError, match="one matrix family per side, got 1"):
            coalgebras_isomorphic(a, b, steenrod=(steenrod_matrix(f, k),))


def _braid6_rat3():
    ca, cb = extract_coalgebra(Family.BRAID, 6), extract_coalgebra(Family.RAT, 3)
    return ca, cb, (steenrod_matrix(Family.BRAID, 6), steenrod_matrix(Family.RAT, 3))


@pytest.mark.parametrize("entry", ["iso", "verify"])
@pytest.mark.parametrize("side_a, side_b", [([], []), ((), ()), (None, None), ("valid", [])],
                         ids=["lists", "tuples", "nones", "b-list"])
def test_sq1_check_rejects_a_side_that_is_not_a_mapping(entry, side_a, side_b):
    # each raised AttributeError ('list' object has no attribute 'get')
    ca, cb, sq = _braid6_rat3()
    steenrod = (sq[0] if side_a == "valid" else side_a, side_b)
    with pytest.raises(ValueError, match="needs a mapping per side, got (list|tuple|NoneType)"):
        if entry == "iso":
            coalgebras_isomorphic(ca, cb, steenrod=steenrod)
        else:
            verify_coalgebra_map(ca, cb, coalgebras_isomorphic(ca, cb).witness, steenrod=steenrod)


@pytest.mark.parametrize("entry", ["iso", "verify"])
@pytest.mark.parametrize("make, match", [
    (lambda sq: 5, "one matrix family per side, got int"),
    (lambda sq: iter(list(sq)), "one matrix family per side, got list_iterator"),
    (lambda sq: ({**sq[0], 1: ["x"]}, sq[1]),
     r"degree 1 has 1 rows, expected 1 for Sq_1\^\*, each an int"),
], ids=["int", "iterator", "str-row"])
def test_sq1_check_rejects_a_steenrod_of_the_wrong_type(entry, make, match):
    # each raised TypeError: no len() of an int or an iterator, and '<='
    # between an int and a str
    ca, cb, sq = _braid6_rat3()
    witness = coalgebras_isomorphic(ca, cb).witness
    with pytest.raises(ValueError, match=match):
        if entry == "iso":
            coalgebras_isomorphic(ca, cb, steenrod=make(sq))
        else:
            verify_coalgebra_map(ca, cb, witness, steenrod=make(sq))


def test_verify_map_rejects_rows_that_are_not_ints():
    # the witness as the CLI prints it, 0/1 lists, raised TypeError from
    # gf2.is_invertible; int rows outside the basis are malformed too
    ca, cb, _ = _braid6_rat3()
    witness = coalgebras_isomorphic(ca, cb).witness
    as_lists = [[[(row >> j) & 1 for j in range(n)] for row in mat]
                for mat, n in zip(witness, ca.dims)]
    with pytest.raises(ValueError, match="phi of degree 0 has 1 rows, expected 1 for a.s basis"):
        verify_coalgebra_map(ca, cb, as_lists)
    assert verify_coalgebra_map(ca, cb, witness)
    for bad in (-1, 1 << ca.dims[4]):
        with pytest.raises(ValueError, match="phi of degree 4 has 1 rows"):
            verify_coalgebra_map(ca, cb, witness[:4] + ((bad,),) + witness[5:])


@pytest.mark.parametrize("side, rows", [(1, (33, 0)), (0, (33, 0)), (1, (-1, -1))],
                         ids=["b-bit-5", "a-bit-5", "b-negative"])
def test_iso_rejects_steenrod_rows_outside_the_basis(side, rows):
    # degree 4 is a line here, so its rows are 0 or 1: bit 5 on b's side
    # raised IndexError, on a's side a failed witness check (RuntimeError),
    # and rows of -1 on b's side gave 'no'
    ca, cb, sq = _braid6_rat3()
    bad = list(sq)
    bad[side] = {**sq[side], 4: rows}
    with pytest.raises(ValueError, match="degree 4 has 2 rows, expected 2 for Sq_1.*0..2"):
        coalgebras_isomorphic(ca, cb, steenrod=tuple(bad))


@pytest.mark.parametrize("side", [0, 1, None], ids=["a", "b", "both-empty"])
def test_verify_map_rejects_steenrod_without_a_degree(side):
    # the separate Sq_1^* check passed a's matrices without degree 4, and an
    # empty pair, and raised KeyError on b's without degree 4
    ca, cb, sq = _braid6_rat3()
    witness = coalgebras_isomorphic(ca, cb, steenrod=sq).witness
    bad = [dict(mats) if side is not None else {} for mats in sq]
    if side is not None:
        del bad[side][4]
    with pytest.raises(ValueError, match=r"needs one matrix per degree 1\.\.4 and no other key"):
        verify_coalgebra_map(ca, cb, witness, steenrod=tuple(bad))


@pytest.mark.parametrize("side", [0, 1], ids=["a", "b"])
@pytest.mark.parametrize("key", [0, 5, "x"], ids=["zero", "past-the-top", "str"])
def test_verify_map_rejects_steenrod_with_a_key_that_is_not_a_degree(side, key):
    # the reader looked up degrees 1..4 only, so the junk went unread and a
    # valid witness was passed
    ca, cb, sq = _braid6_rat3()
    witness = coalgebras_isomorphic(ca, cb, steenrod=sq).witness
    bad = list(sq)
    bad[side] = {**sq[side], key: "junk"}
    with pytest.raises(ValueError, match=r"degree 1\.\.4 and no other key, got the keys \[1, 2"):
        verify_coalgebra_map(ca, cb, witness, steenrod=tuple(bad))


def test_iso_verifies_the_witness_the_search_returns(monkeypatch, capsys):
    # the search verified its own witness, so a faulty one was returned as
    # 'yes' and the CLI exited 0
    ca, cb, _ = _braid6_rat3()
    identity = tuple(tuple(1 << r for r in range(n)) for n in ca.dims)
    assert not verify_coalgebra_map(ca, cb, identity)
    monkeypatch.setattr(coalgebra, "_search_isomorphism", lambda a, b, budget, sq:
                        coalgebra.IsoVerdict("yes", dims=a.dims, witness=identity, tried=1))
    with pytest.raises(RuntimeError, match="fails verification"):
        coalgebras_isomorphic(ca, cb)
    assert main(["iso", "--a", "braid:6", "--b", "rat:3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "RuntimeError" in err


def test_empty_components_are_refused_by_both_routes():
    # the rank walk reads no degree of an empty component; the constructor
    # refuses it as not connected, on the component route after that walk
    with pytest.raises(ValueError, match="needs connected coalgebras"):
        GradedCoalgebra((), ())
    with pytest.raises(ValueError, match="needs connected coalgebras"):
        components_isomorphic([], [])


def _rows_as_dicts(mats):
    return {d: dict(enumerate(rows)) for d, rows in mats.items()}


def _steenrod_junk_at_an_empty_degree():
    # degree 1 has no basis elements, and its rows were not read
    c = GradedCoalgebra((1, 0, 1), ((((0,),),), ((), ()), (((0,),), ((),), ((0,),))))
    return verify_coalgebra_map(c, c, ((1,), (), (1,)), steenrod=({1: "junk"}, {}))


# Malformed input that got past the input checks: a TypeError (the first
# three, delta-int and dims-none), a 'no' after 7 search nodes
# (steenrod-dict-degrees, read by its keys), False (phi-dict-degrees and
# phi-row-out-of-range), True (steenrod-junk-at-an-empty-degree), a 'yes'
# (the three steenrod-extra-key cases, whose junk was never read), or a
# coalgebra that was built (float-constant and two-classes-in-degree-0)
MALFORMED = {
    "steenrod-int-degree": lambda a, b, sq, phi: coalgebras_isomorphic(
        a, b, steenrod=({1: 5}, {})),
    "phi-int-degrees": lambda a, b, sq, phi: verify_coalgebra_map(a, a, [1] * len(a.dims)),
    "phi-int": lambda a, b, sq, phi: verify_coalgebra_map(a, b, 5),
    "steenrod-dict-degrees": lambda a, b, sq, phi: coalgebras_isomorphic(
        a, b, steenrod=tuple(map(_rows_as_dicts, sq))),
    "phi-dict-degrees": lambda a, b, sq, phi: verify_coalgebra_map(
        a, b, [dict(enumerate(rows)) for rows in phi]),
    "phi-row-out-of-range": lambda a, b, sq, phi: verify_coalgebra_map(
        a, b, phi[:4] + ((1 << a.dims[4],),)),
    "steenrod-junk-at-an-empty-degree": lambda *_: _steenrod_junk_at_an_empty_degree(),
    "steenrod-extra-key-0": lambda a, b, sq, phi: coalgebras_isomorphic(
        a, b, steenrod=({**sq[0], 0: "junk"}, sq[1])),
    "steenrod-extra-key-past-the-top": lambda a, b, sq, phi: coalgebras_isomorphic(
        a, b, steenrod=(sq[0], {**sq[1], len(b.dims): "junk"})),
    "steenrod-extra-key-str": lambda a, b, sq, phi: coalgebras_isomorphic(
        a, b, steenrod=({**sq[0], "x": "junk"}, sq[1])),
    "float-constant": lambda *_: GradedCoalgebra((1,), ((((0.0,),),),)),
    "delta-int": lambda *_: GradedCoalgebra((1,), 5),
    "dims-none": lambda *_: GradedCoalgebra(None, ()),
    # x_0 and x_1 grouplike: coassociative, with counit rows, not connected
    "two-classes-in-degree-0": lambda *_: GradedCoalgebra((2,), ((((0,), (3,)),),)),
}


@pytest.mark.parametrize("call", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_raises_value_error(call):
    ca, cb, sq = _braid6_rat3()
    phi = coalgebras_isomorphic(ca, cb, steenrod=sq).witness
    with pytest.raises(ValueError):
        call(ca, cb, sq, phi)


@pytest.mark.parametrize("seq", [tuple, list])
def test_sq1_rows_read_alike_as_tuples_and_lists(seq):
    ca, cb, sq = _braid6_rat3()
    given = tuple({d: seq(rows) for d, rows in mats.items()} for mats in sq)
    v = coalgebras_isomorphic(ca, cb, steenrod=given)
    assert v == coalgebras_isomorphic(ca, cb, steenrod=sq)
    assert v.kind == "yes" and verify_coalgebra_map(ca, cb, v.witness, steenrod=given)


def test_iso_search_eliminates_a_degree_when_it_reaches_it(monkeypatch):
    # every degree's system was built before the first node, so a zero
    # budget still paid for all five eliminations
    calls = []
    solver = gf2.solver
    monkeypatch.setattr(gf2, "solver", lambda rows: calls.append(rows) or solver(rows))
    ca, cb, sq = _braid6_rat3()
    assert coalgebras_isomorphic(ca, cb, 0, steenrod=sq).kind == "inconclusive"
    assert len(calls) == 1
    calls.clear()
    assert coalgebras_isomorphic(ca, cb, steenrod=sq).kind == "yes"
    assert len(calls) == len(ca.dims) == 5


def test_lemma_braid_small():
    for k in (1, 2, 3, 5, 8):
        rep = check_lemma_braid(k)
        assert rep.verified
        assert rep.classes_checked == len(basis(Family.BRAID, 2 * k))


@pytest.mark.parametrize("k", range(1, 11))
def test_lemma_coproduct_agrees_with_the_ambient_route(monkeypatch, k):
    # the ambient check: multiplying by g (x) g adds _G to both halves of
    # every pair of psi of the embedded class
    monkeypatch.setattr(operations, "_PSI_CACHE", {})  # drop the oracle's pair sets after
    g = FamilyMonomial(Family.BRAID, ((0, 1),))
    ambient_ok = all(
        _psi(_embed(g * fm)) == {(u + _G, v + _G) for u, v in _psi(_embed(fm))}
        for fm in basis(Family.BRAID, 2 * k)
    )
    assert ambient_ok == check_lemma_braid(k).coproduct_ok
    assert ambient_ok


def test_braid_conf_invariants_match_rat_at_three():
    conf, rat = extract_coalgebra(Family.CONF, 3), extract_coalgebra(Family.RAT, 3)
    assert conf.dims == rat.dims
    assert rank_triples(conf.delta) == rank_triples(rat.delta)
    v = coalgebras_isomorphic(conf, rat)
    assert v.kind == "yes" and verify_coalgebra_map(conf, rat, v.witness)


def test_theorem_report_k1():
    rep = theorem_main(1)
    assert rep.branch == "power_of_two"
    assert not rep.distinct
    assert rep.support_x == rep.support_y == (0, 1)
    assert rep.iso is not None and rep.iso.kind == "yes"
    assert rep.conforms


def test_theorem_report_k3():
    rep = theorem_main(3)
    assert not rep.distinct
    assert rep.support_x == rep.support_y == (0, 1, 3, 4)
    assert rep.iso.kind == "yes"
    assert rep.conforms


def test_theorem_report_k2():
    rep = theorem_main(2)
    assert rep.branch == "generic"
    assert rep.checks["r"] == 1 and rep.checks["witness_dim"] == 1
    assert rep.checks["witness_in_support_x"]
    assert rep.checks["witness_not_in_support_y"]
    assert rep.distinct and rep.conforms


def test_theorem_report_k6():
    rep = theorem_main(6)
    assert rep.checks["r"] == 1 and rep.checks["witness_dim"] == 1
    assert 1 in rep.support_x and 1 not in rep.support_y
    assert rep.support_y == (0, 3, 7, 10)
    assert rep.distinct and rep.conforms


def test_theorem_report_k7():
    rep = theorem_main(7)
    assert rep.branch == "power_of_two"
    assert rep.checks == {
        "five_in_support_x": True,
        "five_not_in_support_y": True,
        "two_not_in_support_x": True,
        "two_not_in_support_y": True,
    }
    assert rep.distinct and rep.conforms


def test_theorem_consistency_with_isomorphism_search():
    # wherever the supports separate, no isomorphism may be found
    for k in range(2, 13):
        rep = theorem_main(k)
        if rep.distinct:
            v = coalgebras_isomorphic(
                extract_coalgebra(Family.BRAID, 2 * k),
                extract_coalgebra(Family.RAT, k),
                budget=10**4,
            )
            assert v.kind != "yes", k


def test_lemma_verdict_fails_on_a_reordered_odd_row(monkeypatch):
    # the set bijection still holds, but the index map is no longer the
    # identity, so the two components' structure constants do not line up
    by_dim = coalgebra._basis_by_dim
    g = FamilyMonomial(Family.BRAID, ((0, 1),))

    def reversed_row(family, k):
        rows = [list(row) for row in by_dim(family, k)]
        if k % 2:
            d = next(d for d, row in enumerate(rows) if len(row) >= 2)
            rows[d].reverse()
        return rows

    monkeypatch.setattr(coalgebra, "_basis_by_dim", reversed_row)
    for k in (3, 4, 8):
        even, odd = reversed_row(Family.BRAID, 2 * k), reversed_row(Family.BRAID, 2 * k + 1)
        assert {fm * g for row in even for fm in row} == {fm for row in odd for fm in row}
        rep = check_lemma_braid(k)
        assert not rep.bijection_ok and not rep.coproduct_ok and not rep.verified


@pytest.mark.parametrize("side", [0, 1], ids=["even", "odd"])
def test_lemma_verdict_fails_on_one_toggled_structure_constant(monkeypatch, side):
    coproduct_rows = coalgebra._coproduct_rows

    def toggled(by_dim):
        row = coproduct_rows(by_dim)
        if by_dim[0][0].weight % 2 != side:
            return row

        def toggled_row(d):
            if d != len(by_dim) - 1:
                return row(d)
            # b_0 (x) b_0 in split 1 of element 0 of the top degree
            top = [list(split) for split in row(d)]
            top[1][0] = tuple(sorted(set(top[1][0]) ^ {0}))
            return tuple(map(tuple, top))

        return toggled_row

    monkeypatch.setattr(coalgebra, "_coproduct_rows", toggled)
    for k in (1, 4, 8):
        rep = check_lemma_braid(k)
        assert rep.bijection_ok and not rep.coproduct_ok and not rep.verified
