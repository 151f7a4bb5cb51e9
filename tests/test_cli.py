"""End-to-end tests of the command line interface."""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidrat import cli, coalgebra, families, operations
from braidrat.cli import main
from braidrat.coalgebra import (
    BraidConfReport, IsoVerdict, LemmaBraidReport, theorem_main,
)
from braidrat.families import Family, basis_size, poincare_vector
from helpers import rank_triples


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def test_basis_text(capsys):
    code, out, err = run(capsys, "basis", "--family", "braid", "--k", "6")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("  dim")]
    assert len(rows) == 6
    assert "elapsed" in err


def test_basis_json_schema(capsys):
    code, data = run_json(capsys, "basis", "--family", "rat", "--k", "1")
    assert code == 0
    assert data["schema"] == 2
    assert [c["label"] for c in data["classes"]] == ["g", "rho_0"]
    assert data["classes"][1]["embedding"] == [{"g": -1, "q": {"1": 1}}]


def test_basis_conf_weight_two(capsys):
    code, data = run_json(capsys, "basis", "--family", "conf", "--k", "2")
    assert code == 0
    assert [c["label"] for c in data["classes"]] == ["1", "c_0", "c_0^2", "c_1"]


def test_s_set_command(capsys):
    code, data = run_json(capsys, "s-set", "--family", "rat", "--k", "7")
    assert code == 0
    support = data["support"]
    assert 5 in support and 2 not in support


def test_theorem_main_range_passes(capsys):
    code, data = run_json(capsys, "theorem-main", "--from", "2", "--to", "10")
    assert code == 0
    assert data["all_conform"] is True
    k3 = [r for r in data["reports"] if r["k"] == 3][0]
    assert k3["distinct"] is False
    assert k3["iso"]["kind"] == "yes"
    assert k3["iso"]["witness"]


def test_theorem_main_k1_reports_isomorphism(capsys):
    code, data = run_json(capsys, "theorem-main", "--from", "1", "--to", "1")
    assert code == 0
    assert data["reports"][0]["iso"]["kind"] == "yes"


def test_theorem_main_rejects_bad_range(capsys):
    code, out, err = run(capsys, "theorem-main", "--from", "5", "--to", "2")
    assert code == 2
    assert "error" in err


def test_lemma_braid_command(capsys):
    code, data = run_json(capsys, "lemma-braid", "--max-k", "4")
    assert code == 0
    assert data["all_verified"] is True
    assert len(data["reports"]) == 4


def test_iso_yes(capsys):
    code, data = run_json(capsys, "iso", "--a", "braid:6", "--b", "rat:3")
    assert code == 0
    assert data["verdict"]["kind"] == "yes"
    assert len(data["verdict"]["witness"]) == 5


def test_iso_no_with_invariant(capsys):
    code, data = run_json(capsys, "iso", "--a", "braid:4", "--b", "rat:2")
    assert code == 0
    assert data["verdict"]["kind"] == "no"
    assert "invariant" in data["verdict"]


def test_iso_steenrod_constrained(capsys):
    code, data = run_json(capsys, "iso", "--a", "braid:6", "--b", "rat:3", "--steenrod")
    assert code == 0
    assert data["inputs"]["steenrod_constrained"] is True
    assert data["verdict"]["kind"] == "yes"


def test_iso_inconclusive_exits_one(capsys):
    code, data = run_json(
        capsys, "--iso-budget", "1", "iso", "--a", "braid:6", "--b", "rat:3"
    )
    assert code == 1
    assert data["verdict"]["kind"] == "inconclusive"


def test_sweeps_refuse_max_k_below_one(capsys):
    # an empty sweep checks nothing, so it must not report a pass
    for command in ("lemma-braid", "braid-conf"):
        for max_k in ("0", "-3"):
            code, out, err = run(capsys, "--format", "json", command, "--max-k", max_k)
            assert code == 2
            assert err.startswith("error:") and "--max-k" in err
            assert out == ""


def test_negative_iso_budget_is_a_usage_error(capsys):
    # refused when parsed, also where no search would run
    for argv in (("iso", "--a", "conf:2", "--b", "braid:4"),
                 ("theorem-main", "--from", "5", "--to", "6")):
        with pytest.raises(SystemExit) as exc:
            main(["--iso-budget", "-1", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--iso-budget" in captured.err and captured.out == ""
    # a budget of 0 decides by the invariants alone
    code, data = run_json(capsys, "--iso-budget", "0", "iso", "--a", "conf:2", "--b", "braid:4")
    assert code == 1 and data["verdict"]["kind"] == "inconclusive"
    code, data = run_json(capsys, "--iso-budget", "0", "iso", "--a", "rat:4", "--b", "braid:8")
    assert code == 0 and data["verdict"]["kind"] == "no"


def test_inconclusive_search_is_not_reported_falsified(capsys):
    code, out, _ = run(
        capsys, "--iso-budget", "1", "theorem-main", "--from", "3", "--to", "3"
    )
    assert code == 1
    assert "isomorphic=inconclusive  [INCONCLUSIVE]" in out
    assert "FALSIFIED" not in out
    assert out.splitlines()[-1] == "RESULT: inconclusive"
    code, out, _ = run(capsys, "--iso-budget", "1", "braid-conf", "--max-k", "2")
    assert code == 1
    assert "FALSIFIED" not in out and "[INCONCLUSIVE]" in out
    assert out.splitlines()[-1] == "RESULT: inconclusive"


def test_sweep_json_result_key(capsys, monkeypatch):
    for argv, key in (
        (["theorem-main", "--from", "3", "--to", "3"], "all_conform"),
        (["braid-conf", "--max-k", "2"], "all_isomorphic"),
    ):
        code, data = run_json(capsys, "--iso-budget", "1", *argv)
        assert code == 1 and data[key] is False and data["result"] == "inconclusive"
        code, data = run_json(capsys, *argv)
        assert code == 0 and data[key] is True and data["result"] == "pass"
    code, data = run_json(capsys, "lemma-braid", "--max-k", "2")
    assert code == 0 and data["all_verified"] is True and data["result"] == "pass"
    monkeypatch.setattr(
        cli, "check_lemma_braid", lambda k, **kw: LemmaBraidReport(k, False, True, 0)
    )
    code, data = run_json(capsys, "lemma-braid", "--max-k", "2")
    assert code == 1 and data["all_verified"] is False and data["result"] == "fail"
    code, out, _ = run(capsys, "lemma-braid", "--max-k", "2")
    assert out.splitlines()[-1] == "RESULT: FAIL"


@pytest.mark.parametrize("argv, key, patch", [
    (["theorem-main", "--from", "1", "--to", "2"], "all_conform",
     ("theorem_main", lambda k, **kw: theorem_main(k)._replace(distinct=True))),
    (["braid-conf", "--max-k", "2"], "all_isomorphic",
     ("check_braid_conf",
      lambda k, **kw: BraidConfReport(k, IsoVerdict("no" if k == 1 else "yes", tried=k)))),
], ids=["theorem-main", "braid-conf"])
def test_sweep_falsified(capsys, monkeypatch, argv, key, patch):
    # k = 1 does not conform, k = 2 does
    monkeypatch.setattr(cli, *patch)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("k=1  ") and lines[0].endswith("  [FALSIFIED]")
    assert lines[1].endswith("  [ok]")
    assert lines[-1] == "RESULT: FAIL" and len(lines) == 3
    code, data = run_json(capsys, *argv)
    assert code == 1 and data[key] is False and data["result"] == "fail"
    assert len(data["reports"]) == 2


def test_internal_error_exits_two(capsys, monkeypatch):
    def broken(args, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_basis", broken)
    code, out, err = run(capsys, "basis", "--family", "rat", "--k", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "boom" in err


def test_global_flags_after_subcommand(capsys):
    before = run(capsys, "--format", "json", "--iso-budget", "1",
                 "iso", "--a", "braid:6", "--b", "rat:3")
    after = run(capsys, "iso", "--a", "braid:6", "--b", "rat:3",
                "--format", "json", "--iso-budget", "1")
    assert before[0] == after[0] == 1
    assert before[1] == after[1]
    assert json.loads(after[1])["verdict"]["kind"] == "inconclusive"
    split = run(capsys, "--format", "json", "iso", "--a", "braid:6", "--b", "rat:3",
                "--iso-budget", "1")
    assert split[:2] == after[:2]


def test_iso_bad_spec(capsys):
    code, out, err = run(capsys, "iso", "--a", "braid-6", "--b", "rat:3")
    assert code == 2


def test_steenrod_command(capsys):
    code, data = run_json(capsys, "steenrod", "--family", "rat", "--k", "3")
    assert code == 0
    assert data["matrices"]["3"] == [[0, 1]]
    assert data["matrices"]["4"] == [[1], [0]]


def test_steenrod_j2_needs_no_flag(capsys):
    # Sq_j^* comes from the same closed form for every j, so j >= 2 is not
    # gated behind a flag
    code, data = run_json(capsys, "steenrod", "--family", "braid", "--k", "6", "--j", "2")
    assert code == 0
    assert data["inputs"] == {"family": "braid", "k": 6, "j": 2}


def test_braid_conf_command(capsys):
    code, data = run_json(capsys, "braid-conf", "--max-k", "3")
    assert code == 0
    assert data["all_isomorphic"] is True


def test_json_output_is_deterministic(capsys):
    _, first = run_json(capsys, "theorem-main", "--from", "2", "--to", "6")
    _, second = run_json(capsys, "theorem-main", "--from", "2", "--to", "6")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    code, out1, _ = run(capsys, "--format", "json", "basis", "--family", "rat", "--k", "4")
    code, out2, _ = run(capsys, "--format", "json", "basis", "--family", "rat", "--k", "4")
    assert out1 == out2


def test_unknown_family_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--family", "nope", "--k", "2"])
    assert exc.value.code == 2


def test_top_class_commands_fail_fast_on_huge_k(capsys, monkeypatch):
    # rat:32767 embeds as 2^14 monomials of dimension 65519, and braid:2^40
    # has dimension 2^41 - 2; theorem-main refuses a range whose supports
    # cost more than 2^28 bits together (here by k = 1999 and k = 1998),
    # before it computes the first k
    counts = _count_builds(monkeypatch)
    for argv in (
        ("s-set", "--family", "rat", "--k", "32767"),
        ("s-set", "--family", "braid", "--k", str(1 << 40)),
        ("theorem-main", "--from", "100", "--to", "40000"),
        ("theorem-main", "--from", "1", "--to", "16383"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error:") and "top-class support cost" in err
        assert out == ""
    assert counts == {"enumerate": 0, "embed": 0}
    code, data = run_json(capsys, "s-set", "--family", "rat", "--k", "4095")
    assert code == 0 and data["dim"] == 8178


def test_extraction_fails_fast_on_predicted_basis_size(capsys):
    # rat:200 has 7,389,572 basis monomials; none may be enumerated.  Every
    # family has more than k/2 at k = 3,000,000; they may not even be counted.
    for argv, message in (
        (("iso", "--a", "rat:200", "--b", "braid:400"),
         "basis size 7389572 exceeds bound 4096"),
        (("iso", "--a", "rat:3000000", "--b", "braid:2"),
         "exceeds bound 4096"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error:") and message in err
        assert out == ""


def test_basis_and_lemma_braid_fail_fast_on_predicted_basis_size(capsys):
    # rat:1000 has about 2.6*10^11 basis monomials, and the last of the
    # braid bases lemma-braid would enumerate, braid:201, has more than 4096
    for argv, message in (
        (("basis", "--family", "rat", "--k", "1000"),
         f"basis size {basis_size(Family.RAT, 1000)} exceeds bound 4096"),
        (("lemma-braid", "--max-k", "100"),
         f"basis size {basis_size(Family.BRAID, 201)} exceeds bound 4096"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error:") and message in err
        assert out == ""


def test_braid_conf_fails_fast_on_predicted_basis_size(capsys, monkeypatch):
    # conf:40 and braid:80 have 4124 basis monomials each; the k = 1..39
    # that pass may not run before the refusal
    counts = _count_builds(monkeypatch)
    for max_k in ("40", "1000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "braid-conf", "--max-k", max_k)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error:") and "exceeds bound" in err
        assert out == ""
    assert counts == {"enumerate": 0, "embed": 0}


def _count_builds(monkeypatch):
    """Count basis enumerations and basis embeddings: the embeddings made
    outside the generator checks, which embed only generators and their
    closed-form images."""
    counts = {"enumerate": 0, "embed": 0}
    checking = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += not checking
            return fn(*args, **kwargs)
        return wrapper

    def check(*args):
        checking.append(args)
        try:
            return check_generator(*args)
        finally:
            checking.pop()

    check_generator = coalgebra._check_generator
    monkeypatch.setattr(
        families, "_exponent_vectors", counted("enumerate", families._exponent_vectors)
    )
    monkeypatch.setattr(coalgebra, "_embed", counted("embed", coalgebra._embed))
    monkeypatch.setattr(coalgebra, "_check_generator", check)
    return counts


def test_iso_with_steenrod_builds_each_component_once(capsys, monkeypatch):
    counts = _count_builds(monkeypatch)
    code, data = run_json(capsys, "iso", "--a", "rat:13", "--b", "braid:26", "--steenrod")
    assert code == 0 and data["verdict"]["kind"] == "no"
    assert counts == {"enumerate": 2, "embed": 0}


def test_iso_without_steenrod_enumerates_each_component_and_embeds_nothing(capsys, monkeypatch):
    counts = _count_builds(monkeypatch)
    code, data = run_json(capsys, "iso", "--a", "rat:13", "--b", "braid:26")
    assert code == 0 and data["verdict"]["kind"] == "no"
    assert counts == {"enumerate": 2, "embed": 0}


def test_lemma_braid_enumerates_each_basis_once_and_runs_no_psi(capsys, monkeypatch):
    # psi runs only in the generator checks, on the halves of the embeddings
    # of g and gamma_1..gamma_4, which braid:2..17 hold, and never on the
    # embedding of a basis element
    psi_calls = []
    psi_half = operations._psi_half
    monkeypatch.setattr(operations, "_psi_half", lambda h: psi_calls.append(h) or psi_half(h))
    counts = _count_builds(monkeypatch)
    code, data = run_json(capsys, "lemma-braid", "--max-k", "8")
    assert code == 0 and data["all_verified"] is True
    assert counts == {"enumerate": 16, "embed": 0}
    halves = [h for idx in range(5) for h in families._generator_halves(Family.BRAID, idx)[0]]
    assert set(psi_calls) == set(halves)


def _count_decision_work(monkeypatch):
    """Count Steenrod matrix builds, and record the dims of every coalgebra built."""
    steenrod_calls, built = [], []
    steenrod, post_init = coalgebra.component_steenrod, coalgebra.GradedCoalgebra.__post_init__

    def counted_steenrod(by_dim, *args):
        steenrod_calls.append(len(by_dim))
        return steenrod(by_dim, *args)

    def recorded(self):
        built.append(self.dims)
        return post_init(self)

    monkeypatch.setattr(coalgebra, "component_steenrod", counted_steenrod)
    monkeypatch.setattr(coalgebra.GradedCoalgebra, "__post_init__", recorded)
    return steenrod_calls, built


def test_iso_no_on_ranks_builds_only_the_degrees_it_reads(capsys, monkeypatch):
    # rat:13 and braid:26 have degrees 0-23; their ranks first differ at the
    # stable edge, degree 14, which is the only degree multiplied out, and a
    # 'no' read there builds no coalgebra
    steenrod_calls, built = _count_decision_work(monkeypatch)
    read, multiply_out = set(), coalgebra._multiply_out

    def recorded(*args):
        expand = multiply_out(*args)

        def recorded_expand(fm):
            read.add(fm.dim)
            return expand(fm)

        return recorded_expand

    monkeypatch.setattr(coalgebra, "_multiply_out", recorded)
    code, data = run_json(capsys, "iso", "--a", "rat:13", "--b", "braid:26", "--steenrod")
    assert code == 0 and data["verdict"]["invariant"] == "component_ranks"
    assert len(data["dims"]) == 24
    assert steenrod_calls == []
    assert built == []
    assert read == {14}


def test_iso_steenrod_yes_builds_the_matrices_once_per_side(capsys, monkeypatch):
    steenrod_calls, built = _count_decision_work(monkeypatch)
    code, data = run_json(capsys, "iso", "--a", "braid:6", "--b", "rat:3", "--steenrod")
    assert code == 0 and data["verdict"]["kind"] == "yes"
    assert steenrod_calls == [5, 5]
    assert built == [tuple(data["dims"])] * 2


def test_a_yes_multiplies_out_each_component_once(capsys, monkeypatch):
    # a 'yes' reads the stable-edge degrees and then builds both coalgebras
    # from the same coproducts; counted by the ring map multiplied out
    images, multiply_out = [], coalgebra._multiply_out

    def counted(by_dim, image, *args):
        images.append(image.__name__)
        return multiply_out(by_dim, image, *args)

    monkeypatch.setattr(coalgebra, "_multiply_out", counted)
    v = coalgebra.components_isomorphic(families._basis_by_dim(Family.CONF, 6),
                                        families._basis_by_dim(Family.BRAID, 12))
    assert v.kind == "yes" and v.tried == 20
    assert images == ["generator_coproduct"] * 2
    images.clear()
    assert main(["iso", "--a", "braid:6", "--b", "rat:3", "--steenrod"]) == 0
    capsys.readouterr()
    assert sorted(images) == [
        "_total_steenrod", "_total_steenrod", "generator_coproduct", "generator_coproduct",
    ]


def test_extract_compare_json_is_the_full_json_cut_at_degree_14(capsys):
    code, data = run_json(capsys, "iso", "--a", "rat:13", "--b", "braid:26", "--steenrod")
    assert code == 0
    # the verdict once printed the rank triples of every degree; the test
    # oracle recomputes them from the whole extracted coalgebras
    full = {
        side: rank_triples(coalgebra.extract_coalgebra(family, k).delta)
        for side, family, k in (("left", Family.RAT, 13), ("right", Family.BRAID, 26))
    }
    old = {**data, "verdict": json.loads(json.dumps({**data["verdict"], **full}))}
    # the digest pinned before the ranks were cut
    printed = json.dumps(old, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(printed.encode()).hexdigest() == (
        "af3eb1a3827debabd0abfd1bbfa480755ea2905ffbe2fbaf39b2e7b3a62ec8ca")
    # now the verdict names the one split whose ranks differ, at the stable
    # edge, degree 14 = 13 + 1, split 2, and agrees with the oracle there
    one = {"left": [14, 2, 4], "right": [14, 2, 3]}
    assert data == {**old, "verdict": {**old["verdict"], **one}}
    assert all(tuple(one[side]) in full[side] for side in one)


def test_braid_conf_embeds_nothing(capsys, monkeypatch):
    counts = _count_builds(monkeypatch)
    code, data = run_json(capsys, "braid-conf", "--max-k", "4")
    assert code == 0 and data["all_isomorphic"] is True
    assert counts == {"enumerate": 8, "embed": 0}


def test_steenrod_reads_its_column_counts_from_the_component(capsys, monkeypatch):
    dims = poincare_vector(Family.CONF, 8)
    counts = _count_builds(monkeypatch)
    code, data = run_json(capsys, "steenrod", "--family", "conf", "--k", "8")
    assert code == 0
    assert counts == {"enumerate": 1, "embed": 0}
    assert {d: len(rows[0]) for d, rows in data["matrices"].items() if rows} == {
        str(d): dims[d] for d in range(1, len(dims)) if dims[d - 1] and dims[d]
    }


def test_steenrod_fails_fast_on_predicted_basis_size(capsys):
    # rat:60 has 20,798 basis monomials; none may be enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "steenrod", "--family", "rat", "--k", "60")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error:") and "basis size 20798 exceeds bound 4096" in err
    assert out == ""


def test_coproduct_field_range_exits_two(capsys):
    # the top class of rat:2^32 holds rho_32, whose embedding has index 33
    # and leaves the packed field range (test_coproduct_field_range_guard);
    # its predicted support cost, 2 * 2^33 bits, refuses it first
    code, out, err = run(capsys, "s-set", "--family", "rat", "--k", str(1 << 32))
    assert code == 2
    assert err.startswith("error:") and f"cost {1 << 34} exceeds bound" in err
    assert out == ""


def test_readme_lists_every_global_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Global flags", 1)[1].split("\n\n", 1)[0]
    parser = cli.build_parser()
    flags = {
        opt for action in parser._actions for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == flags


def test_readme_library_block_shows_its_values():
    # every bare expression of the README's "## Library" block, run in order,
    # against the value its comment shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env: dict = {}
    shown = {}
    for node in ast.parse(block).body:
        code = ast.unparse(node)
        if isinstance(node, ast.Expr):
            shown[code] = eval(code, env)
        else:
            exec(code, env)
    kind, witness = shown.pop("(v.kind, v.witness)")
    a, b = coalgebra.extract_coalgebra(Family.BRAID, 6), coalgebra.extract_coalgebra(Family.RAT, 3)
    assert kind == "yes" and coalgebra.verify_coalgebra_map(a, b, witness)
    assert shown.pop("sorted(s_set(x))")[:5] == [0, 1, 3, 4, 5]
    assert {(left.label(), right.label())
            for left, right in shown.pop("generator_coproduct(Family.RAT, 0)")} == {
        ("g", "rho_0"), ("rho_0", "g")}
    assert {fm.label() for fm in shown.pop("generator_steenrod(Family.RAT, 1)")} == {"rho_0^2"}
    assert shown == {
        "x.dim": 11,
        "basis_size(Family.RAT, 200)": 7389572,
        "c.dims": (1, 1, 1, 2, 1),
        "c.delta[4][1]": ((0, 1),),
        "steenrod_matrix(Family.RAT, 3)[4]": (1, 0),
    }


# sha256 of the --format json stdout, with the exit code, recorded when the
# structure constants (first six) and the Steenrod matrices (next three)
# were still solved on the ambient algebra; the next two, which cover the
# k = 1 and k = 3 isomorphism witnesses of theorem-main and a
# Steenrod-compatible yes, before the structure constants were packed; the
# last four, which cover basis, s-set, lemma-braid and an inconclusive sweep,
# while every handler still printed its own output.  The second,
# extract-compare, was re-recorded three times: when a 'no' on
# component_ranks began to report the ranks through the first degree where
# they differ (here 14 of 0-23) instead of over every degree, when it began
# to report only the splits it read at the stable edge (degree 14, splits 1
# and 2), and when it began to report only the split whose ranks differ
# (degree 14, split 2); the test
# test_extract_compare_json_is_the_full_json_cut_at_degree_14 rebuilds the
# digest recorded before all three from the full route.  Its text output
# does not show the ranks, so its PINNED_TEXT digest held.
PINNED_JSON = [
    (("theorem-main", "--from", "65", "--to", "100"), 0,
     "5e0a0e67a86780fd1f3b325745faacabc4f52c6a8196b8617d4e9372fa9cdec6"),
    (("iso", "--a", "rat:13", "--b", "braid:26", "--steenrod"), 0,
     "014ebcfdfaffd677cbf1d1224b51146cf2b4cf0b54db2686a2f7699c75b56f8d"),
    (("--iso-budget", "15000", "iso", "--a", "conf:6", "--b", "braid:12"), 0,
     "43fc6bb5794a482e9d947c8432af788f8e5649d8725009add129ee7b221e7f7e"),
    (("braid-conf", "--max-k", "8"), 0,
     "65eaa035f67e61f7c865937d112a6db80e7700796dd31ea15eb7f6abd552e00e"),
    (("steenrod", "--family", "rat", "--k", "12", "--j", "2"), 0,
     "eb5b4f6cc091028d7f7dd48d4c9f2aa3ea74c1877c573cc07c95f77247611bda"),
    (("iso", "--a", "conf:16", "--b", "braid:32", "--steenrod"), 0,
     "9279461d98234155f13f1aabeacebbd8599a68d0629dde31e30e804804762f9d"),
    (("steenrod", "--family", "conf", "--k", "32", "--j", "2"), 0,
     "72d960adfa97b498a82ff8924d14da6eda55783d55ccc2c060c69c6b1061a3f7"),
    (("steenrod", "--family", "braid", "--k", "64", "--j", "3"), 0,
     "242fde0fbf7563c3dd86657380825779e9e1183b597e4d4101a3ccab0fbaf4c0"),
    (("steenrod", "--family", "rat", "--k", "60"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("theorem-main", "--from", "1", "--to", "8"), 0,
     "ba68ba33681d63476bc0da1e8ac9f66e4f4e9ca71ad122e23976fae98306ce7f"),
    (("iso", "--a", "braid:6", "--b", "rat:3", "--steenrod"), 0,
     "4e42fb390176cf07ddf2c74c5c07efc49e3f3cbd52b47f00ed4a0c49358a7c4c"),
    (("basis", "--family", "rat", "--k", "5"), 0,
     "0470f9e2890bc6c2158ea6cd79fee654e232bf6380b301d243fc2ea9eaedb7f5"),
    (("s-set", "--family", "rat", "--k", "37"), 0,
     "18dc3402234a1c613df91ad01858307c3eb09b4a935257faee2613cdd35c4f72"),
    (("lemma-braid", "--max-k", "5"), 0,
     "f5a3594f69fa99b3070d429795c375521df569e4643939b3db234dff53fd443b"),
    (("--iso-budget", "1", "theorem-main", "--from", "3", "--to", "3"), 1,
     "4b6a85c0bb69af5cb46c20f595f1e17d1a30a35f919d59e2d07534da02b550aa"),
]

# sha256 of the --format text stdout, with the exit code, for the argv of
# PINNED_JSON in the same order, recorded while every handler still printed
# its own output
PINNED_TEXT = [
    (argv, code, digest) for (argv, code, _), digest in zip(PINNED_JSON, [
        "c838c9f9396f38d3bd170863fc6064bd6c925ee21b250efd9a23e932b5e34e6e",
        "c01ed157dc593c1c871d48fed8685df816e0a2ef71d552bd4aea3e9e74b2485d",
        "9e1c4e3e4ec3a156deef9e7c95abdcb93decf7aa9ecd9c0d764f9b7567c4fdf2",
        "30f016cc3e105df0cbe3ce3810d6a44d5e0715b5d48a8b17560504a833127e11",
        "df921a7673bd11eed39841a6a65150258e4603946468bed4c501a5d43f9c0e43",
        "a04e20090e18248433d5da2d64dddd9cff07938b99e6de1233a920bf0b26fc74",
        "077f0b913f1ae876ddb55764c6dcb4cead4af0d1eee9cdb9d7ba3a89b96b95da",
        "cb86f908b5650f1e3d952bf61310c488f22de8d950c5e3516b54423684dc4c69",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "294a8edaa6a02f0c11cf14dc77d9fca34cc38f9ac1aaa21787737b04ce7d73ea",
        "0df2009d4c495c88ab29c29eac5713f2a951b68165e6638a3c1e7ba1d99ff9d3",
        "e58678460203131df5975ff67087a6ec2b1351d305142e20f0a9e462f0134501",
        "d7c40dbf22b022897250a7ec374cfbc25091646af5fa058f56294ab3538b71fa",
        "45337af02a09fc92ec742e6ba31e9a81b83d7cdd387015ce10b26c195733f15a",
        "e0087c12cbc3e0bb43087a89b73cd849913a471fc9354512c94cda0223daea52",
    ], strict=True)
]

PINNED_IDS = [
    "support-sweep", "extract-compare", "iso-search", "braid-conf", "steenrod", "iso-steenrod",
    "steenrod-conf-j2", "steenrod-braid-j3", "steenrod-refused", "theorem-main-witnesses",
    "iso-steenrod-yes", "basis", "s-set", "lemma-braid", "theorem-main-inconclusive",
]


@pytest.mark.parametrize("argv, code, digest", PINNED_JSON, ids=PINNED_IDS)
def test_json_stdout_is_pinned(capsys, argv, code, digest):
    # the first three are the benchmark's workloads
    got, out, _ = run(capsys, "--format", "json", *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, digest", PINNED_TEXT, ids=PINNED_IDS)
def test_text_stdout_is_pinned(capsys, argv, code, digest):
    got, out, _ = run(capsys, "--format", "text", *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def fresh_python(*args, text=True, redirect=None):
    """Run a fresh interpreter as the benchmark's children run: the caller's
    environment without its PYTHON* settings, importing ``src/``
    (``child_env`` in ``bench/run.py``).  With ``redirect``, such as
    ``2>&-``, it runs under ``sh -c`` with that redirection."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    cmd = [sys.executable, *args]
    if redirect is not None:
        cmd = ["sh", "-c", f'"$0" "$@" {redirect}', *cmd]
    return subprocess.run(cmd, env=env, capture_output=True, text=text, timeout=120)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast and dis, which cost every CLI run
    # more start-up time than some whole commands take
    proc = fresh_python("-c", "import sys, braidrat.cli; print(sorted("
                        "{'dataclasses', 'inspect', 'ast', 'dis'} & sys.modules.keys()))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_help_in_a_fresh_interpreter():
    proc = fresh_python("-m", "braidrat.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: braidrat")


def test_fresh_interpreter_prints_every_byte_and_keeps_the_exit_codes(capsys):
    # python -m braidrat.cli ends through cli.run, which flushes stdout and
    # stderr and leaves by os._exit; about 100 KB, more than a pipe buffer,
    # must still arrive whole
    argv = ("--format", "json", "theorem-main", "--from", "1", "--to", "100")
    proc = fresh_python("-m", "braidrat.cli", *argv, text=False)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0, proc.stderr
    assert len(proc.stdout) > 1 << 16 and proc.stdout == out.encode()
    for argv, want in [
        (("--help",), 0),
        (("iso", "--a", "rat:13", "--b", "braid:26"), 0),  # a 'no'
        (("--iso-budget", "1", "theorem-main", "--from", "3", "--to", "3"), 1),
        (("--bogus",), 2),
        (("steenrod", "--family", "rat", "--k", "60"), 2),
    ]:
        proc = fresh_python("-m", "braidrat.cli", *argv)
        assert proc.returncode == want, (argv, proc.stderr)
        assert proc.stdout or want == 2
    # with stderr closed, the elapsed line cannot be written: exit 2, as for
    # a failed flush, after the whole of stdout
    argv = ("basis", "--family", "rat", "--k", "3")
    proc = fresh_python("-m", "braidrat.cli", *argv, redirect="2>&-")
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, code) == (2, 0) and proc.stdout == out
    # with stdout closed, the verdict cannot be written: exit 2, with the
    # error on stderr
    for argv in (("iso", "--a", "rat:3", "--b", "braid:6"),
                 ("--format", "json", "theorem-main", "--from", "1", "--to", "3")):
        proc = fresh_python("-m", "braidrat.cli", *argv, redirect=">&-")
        assert proc.returncode == 2, argv
        assert proc.stderr == "error: OSError: stdout is closed\n", argv
