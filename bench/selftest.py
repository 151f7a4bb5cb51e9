"""Self-test of the benchmark harness; it does not time anything.

    python3 bench/selftest.py

Covers the tracer's self-time arithmetic, the output checks (a wrong verdict
or an unexpected exit code must count as failed), the independent witness
verifier, byte-identical traced stdout, and agreement of BENCHMARK.json with
the harness's own definitions.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import unittest

import run
import workloads
from tracer import Tracer
from workloads import WORKLOADS, judge

sys.path.insert(0, str(run.ROOT / "src"))
ENV = run.child_env()


def child(*args: str) -> dict:
    return run.spawn(run.cli_argv("--format", "json", *args), ENV)


def fake_sample(name: str | None, verdict: workloads.Judgment) -> dict:
    return {"kind": "plain" if name else "setup", "workload": name, "ok": verdict.ok, "decided": verdict.decided,
            "reason": verdict.reason, "exit": 0, "wall_s": 1.0, "cpu_s": 1.0,
            "peak_rss_mib": 10.0}


class TracerArithmetic(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def inner(dt):
            now[0] += dt

        inner_w = tracer.wrap("b.inner", inner)

        def outer():
            now[0] += 1
            inner_w(2)
            now[0] += 3
            inner_w(4)

        tracer.wrap("a.outer", outer)()
        self.assertEqual(tracer.edges[(None, "a.outer")], [1, 10.0, 4.0])
        self.assertEqual(tracer.edges[("a.outer", "b.inner")], [2, 6.0, 6.0])
        self.assertEqual(tracer.stack, [])

    def test_generator_resumptions_are_spans(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def gen():
            for _ in range(3):
                now[0] += 2
                yield None

        wrapped = tracer.wrap("g.gen", gen)
        for _ in wrapped():
            now[0] += 5  # consumer time is not the generator's
        self.assertEqual(tracer.edges[(None, "g.gen")], [4, 6.0, 6.0])

    def test_exception_closes_span(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.wrap("a.boom", boom)()
        self.assertEqual(tracer.stack, [])
        self.assertEqual(tracer.edges[(None, "a.boom")][0], 1)


NO_DOC = {"verdict": {"kind": "no", "invariant": "dims", "left": [1], "right": [2]}}


class OutputChecks(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)

    def test_wrong_verdicts_fail(self):
        bad = {
            "extract-compare": (0, {"verdict": {"kind": "yes", "witness": []}}),
            "iso-search": (0, {"verdict": {"kind": "no", "invariant": "dims",
                                           "left": [1], "right": [2]}}),
            "support-sweep": (0, {"all_conform": True, "reports": [
                {"k": k, "support_x": [0, 1], "support_y": workloads.braid_top_support(k),
                 "distinct": True} for k in workloads.SWEEP_KS]}),
        }
        for name, (code, doc) in bad.items():
            with self.subTest(name=name):
                self.assertFalse(WORKLOADS[name].check(code, doc).ok)

    def test_wrong_verdict_raises_failed_ratio(self):
        wl = WORKLOADS["extract-compare"]
        good = judge(wl, 0, json.dumps(NO_DOC).encode())
        wrong = judge(wl, 0, json.dumps({"verdict": {"kind": "yes"}}).encode())
        self.assertTrue(good.ok)
        setup = fake_sample(None, workloads.Judgment(True, False, "help printed"))
        ref = dict(setup, kind="reference")
        clean, _ = run.summarize([setup, ref, ref] + [fake_sample(wl.name, good)] * 2, wl.name,
                                 trace=False)
        dirty, _ = run.summarize([setup, ref, ref, fake_sample(wl.name, good),
                                  fake_sample(wl.name, wrong)], wl.name, trace=False)
        self.assertEqual(clean["failed_ratio"][0], 0)
        self.assertEqual(dirty["failed_ratio"][0], 0.5)

    def test_unexpected_exit_code_fails(self):
        script = f"import sys; print({json.dumps(json.dumps(NO_DOC))}); sys.exit(%d)"
        for code, ok in ((0, True), (1, False), (3, False)):
            sample = run.spawn([sys.executable, "-c", script % code], ENV)
            self.assertEqual(sample["exit"], code)
            verdict = judge(WORKLOADS["extract-compare"], sample["exit"], sample["stdout"])
            self.assertEqual(verdict.ok, ok, code)
        inconclusive = {"verdict": {"kind": "inconclusive"}}
        self.assertFalse(WORKLOADS["iso-search"].check(0, inconclusive).ok)
        self.assertTrue(WORKLOADS["iso-search"].check(1, inconclusive).ok)

    def test_crash_and_garbage_fail(self):
        for stdout in (b"", b"Traceback", b"[1, 2]"):
            self.assertFalse(judge(WORKLOADS["iso-search"], 1, stdout).ok)


class WitnessVerifier(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)

    def test_index_shift_witness_accepted_and_corruption_rejected(self):
        doc = json.loads(child("braid-conf", "--max-k", "4")["stdout"])
        for rep in doc["reports"]:
            k, witness = rep["k"], rep["verdict"]["witness"]
            specs = (("conf", k), ("braid", 2 * k))
            self.assertTrue(workloads.verify_witness(*specs, witness), k)
            big = [d for d, mat in enumerate(witness) if len(mat) > 1]
            if big:
                bad = copy.deepcopy(witness)
                bad[big[0]][0], bad[big[0]][1] = bad[big[0]][1], bad[big[0]][0]
                self.assertFalse(workloads.verify_witness(*specs, bad), k)

    def test_agrees_with_library_on_random_maps(self):
        from braidrat import gf2
        from braidrat.coalgebra import extract_coalgebra, verify_coalgebra_map
        from braidrat.families import Family

        a, b = extract_coalgebra(Family.CONF, 3), extract_coalgebra(Family.BRAID, 6)
        rng = random.Random(7)
        accepted = 0
        for _ in range(100):
            phi = []
            for n in a.dims:
                rows = ()
                while not gf2.is_invertible(list(rows), n):
                    rows = tuple(rng.randrange(1 << n) for _ in range(n))
                phi.append(rows)
            printed = [[[(row >> j) & 1 for j in range(n)] for row in mat]
                       for mat, n in zip(phi, a.dims)]
            mine = workloads.verify_witness(("conf", 3), ("braid", 6), printed)
            self.assertEqual(mine, verify_coalgebra_map(a, b, phi))
            accepted += mine
        self.assertGreater(accepted, 0)

    def test_basis_order_matches_cli(self):
        from braidrat.coalgebra import _basis_by_dim
        from braidrat.families import Family

        for family, k in workloads.ISO_SPECS:
            lib = [[fm.exps for fm in row] for row in _basis_by_dim(Family(family), k)]
            mine = [[tuple((i, e) for i, e in enumerate(v) if e) for v in row]
                    for row in workloads.family_basis(family, k)]
            self.assertEqual(lib, mine)


class TracedRun(unittest.TestCase):
    def test_traced_stdout_is_identical_and_counts_repeat(self):
        run.OUT.mkdir(exist_ok=True)
        args = ("--format", "json", "iso", "--a", "braid:6", "--b", "rat:3", "--steenrod")
        plain = run.spawn(run.cli_argv(*args), ENV)
        trace_path = run.OUT / "selftest-trace.json"
        argv = [sys.executable, str(run.ROOT / "bench" / "tracer.py"), str(trace_path), *args]
        counts = []
        for _ in range(2):
            traced = run.spawn(argv, ENV)
            self.assertEqual((traced["exit"], traced["stdout"]), (plain["exit"], plain["stdout"]))
            traced["trace"] = json.loads(trace_path.read_text())
            traced["stdout_bytes"] = len(traced["stdout"])
            m = run.layer_metrics(traced)
            counts.append({k: v for k, v in m.items() if run.PER_LAYER[k][0] != "s"})
        trace_path.unlink()
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["coalgebra.verify_map.calls"], 0)
        self.assertEqual(set(m), run.PER_LAYER.keys() - run.RUN_LEVEL)


class BenchmarkFile(unittest.TestCase):
    def test_matches_harness_definitions(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: u for k, (u, _) in run.PER_LAYER.items()})


if __name__ == "__main__":
    unittest.main()
