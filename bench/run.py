"""Benchmark runner for braidrat.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every sample is a fresh
``python -m braidrat.cli --format json ...`` child that imports the
checkout's ``src/``; one child runs at a time, in rounds whose order the seed
shuffles, until the next round would end past ``--seconds`` (at least three
rounds).  Wall time is spawn to reap, CPU time and peak RSS come from
``os.wait4`` for that child alone.  Each child's exit code and stdout are
judged by the checks in ``workloads.py``.

With ``--trace 0`` every round also runs two ``--help`` children and one
``reference.py`` child, a fixed pure-Python job of about 0.5 s that uses
nothing from braidrat.  The end-to-end metrics are ``wall_per_ref`` and
``cpu_per_ref``, the upper quartile (75th percentile) of the wall and CPU
time of the workload's children divided by the upper quartile of the wall
and CPU time of the reference children of the same run; ``peak_rss_mib``,
the median over the workload's children; and ``setup_s``, the median over
the ``--help`` children (interpreter start, imports and argparse).  The
table shows the medians of the raw ``wall_s`` and ``cpu_s`` too.

Why relative times: on a shared host the speed of a vCPU jumps between a
contended and an uncontended state about 1.6 times faster, each lasting
seconds, and the share of uncontended time changes from one 40 s run to the
next.  A run's fastest sample then depends on whether it caught an
uncontended stretch, and its median on which state held more than half of
the run; both moved by 15-30% between runs of the same code.  The upper
quartile stays in the contended state unless a run was mostly uncontended,
and the reference children, interleaved with the workload's, run in the
same states, so dividing by theirs cancels changes in how slow that state
is.  Each workload takes about 1 s, so a run has twenty to thirty samples
of it.  ``bench/baseline.json`` has the spread of each metric over ten runs
at the seed.

With ``--trace 1`` each round runs one untraced and one traced child
(``tracer.py``) per workload.  Per-layer times are medians over the traced
children and work counts, which repeat exactly, are taken as they are;
``trace.overhead_s`` is the difference of the median wall times of the two
kinds.

A table with every metric, its unit, and the minimum, median and quartiles
of its samples goes to stdout, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Per-sample
records (Python version, git rev, nproc, load average, a pure-Python
calibration probe) are written to ``bench/out/``.  The exit code is 0 when
every output check passed, 1 when one failed and 2 when the program could
not be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
from workloads import WORKLOADS, Judgment, judge

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
CHILD_TIMEOUT_S = 150.0
LAST_ROUND_END_S = 150.0  # no round is started that would end later
MIN_ROUNDS = 3
SETUP_PER_ROUND = 2

END_TO_END = {
    "wall_per_ref": "ratio", "cpu_per_ref": "ratio", "peak_rss_mib": "MiB", "setup_s": "s",
}

_SWEEP = "support-sweep"
_ALL = "all workloads"
# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "process.startup_s": ("s", f"setup_s, {_ALL}"),
    "process.teardown_s": ("s", f"wall_per_ref and peak_rss_mib, {_SWEEP}"),
    "cli.self_s": ("s", f"setup_s, {_ALL}"),
    "cli.stdout_bytes": ("bytes", f"setup_s, {_ALL}"),
    "operations.psi_cache.entries": ("count", f"wall_per_ref and peak_rss_mib, {_SWEEP}"),
    "operations.psi_cache.miss_ratio": ("ratio", f"wall_per_ref and peak_rss_mib, {_SWEEP}"),
    "ambient.self_s": ("s", f"wall_per_ref, {_SWEEP} and extract-compare"),
    "ambient.tensor_mul.calls": ("count", f"wall_per_ref, {_SWEEP}"),
    "ambient.tensor_mul.pair_products": ("count", f"wall_per_ref, {_SWEEP}"),
    "ambient.elem_mul.term_products": ("count", f"wall_per_ref, {_SWEEP} and extract-compare"),
    "ambient.tensor.calls": ("count", "wall_per_ref, extract-compare"),
    "ambient.tensor_components.terms_in": ("count", "wall_per_ref, extract-compare"),
    "operations.self_s": ("s", f"wall_per_ref, {_SWEEP}"),
    "operations.coproduct.calls": ("count", f"wall_per_ref, {_SWEEP}"),
    "operations.coproduct.terms_in": ("count", f"wall_per_ref, {_SWEEP}"),
    "operations.coproduct.terms_out": ("count", f"wall_per_ref, {_SWEEP}"),
    "operations.sq.calls": ("count", "wall_per_ref, extract-compare"),
    "families.self_s": ("s", "wall_per_ref, extract-compare"),
    "families.embed.calls": ("count", "wall_per_ref, extract-compare"),
    "families.embed.terms_out": ("count", "wall_per_ref, extract-compare"),
    "coalgebra.self_s": ("s", "wall_per_ref, extract-compare"),
    "coalgebra.extract.self_s": ("s", "wall_per_ref, extract-compare"),
    "coalgebra.coassoc_check.self_s": ("s", "wall_per_ref, extract-compare"),
    "coalgebra.steenrod_matrix.self_s": ("s", "wall_per_ref, extract-compare"),
    "coalgebra.invariants.self_s": ("s", "wall_per_ref, extract-compare"),
    "coalgebra.basis_size": ("count", "wall_per_ref, extract-compare"),
    "coalgebra.iso_search.self_s": ("s", "wall_per_ref and decided_ratio, iso-search"),
    "coalgebra.iso_search.candidates": ("count", "wall_per_ref and decided_ratio, iso-search"),
    "coalgebra.verify_map.calls": ("count", "wall_per_ref and decided_ratio, iso-search"),
    "coalgebra.verify_map.accept_ratio": ("ratio", "wall_per_ref and decided_ratio, iso-search"),
    "gf2.rank.calls": ("count", "wall_per_ref and decided_ratio, iso-search"),
    "gf2.rank.rows": ("count", "wall_per_ref and decided_ratio, iso-search"),
    "gf2.self_s": ("s", "wall_per_ref, extract-compare"),
    "gf2.solve.calls": ("count", "wall_per_ref, extract-compare"),
    "gf2.solve.rows": ("count", "wall_per_ref, extract-compare"),
    "trace.overhead_s": ("s", "none; traced minus untraced median wall_s"),
    "verdict.decided_ratio": ("ratio", f"decided verdicts over invocations, {_ALL}"),
}

# Per-layer metrics taken over a whole run rather than from one traced child.
RUN_LEVEL = {"trace.overhead_s", "verdict.decided_ratio"}


# ---------------------------------------------------------------------------
# Children


def spawn(argv: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child to completion with stdout and stderr in files under
    ``bench/out``; time it from spawn to reap and take its own rusage."""
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        pidfd = os.pidfd_open(pid)
        ready = []
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            if not ready:  # timed out, or this process was interrupted
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            t_reaped = time.monotonic()
            os.close(pidfd)
    stdout = out_path.read_bytes()
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": t_reaped - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "t_spawn": t_spawn,
        "t_reaped": t_reaped,
        "stdout": stdout,
        "stderr_tail": err_path.read_bytes()[-300:].decode(errors="replace"),
    }


def child_env() -> dict:
    """The caller's environment without its PYTHON* settings (which could
    turn off the bytecode cache or buffering), importing ``src/``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "braidrat.cli", *args]


def calibration_s() -> float:
    """A fixed pure-Python loop: a slow machine shows here, not only in the
    samples."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - start


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_job(kind: str, name: str | None, env: dict) -> dict:
    calib = calibration_s()
    load = loadavg()
    if kind == "setup":
        sample = spawn(cli_argv("--help"), env)
        ok = sample["exit"] == 0 and sample["stdout"].startswith(b"usage: braidrat")
        verdict = Judgment(ok, False, "help printed" if ok else "help failed")
    elif kind == "reference":
        sample = spawn([sys.executable, str(ROOT / "bench" / "reference.py")], env)
        ok = sample["exit"] == 0 and sample["stdout"].strip() == reference.DIGEST.encode()
        verdict = Judgment(ok, False, "reference ran" if ok else "reference failed")
    else:
        wl = WORKLOADS[name]
        args = ("--format", "json", *wl.args)
        trace_path = OUT / "trace.json"
        if kind == "traced":
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace_path), *args]
        else:
            argv = cli_argv(*args)
        sample = spawn(argv, env)
        verdict = judge(wl, sample["exit"], sample["stdout"])
        if kind == "traced":
            try:
                sample["trace"] = json.loads(trace_path.read_text())
            except (OSError, ValueError):
                verdict = Judgment(False, False, "traced child wrote no trace")
    stdout = sample.pop("stdout")
    sample.update(
        kind=kind, workload=name, ok=verdict.ok, decided=verdict.decided,
        reason=verdict.reason, stdout_bytes=len(stdout),
        stdout_sha256=hashlib.sha256(stdout).hexdigest(), calibration_s=calib, loadavg=load,
    )
    return sample


def run_rounds(names: list[str], seed: int, seconds: float, trace: bool, env: dict) -> list[dict]:
    rng = random.Random(seed)
    samples: list[dict] = []
    start = time.monotonic()
    rounds, longest = 0, 0.0
    while rounds < MIN_ROUNDS or time.monotonic() - start + longest <= min(seconds, LAST_ROUND_END_S):
        jobs = [("plain", n) for n in names]
        if trace:
            jobs += [("traced", n) for n in names]
        else:
            jobs += [("setup", None)] * SETUP_PER_ROUND + [("reference", None)]
        rng.shuffle(jobs)
        t_round = time.monotonic()
        samples += [run_job(kind, name, env) for kind, name in jobs]
        longest = max(longest, time.monotonic() - t_round)
        rounds += 1
    check_stdout_identical(samples)
    return samples


def check_stdout_identical(samples: list[dict]) -> None:
    """A fixed invocation prints the same bytes every time, traced or not."""
    first: dict[str, str] = {}
    for s in samples:
        if s["workload"] is None:
            continue
        ref = first.setdefault(s["workload"], s["stdout_sha256"])
        if s["ok"] and s["stdout_sha256"] != ref:
            s.update(ok=False, decided=False, reason=f"{s['kind']} stdout differs from the first run")


# ---------------------------------------------------------------------------
# Metrics


def describe(values: list[float], value: float | None = None) -> tuple[float, str]:
    """The reported value (the median unless given) and a summary of the samples."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return (med if value is None else value,
            f"min {min(values):.6g}, median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}")


def layer_metrics(sample: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child."""
    rec = sample["trace"]
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for _, name, n, _, span_self in rec["edges"]:
        self_s[name] += span_self
        self_s[name.split(".")[0]] += span_self
        calls[name] += n
    counts = Counter(rec["counts"])
    lookups = counts["operations.coproduct.terms_in"]
    m = {
        "process.startup_s": rec["t_main_enter"] - sample["t_spawn"],
        "process.teardown_s": sample["t_reaped"] - rec["t_main_exit"],
        "cli.self_s": self_s["cli.main"],
        "cli.stdout_bytes": sample["stdout_bytes"],
        "operations.psi_cache.entries": rec["psi_cache_entries"],
        "operations.psi_cache.miss_ratio": rec["psi_cache_entries"] / lookups if lookups else 0.0,
        "operations.sq.calls": calls["operations.sq1_dual"] + calls["operations.sqj_dual"],
        "coalgebra.verify_map.accept_ratio": (
            counts["coalgebra.verify_map.accepts"] / calls["coalgebra.verify_map"]
            if calls["coalgebra.verify_map"] else 0.0
        ),
    }
    # Otherwise a name is <layer or span>.self_s, <span>.calls or a counter.
    for key in PER_LAYER.keys() - m.keys() - RUN_LEVEL:
        base, _, kind = key.rpartition(".")
        if kind == "self_s":
            m[key] = self_s[base]
        elif kind == "calls":
            m[key] = calls[base]
        else:
            m[key] = counts[key]
    return {k: m[k] for k in PER_LAYER if k in m}


def summarize(samples: list[dict], name: str, trace: bool) -> tuple[dict, list[str]]:
    """Metrics of one workload as (value, summary of the samples), and the
    lines of its table."""
    wl = WORKLOADS[name]
    mine = [s for s in samples if s["workload"] == name]
    plain = [s for s in mine if s["kind"] == "plain"]
    failed = sum(not s["ok"] for s in mine) / len(mine)
    decided = sum(s["decided"] for s in mine) / len(mine)
    metrics: dict[str, tuple] = {}
    if not trace:
        ref = [s for s in samples if s["kind"] == "reference"]
        for key in ("wall_s", "cpu_s"):
            metrics[key] = describe([s[key] for s in plain])
            # Upper quartiles: each lies in the contended state unless most of
            # the run was uncontended, and the reference shares that state.
            ref_q3 = statistics.quantiles([s[key] for s in ref], n=4)[2]
            per_ref = [s[key] / ref_q3 for s in plain]
            metrics[key[:-2] + "_per_ref"] = describe(
                per_ref, statistics.quantiles(per_ref, n=4)[2])
        metrics["peak_rss_mib"] = describe([s["peak_rss_mib"] for s in plain])
        metrics["setup_s"] = describe([s["wall_s"] for s in samples if s["kind"] == "setup"])
        metrics["failed_ratio"] = (failed, f"n={len(mine)}")
        metrics["decided_ratio"] = (decided, f"n={len(mine)}")
        units = dict(END_TO_END, wall_s="s", cpu_s="s", failed_ratio="ratio",
                     decided_ratio="ratio")
    else:
        traced = [s for s in mine if s["kind"] == "traced" and "trace" in s]
        per_sample = [layer_metrics(s) for s in traced]
        for key in per_sample[0] if per_sample else ():
            values = [m[key] for m in per_sample]
            if PER_LAYER[key][0] == "s":
                metrics[key] = describe(values)
                continue
            if len(set(values)) > 1:
                print(f"warning: {name}: {key} differs between traced runs: {values}",
                      file=sys.stderr)
            metrics[key] = describe(values, values[0])
        if traced:
            overhead = (statistics.median(s["wall_s"] for s in traced)
                        - statistics.median(s["wall_s"] for s in plain))
            metrics["trace.overhead_s"] = (overhead, f"n={len(traced)}")
        metrics["verdict.decided_ratio"] = (decided, f"n={len(mine)}")
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    lines = [f"== {name}: braidrat --format json {' '.join(wl.args)}"]
    for key, (value, detail) in metrics.items():
        note = f"  -> {PER_LAYER[key][1]}" if trace else ""
        lines.append(f"  {key:<36} {value:>14.6g} {units[key]:<6} [{detail}]{note}")
    for s in mine:
        if not s["ok"]:
            lines.append(f"  FAILED {s['kind']} run: {s['reason']} (exit {s['exit']})")
    return metrics, lines


# ---------------------------------------------------------------------------
# Entry point


def git_rev() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "braidrat" / "cli.py").is_file():
        print(f"error: no braidrat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    # Untimed warm-up: writes the bytecode cache, as an installed package has.
    warm = spawn(cli_argv("--help"), env)
    if warm["exit"] != 0:
        print(f"error: braidrat --help exited {warm['exit']}: {warm['stderr_tail']}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    samples = run_rounds(names, args.seed, args.seconds, trace, env)

    units = END_TO_END if not trace else {k: u for k, (u, _) in PER_LAYER.items()}
    result_metrics = {}
    for name in names:
        metrics, lines = summarize(samples, name, trace)
        print("\n".join(lines))
        for key, (value, _) in metrics.items():
            if key in units:
                label = key if len(names) == 1 else f"{name}.{key}"
                result_metrics[label] = {"value": value, "unit": units[key]}
    failed = sum(not s["ok"] for s in samples)
    record = {
        "argv": sys.argv, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_rev": git_rev(), "nproc": os.cpu_count(),
        "samples": samples,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
