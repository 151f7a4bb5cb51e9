"""Command line front end with deterministic text and JSON reporters.

Subcommands cover basis listings, top-class coproduct supports, the
component comparison sweep, the odd/even multiplication-by-g check, pairwise
coalgebra isomorphism, dual-Steenrod matrices, and the braid/configuration
correspondence.  Each handler returns ``(exit_code, body, lines)``: the JSON
payload without its ``schema`` and ``command`` header, and the text output.
``main`` adds the header and prints one of the two, so JSON output is
schema-stable and byte-identical for a fixed invocation; timing goes to
stderr.  The three sweeps hand their per-k checks to ``_sweep``, the one
place that turns them into statuses, a result and an exit code.

Exit codes: 0 success (verification passed or a definitive verdict was
reached), 1 falsification or inconclusive verdict, 2 usage or internal error.
``main`` returns the code; ``run``, the console script and ``python -m
braidrat.cli``, exits with it without tearing the interpreter down.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import json
import os
import sys
import time
from typing import NamedTuple

from .coalgebra import (
    DEFAULT_ISO_BUDGET,
    IsoVerdict,
    SpanError,
    check_braid_conf,
    check_lemma_braid,
    component_steenrod,
    components_isomorphic,
    s_set,
    theorem_main,
)
from .families import (
    Family, _basis_by_dim, basis, check_basis_size, check_top_class_range, embed, top_class,
)

SCHEMA_VERSION = 2

# A command's outcome: exit code, JSON body without the header, text lines.
Outcome = tuple[int, dict, list[str]]


class RunConfig(NamedTuple):
    iso_budget: int = DEFAULT_ISO_BUDGET
    fmt: str = "text"


def _matrix_json(rows: tuple[int, ...], ncols: int) -> list[list[int]]:
    return [[(row >> j) & 1 for j in range(ncols)] for row in rows]


def _verdict_json(v: IsoVerdict) -> dict:
    out: dict = {"kind": v.kind, "tried": v.tried}
    if v.reason is not None:
        out["reason"] = v.reason
    if v.invariant is not None:
        out["invariant"] = v.invariant
        out["left"] = v.left
        out["right"] = v.right
    if v.witness is not None:
        out["witness"] = [
            _matrix_json(mat, v.dims[d]) for d, mat in enumerate(v.witness)
        ]
    return out


def _parse_spec(spec: str) -> tuple[Family, int]:
    try:
        name, _, num = spec.partition(":")
        return Family(name), int(num)
    except (ValueError, KeyError):
        raise ValueError(f"bad component spec {spec!r}; expected e.g. braid:6 or rat:3")


def _sweep(inputs: dict, all_key: str, rows) -> Outcome:
    """Run a sweep's per-k checks, each ``(ok, undecided, entry, line)``.

    A k that is neither ok nor undecided falsifies the sweep; otherwise an
    undecided k leaves it inconclusive.  Only a sweep in which every k is ok
    passes and exits 0.
    """
    reports, lines, statuses = [], [], set()
    for ok, undecided, entry, line in rows:
        status = "ok" if ok else "INCONCLUSIVE" if undecided else "FALSIFIED"
        statuses.add(status)
        reports.append(entry)
        lines.append(f"{line}  [{status}]")
    result = "fail" if "FALSIFIED" in statuses else (
        "inconclusive" if "INCONCLUSIVE" in statuses else "pass")
    lines.append("RESULT: " + ("FAIL" if result == "fail" else result))
    body = {"inputs": inputs, "reports": reports, all_key: result == "pass", "result": result}
    return int(result != "pass"), body, lines


def _cmd_basis(args, config: RunConfig) -> Outcome:
    family = Family(args.family)
    rows = []
    lines = [f"basis {family.value} k={args.k}"]
    for fm in basis(family, args.k):
        emb = embed(fm)
        rows.append(
            {
                "label": fm.label(),
                "weight": fm.weight,
                "dim": fm.dim,
                "monomial": fm.to_json(),
                "embedding": emb.to_json(),
            }
        )
        lines.append(f"  dim {fm.dim}  weight {fm.weight}  {fm.label()}  =  {emb}")
    return 0, {"inputs": {"family": family.value, "k": args.k}, "classes": rows}, lines


def _cmd_s_set(args, config: RunConfig) -> Outcome:
    family = Family(args.family)
    fm = top_class(family, args.k)
    support = sorted(s_set(fm))
    body = {
        "inputs": {"family": family.value, "k": args.k},
        "top_class": fm.label(),
        "dim": fm.dim,
        "support": support,
    }
    return 0, body, [
        f"s-set {family.value} k={args.k}: top class {fm.label()} (dim {fm.dim})",
        f"  S = {{{', '.join(str(s) for s in support)}}}",
    ]


def _cmd_theorem_main(args, config: RunConfig) -> Outcome:
    if not 1 <= args.from_k <= args.to_k:
        raise ValueError("need 1 <= --from <= --to")
    check_top_class_range(args.from_k, args.to_k)

    def rows():
        for k in range(args.from_k, args.to_k + 1):
            rep = theorem_main(k, iso_budget=config.iso_budget)
            entry = {
                "k": k,
                "branch": rep.branch,
                "support_x": rep.support_x,
                "support_y": rep.support_y,
                "distinct": rep.distinct,
                "checks": rep.checks,
                "conforms": rep.conforms,
            }
            if rep.iso is not None:
                entry["iso"] = _verdict_json(rep.iso)
            extra = ""
            if rep.branch == "generic":
                w = rep.checks["witness_dim"]
                extra = (
                    f"  witness dim {w}: in S(x)={rep.checks['witness_in_support_x']},"
                    f" in S(y)={not rep.checks['witness_not_in_support_y']}"
                )
            elif k > 3:
                extra = (
                    f"  5 in S(x)={rep.checks['five_in_support_x']},"
                    f" in S(y)={not rep.checks['five_not_in_support_y']};"
                    f" 2 in neither={rep.checks['two_not_in_support_x'] and rep.checks['two_not_in_support_y']}"
                )
            if rep.iso is not None:
                extra += f"  isomorphic={rep.iso.kind}"
            yield rep.conforms, rep.undecided, entry, (
                f"k={k}  branch={rep.branch}  |S(x)|={len(rep.support_x)}  "
                f"|S(y)|={len(rep.support_y)}  distinct={rep.distinct}{extra}"
            )

    return _sweep({"from": args.from_k, "to": args.to_k}, "all_conform", rows())


def _check_max_k(max_k: int) -> None:
    if max_k < 1:
        raise ValueError("need --max-k >= 1")


def _cmd_lemma_braid(args, config: RunConfig) -> Outcome:
    _check_max_k(args.max_k)
    # Braid basis sizes grow with the weight, so the largest one, checked
    # first, bounds every basis the loop enumerates.
    check_basis_size(Family.BRAID, 2 * args.max_k + 1)
    reps = map(check_lemma_braid, range(1, args.max_k + 1))
    return _sweep({"max_k": args.max_k}, "all_verified", (
        (rep.verified, False, {**rep._asdict(), "verified": rep.verified},
         f"k={rep.k}  classes={rep.classes_checked}  bijection={rep.bijection_ok}  "
         f"coproduct={rep.coproduct_ok}")
        for rep in reps
    ))


def _cmd_iso(args, config: RunConfig) -> Outcome:
    fam_a, k_a = _parse_spec(args.a)
    fam_b, k_b = _parse_spec(args.b)
    # Each component is enumerated once, for its coalgebra and its Steenrod
    # matrices alike.
    verdict = components_isomorphic(
        _basis_by_dim(fam_a, k_a), _basis_by_dim(fam_b, k_b), config.iso_budget,
        steenrod=args.steenrod,
    )
    body = {
        "inputs": {
            "a": {"family": fam_a.value, "k": k_a},
            "b": {"family": fam_b.value, "k": k_b},
            "steenrod_constrained": bool(args.steenrod),
        },
        "dims": verdict.dims,
        "verdict": _verdict_json(verdict),
    }
    lines = [
        f"iso {args.a} vs {args.b}  ({verdict.tried} search nodes)",
        f"  verdict: {verdict.kind}"
        + (f"  [{verdict.invariant} differs]" if verdict.invariant else "")
        + (f"  ({verdict.reason})" if verdict.reason else ""),
    ]
    if verdict.witness is not None:
        for d, mat in enumerate(verdict.witness):
            lines.append(f"  degree {d}: {_matrix_json(mat, verdict.dims[d])}")
    return int(verdict.kind not in ("yes", "no")), body, lines


def _cmd_steenrod(args, config: RunConfig) -> Outcome:
    family = Family(args.family)
    by_dim = _basis_by_dim(family, args.k)
    mats = component_steenrod(by_dim, args.j)
    lines = [f"steenrod {family.value} k={args.k} j={args.j}"]
    matrices = {}
    for d, mat in sorted(mats.items()):
        matrices[str(d)] = _matrix_json(mat, len(by_dim[d]))
        lines.append(f"  degree {d} -> {d - args.j}: {matrices[str(d)]}")
    body = {"inputs": {"family": family.value, "k": args.k, "j": args.j}, "matrices": matrices}
    return 0, body, lines


def _cmd_braid_conf(args, config: RunConfig) -> Outcome:
    _check_max_k(args.max_k)
    # Both basis sizes grow with k, so the largest ones, checked first, bound
    # every basis the loop enumerates.
    check_basis_size(Family.CONF, args.max_k)
    check_basis_size(Family.BRAID, 2 * args.max_k)
    reps = (check_braid_conf(k, budget=config.iso_budget) for k in range(1, args.max_k + 1))
    return _sweep({"max_k": args.max_k}, "all_isomorphic", (
        (rep.isomorphic, rep.verdict.kind == "inconclusive",
         {"k": rep.k, "verdict": _verdict_json(rep.verdict)},
         f"k={rep.k}  isomorphic={rep.isomorphic}")
        for rep in reps
    ))


def build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted before or after the subcommand.  They have no
    # parser defaults, so a flag given in one position is not reset by the
    # other; RunConfig supplies the value of a flag given in neither.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", dest="fmt", choices=("text", "json"))
    common.add_argument("--iso-budget", type=int,
                        help="maximum number of search nodes for isomorphism search")
    parser = argparse.ArgumentParser(
        prog="braidrat",
        description="Weight-graded mod-2 homology coalgebra calculator and verifier.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common])

    p = add("basis", help="list a weight-graded basis with embeddings")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_basis)

    p = add("s-set", help="coproduct support of the top class")
    p.add_argument("--family", choices=("braid", "rat"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_s_set)

    p = add("theorem-main", help="compare top-class supports over a range of k")
    p.add_argument("--from", dest="from_k", type=int, required=True)
    p.add_argument("--to", dest="to_k", type=int, required=True)
    p.set_defaults(handler=_cmd_theorem_main)

    p = add("lemma-braid", help="verify multiplication by g on odd components")
    p.add_argument("--max-k", type=int, required=True)
    p.set_defaults(handler=_cmd_lemma_braid)

    p = add("iso", help="decide coalgebra isomorphism of two components")
    p.add_argument("--a", required=True, help="component spec, e.g. braid:6")
    p.add_argument("--b", required=True, help="component spec, e.g. rat:3")
    p.add_argument("--steenrod", action="store_true",
                   help="require the witness to intertwine the dual Steenrod action")
    p.set_defaults(handler=_cmd_iso)

    p = add("steenrod", help="dual Steenrod matrices in the family basis")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=1)
    p.set_defaults(handler=_cmd_steenrod)

    p = add("braid-conf", help="verify the braid/configuration correspondence")
    p.add_argument("--max-k", type=int, required=True)
    p.set_defaults(handler=_cmd_braid_conf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(**{f: getattr(args, f) for f in RunConfig._fields if hasattr(args, f)})
    if config.iso_budget < 0:
        parser.error(f"argument --iso-budget: must be >= 0, got {config.iso_budget}")
    start = time.perf_counter()
    try:
        code, body, lines = args.handler(args, config)
        if config.fmt == "json":
            body = {"schema": SCHEMA_VERSION, "command": args.command, **body}
            print(json.dumps(body, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
    except (ValueError, SpanError) as exc:
        code, note = 2, f"error: {exc}"
    except Exception as exc:  # an internal fault: exit 2, never a falsification
        code, note = 2, f"error: {type(exc).__name__}: {exc}"
    else:
        note = f"elapsed {time.perf_counter() - start:.3f}s"
    try:  # stderr is None when its descriptor was closed at start
        sys.stderr.write(note + "\n")
    except (AttributeError, OSError, ValueError):  # exit 2, as a failed flush in ``run``
        return 2
    return code


def run() -> None:
    """Run ``main`` on the command line and end the process with its exit
    code (argparse's own for ``--help`` and usage errors), after flushing
    stdout and stderr (exit 2 if that fails) and running the ``atexit``
    callbacks, but without the interpreter's teardown, which takes about a
    tenth of the wall time of a short command such as ``iso --a rat:13
    --b braid:26``."""
    try:
        code = main()
    except SystemExit as exc:  # argparse exits with an int
        code = exc.code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except (OSError, ValueError):  # a closed pipe or stream
        code = 2
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    run()
