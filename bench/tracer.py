"""Outside-in tracer: runs the braidrat CLI in-process with the public
functions of each layer wrapped in timing spans.

    PYTHONPATH=src python bench/tracer.py TRACE_OUT [CLI ARGS...]

stdout and the exit code are those of ``python -m braidrat.cli CLI ARGS``.
Nothing under ``src/`` is modified: the wrappers are installed from here, and
every module namespace that bound a function with ``from ... import`` is
re-bound to the same wrapper.  Spans are aggregated in memory per
(parent, name) edge, so a million calls cost no memory, and written to
TRACE_OUT as JSON when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("gf2", "ambient", "operations", "families", "coalgebra")

# Span names the metrics refer to, where they differ from the function name.
ALIASES = {
    "extract_coalgebra": "extract",
    "coalgebras_isomorphic": "iso_search",
    "coalgebra_invariants": "invariants",
    "verify_coalgebra_map": "verify_map",
    "verify_steenrod_intertwining": "verify_steenrod",
}


class Tracer:
    """Self time of a span is its duration minus the durations of the spans
    it directly encloses."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, time in children]
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, total, self]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(counts, args, result)`` runs after a
        successful call to update the work counters."""
        stack, clock, edges, counts = self.stack, self.clock, self.edges, self.counts

        def close(frame, parent, start):
            dur = clock() - start
            stack.pop()
            if parent is not None:
                parent[1] += dur
            key = (parent[0] if parent is not None else None, name)
            rec = edges.get(key)
            if rec is None:
                rec = edges[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]

        if inspect.isgeneratorfunction(fn):
            # Time each resumption, so lazy work lands in this layer.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [name, 0.0]
                    parent = stack[-1] if stack else None
                    stack.append(frame)
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(frame, parent, start)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, parent, start)
            if count is not None and result is not NotImplemented:
                count(counts, args, result)
            return result

        return wrapper


def _terms(x) -> int:
    return len(x.terms)


# Work counters, keyed by span name.
COUNTERS = {
    "ambient.tensor_mul": lambda c, a, r: c.update(
        {"ambient.tensor_mul.pair_products": _terms(a[0]) * _terms(a[1])}
    ),
    "ambient.elem_mul": lambda c, a, r: c.update(
        {"ambient.elem_mul.term_products": _terms(a[0]) * _terms(a[1])}
    ),
    "ambient.tensor_components": lambda c, a, r: c.update(
        {"ambient.tensor_components.terms_in": _terms(a[0])}
    ),
    "operations.coproduct": lambda c, a, r: c.update(
        {"operations.coproduct.terms_in": _terms(a[0]),
         "operations.coproduct.terms_out": _terms(r)}
    ),
    "families.embed": lambda c, a, r: c.update({"families.embed.terms_out": _terms(r)}),
    "coalgebra.extract": lambda c, a, r: c.update({"coalgebra.basis_size": sum(r.dims)}),
    "coalgebra.iso_search": lambda c, a, r: c.update(
        {"coalgebra.iso_search.candidates": r.tried}
    ),
    "coalgebra.verify_map": lambda c, a, r: c.update({"coalgebra.verify_map.accepts": int(r)}),
    "gf2.rank": lambda c, a, r: c.update({"gf2.rank.rows": len(a[0])}),
    "gf2.solve": lambda c, a, r: c.update({"gf2.solve.rows": len(a[0])}),
}


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions and re-bind every braidrat module
    attribute that refers to one of them."""
    import braidrat.cli  # noqa: F401  (imports every layer)
    from braidrat import ambient, coalgebra

    modules = {name: sys.modules[f"braidrat.{name}"] for name in LAYERS}
    targets = []  # (owner, attribute, span name)
    for layer, mod in modules.items():
        if layer == "ambient":
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and attr[0] != "_":
                targets.append((mod, attr, f"{layer}.{ALIASES.get(attr, attr)}"))
    targets += [
        (ambient.AmbientElement, "__mul__", "ambient.elem_mul"),
        (ambient.AmbientElement, "square", "ambient.elem_square"),
        (ambient.TensorElement, "__mul__", "ambient.tensor_mul"),
        (ambient.TensorElement, "square", "ambient.tensor_square"),
        (ambient, "tensor", "ambient.tensor"),
        (ambient, "tensor_components", "ambient.tensor_components"),
        (coalgebra.GradedCoalgebra, "__post_init__", "coalgebra.coassoc_check"),
        (braidrat.cli, "main", "cli.main"),
    ]
    replaced = {}
    for owner, attr, name in targets:
        orig = vars(owner)[attr]
        replaced[id(orig)] = wrapper = tracer.wrap(name, orig, COUNTERS.get(name))
        setattr(owner, attr, wrapper)
    for modname, mod in list(sys.modules.items()):
        if modname == "braidrat" or modname.startswith("braidrat."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import braidrat.cli
    from braidrat import operations

    t_enter = time.monotonic()
    try:
        code = braidrat.cli.main(cli_args)
    finally:
        t_exit = time.monotonic()
        sys.stdout.flush()
        record = {
            "t_main_enter": t_enter,
            "t_main_exit": t_exit,
            "edges": [[p, n, *rec] for (p, n), rec in sorted(
                tracer.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counts": dict(tracer.counts),
            "psi_cache_entries": len(operations._PSI_CACHE),
        }
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
