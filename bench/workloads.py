"""Workloads of the braidrat benchmark and the checks that judge their output.

Each workload is one fixed ``python -m braidrat.cli --format json ...``
invocation.  Its check reads only the child's exit code and stdout and
decides the result from the mathematical fields, by routes that do not run
the timed code: closed forms, a digest recorded at the seed, and a
family-level witness verifier that needs no elimination.  Search counters
(``tried``, ``search_space``) are never consulted, because the search may be
redefined.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple


class Judgment(NamedTuple):
    ok: bool  # exit code and output agree with the mathematics
    decided: bool  # a definitive, checked verdict was reached
    reason: str


def _fail(reason: str) -> Judgment:
    return Judgment(False, False, reason)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    why: str
    check: Callable[[int, dict], Judgment]


# ---------------------------------------------------------------------------
# support-sweep: theorem-main over k = 65..100.

SWEEP_KS = range(65, 101)

# sha256 of the compact JSON list [[k, support_x], ...] for k = 65..100,
# recorded from the seed's output.
RAT_SUPPORT_DIGEST = "7f4f2bd0f5761b14effd302203475939913c8f9de733d87887ed2f1a0e5abb94"


def braid_top_support(k: int) -> list[int]:
    """Support of the weight-2k braid top class prod gamma_{j+1}: every
    subset sum of the generator dimensions 2^{j+1} - 1 over the bits j of k."""
    sums = {0}
    for j in range(k.bit_length()):
        if (k >> j) & 1:
            sums |= {s + (2 << j) - 1 for s in sums}
    return sorted(sums)


def rat_support_digest(reports: list[dict]) -> str:
    data = [[r["k"], r["support_x"]] for r in reports]
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def check_support_sweep(code: int, doc: dict) -> Judgment:
    if code != 0:
        return _fail(f"exit code {code}, expected 0")
    if doc.get("all_conform") is not True:
        return _fail("all_conform is not true")
    reports = doc.get("reports", [])
    if [r.get("k") for r in reports] != list(SWEEP_KS):
        return _fail(f"reports do not cover k = {SWEEP_KS.start}..{SWEEP_KS.stop - 1} in order")
    for r in reports:
        if r["support_y"] != braid_top_support(r["k"]):
            return _fail(f"k={r['k']}: support_y differs from the subset sums")
        if r["support_x"] == r["support_y"] or r["distinct"] is not True:
            return _fail(f"k={r['k']}: supports are not reported distinct")
    if rat_support_digest(reports) != RAT_SUPPORT_DIGEST:
        return _fail("rat supports differ from the digest recorded at the seed")
    return Judgment(True, True, "all supports checked")


# ---------------------------------------------------------------------------
# extract-compare: rat:13 vs braid:26 differ on an invariant.


def check_extract_compare(code: int, doc: dict) -> Judgment:
    v = doc.get("verdict", {})
    if v.get("kind") != "no":
        return _fail(f"verdict {v.get('kind')!r}, expected 'no'")
    if code != 0:
        return _fail(f"exit code {code} for a 'no' verdict")
    if not v.get("invariant") or "left" not in v or v["left"] == v.get("right"):
        return _fail("'no' without a named invariant whose two sides differ")
    return Judgment(True, True, f"{v['invariant']} differs")


# ---------------------------------------------------------------------------
# iso-search: conf:6 vs braid:12 are isomorphic, so 'no' is wrong and 'yes'
# counts only with a witness that the family-level verifier accepts.

# Generator g_i of braid and conf has weight 2^i; these are their dimensions.
_GEN_DIM = {"braid": lambda i: (1 << i) - 1, "conf": lambda i: (2 << i) - 1}

Mono = tuple[int, ...]  # exponent vector over generators 0..top


def family_basis(family: str, k: int) -> list[list[Mono]]:
    """Basis of the weight-k braid component or the weight-<=k conf component,
    by dimension, in the CLI's order (dimension, then exponent vector)."""
    top = k.bit_length() - 1
    dim = _GEN_DIM[family]
    ranges = [range(k // (1 << i) + 1) for i in range(top + 1)]
    out: dict[int, list[Mono]] = {}
    for vec in product(*ranges):
        weight = sum(e << i for i, e in enumerate(vec))
        if weight == k or (family == "conf" and weight < k):
            out.setdefault(sum(e * dim(i) for i, e in enumerate(vec)), []).append(vec)
    return [sorted(out.get(d, [])) for d in range(max(out) + 1)]


def _gen_coproduct(family: str, i: int, n: int) -> frozenset[tuple[Mono, Mono]]:
    """Coproduct of generator i in the family basis: conf generators are
    primitive, braid g is grouplike and gamma_i is g^{2^i}-twisted primitive."""
    unit = (0,) * n
    gen = tuple(int(j == i) for j in range(n))
    if family == "conf":
        return frozenset({(unit, gen), (gen, unit)})
    if i == 0:
        return frozenset({(gen, gen)})
    twist = tuple((1 << i) * (j == 0) for j in range(n))
    return frozenset({(twist, gen), (gen, twist)})


def _pairs_mul(a, b) -> frozenset:
    counts = Counter(
        (tuple(map(sum, zip(l1, l2))), tuple(map(sum, zip(r1, r2))))
        for l1, r1 in a
        for l2, r2 in b
    )
    return frozenset(p for p, c in counts.items() if c & 1)


def family_coproduct(family: str, m: Mono) -> frozenset[tuple[Mono, Mono]]:
    n = len(m)
    out = frozenset({((0,) * n, (0,) * n)})
    for i, e in enumerate(m):
        for _ in range(e):
            out = _pairs_mul(out, _gen_coproduct(family, i, n))
    return out


def _gf2_rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


def verify_witness(spec_a: tuple[str, int], spec_b: tuple[str, int], witness) -> bool:
    """Is ``witness`` (per degree, rows over target, columns over source, as
    the CLI prints it) an invertible graded map A -> B with
    delta_B(phi x) = (phi (x) phi)(delta_A x)?"""
    basis_a, basis_b = family_basis(*spec_a), family_basis(*spec_b)
    dims = [len(r) for r in basis_a]
    if dims != [len(r) for r in basis_b] or len(witness) != len(dims):
        return False
    index_a = {m: i for row in basis_a for i, m in enumerate(row)}
    index_b = {m: i for row in basis_b for i, m in enumerate(row)}
    images: dict[Mono, list[Mono]] = {}  # source monomial -> target monomials
    for d, (mat, n) in enumerate(zip(witness, dims)):
        if len(mat) != n or any(len(row) != n for row in mat):
            return False
        if _gf2_rank([int("".join(map(str, reversed(row))), 2) for row in mat]) != n:
            return False
        for src, m in enumerate(basis_a[d]):
            images[m] = [basis_b[d][r] for r in range(n) if mat[r][src]]
    for row in basis_a:
        for m in row:
            lhs: Counter = Counter()
            for y in images[m]:
                lhs.update(family_coproduct(spec_b[0], y))
            rhs: Counter = Counter()
            for left, right in family_coproduct(spec_a[0], m):
                if left not in index_a or right not in index_a:
                    return False
                rhs.update(product(images[left], images[right]))
            odd_lhs = {p for p, c in lhs.items() if c & 1}
            if any(p not in index_b for pair in odd_lhs for p in pair):
                return False
            if odd_lhs != {p for p, c in rhs.items() if c & 1}:
                return False
    return True


ISO_SPECS = (("conf", 6), ("braid", 12))


def check_iso_search(code: int, doc: dict) -> Judgment:
    v = doc.get("verdict", {})
    kind = v.get("kind")
    if kind == "inconclusive":
        if code != 1:
            return _fail(f"exit code {code} for 'inconclusive'")
        return Judgment(True, False, "inconclusive")
    if kind != "yes":
        return _fail(f"verdict {kind!r} on an isomorphic pair")
    if code != 0:
        return _fail(f"exit code {code} for 'yes'")
    if not verify_witness(*ISO_SPECS, v.get("witness") or []):
        return _fail("the witness fails independent verification")
    return Judgment(True, True, "witness verified")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "support-sweep",
            ("theorem-main", "--from", "65", "--to", "100"),
            "headline theorem via top-class coproduct supports: ambient tensor "
            "products and the psi memo, no gf2, extraction or search",
            check_support_sweep,
        ),
        Workload(
            "extract-compare",
            ("iso", "--a", "rat:13", "--b", "braid:26", "--steenrod"),
            "coalgebra extraction by elimination and Steenrod matrices, many small "
            "tensors; ends 'no' on an invariant, so the search is bypassed",
            check_extract_compare,
        ),
        Workload(
            "iso-search",
            ("--iso-budget", "15000", "iso", "--a", "conf:6", "--b", "braid:12"),
            "isomorphism search over 1.5*10^4 candidates with gf2 rank, ambient near 0; "
            "undecided at the seed although the true answer is yes",
            check_iso_search,
        ),
    )
}


def judge(workload: Workload, code: int, stdout: bytes) -> Judgment:
    """Judge one invocation; crashes and unparsable output are failures."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return _fail(f"exit code {code}, stdout is not JSON")
    if not isinstance(doc, dict):
        return _fail("stdout is not a JSON object")
    try:
        return workload.check(code, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"malformed output: {exc!r}")
