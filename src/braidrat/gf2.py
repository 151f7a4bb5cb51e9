"""Bit-packed linear algebra over GF(2); vectors and matrix rows are ints."""

from __future__ import annotations

from typing import Callable, Sequence


def _reduce_pair(vec: int, combo: int, pivots: dict[int, tuple[int, int]]) -> tuple[int, int]:
    while vec:
        top = vec.bit_length() - 1
        if top not in pivots:
            break
        pr, pc = pivots[top]
        vec ^= pr
        combo ^= pc
    return vec, combo


def _eliminate(rows: Sequence[int]) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Pivots (top bit -> (reduced row, combination of rows)) and the
    combinations of rows that reduce to zero, in row order."""
    pivots: dict[int, tuple[int, int]] = {}
    null: list[int] = []
    for i, row in enumerate(rows):
        vec, combo = _reduce_pair(row, 1 << i, pivots)
        if vec:
            pivots[vec.bit_length() - 1] = (vec, combo)
        else:
            null.append(combo)
    return pivots, null


def solver(rows: Sequence[int]) -> tuple[Callable[[int], int | None], list[int]]:
    """Eliminate ``rows`` once, for many targets.

    Returns ``(solve_one, null)``.  ``solve_one(target)`` finds x with XOR
    over {rows[i] : bit i of x} == target, or None; x is the combination
    produced by elimination in row order, so it is deterministic for a fixed
    input order.  ``null`` is a basis of the x with XOR == 0: it has
    len(rows) - rank(rows) elements, each with a distinct highest bit.
    """
    pivots, null = _eliminate(rows)

    def solve_one(target: int) -> int | None:
        vec, combo = _reduce_pair(target, 0, pivots)
        return combo if vec == 0 else None

    return solve_one, null


def rank(rows: Sequence[int]) -> int:
    """Rank of the span of the given bit-vectors."""
    return len(_eliminate(rows)[0])


def is_invertible(rows: Sequence[int], n: int) -> bool:
    """Whether ``rows`` is an invertible n x n matrix: n rows, each with no
    bit outside columns 0..n-1, of rank n."""
    return len(rows) == n and all(0 <= row < 1 << n for row in rows) and rank(rows) == n

