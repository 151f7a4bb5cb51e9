"""Unit tests for the bit-packed GF(2) linear algebra."""

import random

from braidrat import gf2


def test_rank():
    assert gf2.rank([]) == 0
    assert gf2.rank([0b101, 0b011, 0b110]) == 2
    assert gf2.rank([0b101, 0b011, 0b111]) == 3
    assert gf2.rank([0, 0]) == 0


def test_solve_roundtrip():
    rows = [0b1010, 0b0110, 0b0001]
    combo = gf2.solver(rows)[0](0b1010 ^ 0b0001)
    assert combo is not None
    acc = 0
    for i, r in enumerate(rows):
        if (combo >> i) & 1:
            acc ^= r
    assert acc == 0b1010 ^ 0b0001


def test_solve_outside_span():
    assert gf2.solver([0b110, 0b011])[0](0b001) is None
    assert gf2.solver([])[0](0b1) is None
    assert gf2.solver([])[0](0) == 0


def _span(rows):
    """Every target reachable from ``rows``, with the combinations reaching
    it, by enumerating all 2^len(rows) combinations."""
    span: dict[int, set[int]] = {}
    for combo in range(1 << len(rows)):
        acc = 0
        for i, row in enumerate(rows):
            if (combo >> i) & 1:
                acc ^= row
        span.setdefault(acc, set()).add(combo)
    return span


def test_solver_matches_span_enumeration():
    rng = random.Random(2024)
    dependent = 0
    for _ in range(300):
        width = rng.randint(0, 5)
        rows = [rng.randrange(1 << width) for _ in range(rng.randint(0, 7))]
        span = _span(rows)
        solve_one, null = gf2.solver(rows)
        dependent += bool(null)
        for target in range(1 << width):
            combo = solve_one(target)
            if target in span:
                assert combo in span[target]
            else:
                assert combo is None
    assert dependent > 100


def test_kernel():
    for rows in ([], [0], [0b101, 0b011, 0b110], [0b1, 0b1, 0b1, 0b10], [0b11, 0b101, 0b110]):
        null = gf2.solver(rows)[1]
        assert len(null) == len(rows) - gf2.rank(rows)
        assert gf2.rank(null) == len(null)
        for choice in range(1, 1 << len(null)):
            combo = 0
            for k, vec in enumerate(null):
                if (choice >> k) & 1:
                    combo ^= vec
            acc = 0
            for i, row in enumerate(rows):
                if (combo >> i) & 1:
                    acc ^= row
            assert combo and acc == 0


def test_is_invertible():
    assert gf2.is_invertible([1, 2, 4], 3)
    assert not gf2.is_invertible([1, 2, 3], 3)
    assert not gf2.is_invertible([1, 2], 3)
    # a row with a bit outside the n columns, or a negative one
    assert not gf2.is_invertible([1, 2, 8], 3)
    assert not gf2.is_invertible([2], 1)
    assert not gf2.is_invertible([-1], 1)
    assert not gf2.is_invertible([1, -2], 2)
