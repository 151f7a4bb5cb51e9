"""Fixed pure-Python job that sets the unit of the benchmark's time metrics.

    python3 bench/reference.py

It uses nothing from braidrat, so a change to the program cannot change its
time, and it does the same kind of work as the workloads: tuple-keyed
products with parity counts (as ``ambient`` does) and GF(2) ranks of int
rows (as ``gf2`` does).  ``run.py`` runs it as a child in every round, next
to the workload children, and divides the upper quartile of their times by
the upper quartile of its own: a host that slows down for a while slows
both.  It prints a digest of its
results, which ``run.py`` compares with ``DIGEST``.
"""

from __future__ import annotations

import hashlib
import random

from workloads import _gf2_rank, family_basis, family_coproduct

DIGEST = "075657cc07528d3c8bf3ad6086800d71350d3fd4301d85c208cbb3845ab7477d"


def job() -> str:
    h = hashlib.sha256()
    for row in family_basis("braid", 34):
        for m in row:
            h.update(repr(sorted(family_coproduct("braid", m))).encode())
    rng = random.Random(0)
    for _ in range(4000):
        h.update(bytes([_gf2_rank([rng.getrandbits(12) for _ in range(12)])]))
    return h.hexdigest()


if __name__ == "__main__":
    print(job())
