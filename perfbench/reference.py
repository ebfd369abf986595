"""A fixed pure-Python kernel that measures how fast the machine runs now.

Its mix follows the library's inner loops: xor elimination of bitmask
rows, fraction-free elimination of small integer matrices, submask
enumeration into sets, and sorting with tuple keys.  It never changes with
the program, so the ratio of its time to a fixed nominal time tracks the
machine's speed during a run.
"""

from __future__ import annotations

import random
import time


def _kernel(rng: random.Random) -> int:
    acc = 0
    rows = [rng.getrandbits(96) for _ in range(128)]
    pivots: list[tuple[int, int]] = []
    for r in rows:
        for bit, p in pivots:
            if r >> bit & 1:
                r ^= p
        if r:
            pivots.append((r.bit_length() - 1, r))
    acc += len(pivots)
    mat = [[rng.choice((-1, 0, 0, 1)) for _ in range(14)] for _ in range(14)]
    prev = 1
    for k in range(13):
        pivot = mat[k][k] or 1
        for r in range(k + 1, 14):
            row, factor = mat[r], mat[r][k]
            for c in range(k, 14):
                row[c] = (pivot * row[c] - factor * mat[k][c]) // prev
        prev = pivot
    acc += mat[13][13] & 1
    for f in (rng.getrandbits(12) for _ in range(8)):
        seen = set()
        s = f
        while True:
            seen.add(s)
            if s == 0:
                break
            s = (s - 1) & f
        acc += len(sorted(seen, key=lambda m: (m.bit_count(), m)))
    return acc


def reference_s(rounds: int = 140) -> float:
    """Seconds this machine takes for the fixed kernel, right now."""
    rng = random.Random(20251017)
    start = time.perf_counter()
    for _ in range(rounds):
        _kernel(rng)
    return time.perf_counter() - start
