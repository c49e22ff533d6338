"""The speed reference: a fixed pure-Python kernel that times how fast the
machine runs interpreter work at a given moment.

The machine the benchmark was written on (two vCPUs of a shared host) runs
the same pure-Python work anywhere from 1x to 2x slower, in spells lasting
seconds to minutes, as other tenants come and go.  The package's own work
and this kernel slow down together, so the benchmark times a reference
probe between operations and divides each operation's time by the probes
around it: what is left is the operation's cost in units of the probe, which
moves with the code and hardly with the machine.

The kernel depends on nothing in ``hookgames``, so a change to the package
cannot change it.  It mimics what a solver does: it fills a dict of bytes
keys from empty, looks up neighbours, takes mexes, and churns small lists,
tuples and bytes.  Do not change it: figures taken with another kernel are
not comparable.
"""

from __future__ import annotations

import time

# Seconds one probe took on the machine the benchmark was written on
# (median over several minutes).  Normalized times are multiplied by it so
# that they read as seconds on that machine in a typical spell.
REFERENCE_S = 0.066


def _memo_kernel(n: int = 20000, width: int = 24) -> int:
    key = bytes((i * 37 + 11) & 255 for i in range(width))
    memo: dict[bytes, int] = {}
    stack: list[list] = []
    for i in range(n):
        j = (i * 7) % width
        key = key[:j] + bytes(((key[j] + i) & 255,)) + key[j + 1:]
        vals = []
        for k in (1, 3, 5):
            v = memo.get(key[k:] + key[:k])
            if v is not None:
                vals.append(v)
        seen = set(vals)
        m = 0
        while m in seen:
            m += 1
        memo[key] = m
        stack.append([key, m, None, 0, vals])
        if len(stack) > 40:
            stack.pop(0)
    return len(memo)


def _alloc_kernel(n: int = 4000) -> int:
    out = 0
    keep: list[tuple[bytes, tuple]] = []
    for i in range(n):
        row = [(i * k) % 13 for k in range(12)]
        b = bytes(row)
        t = tuple(sorted(row))
        keep.append((b, t))
        out ^= hash(b) ^ hash(t)
        if len(keep) > 500:
            keep = keep[250:]
    return out


def probe(clock=time.perf_counter) -> float:
    """Seconds one run of the reference kernel takes now."""
    start = clock()
    _memo_kernel()
    _alloc_kernel()
    return clock() - start
