"""CPU-bound work kernels shared by the antipattern handlers.

Each kernel takes an iteration count, so a workload's configured
iterations set its single-request service time. Return values exist only
to keep the interpreter from optimizing anything away; callers discard
them.
"""

from __future__ import annotations

import hashlib
import math


def hash_rounds(n: int, payload: bytes = b"antiwatt") -> bytes:
    """Chained SHA-256 over a small buffer, n rounds."""
    digest = payload
    for _ in range(n):
        digest = hashlib.sha256(digest).digest()
    return digest


def trig_loop(n: int) -> float:
    """Trigonometry, exponentiation, and primality checks; result unused."""
    acc = 0.0
    for i in range(n):
        x = (i % 360) * 0.017453292519943295
        acc += math.sin(x) * math.cos(x) + math.exp(x * 1e-3)
        acc += float(i) ** 1.5
        if i % 97 == 0:
            _is_probably_prime(2 * i + 3)
    return acc


def busy_loop(n: int) -> int:
    """Plain integer arithmetic; the cheapest pure-CPU unit of work."""
    acc = 1
    for i in range(n):
        acc = (acc * 31 + i) % 1000000007
    return acc


def _is_probably_prime(k: int) -> bool:
    if k < 2:
        return False
    if k % 2 == 0:
        return k == 2
    d = 3
    while d * d <= k:
        if k % d == 0:
            return False
        d += 2
    return True
