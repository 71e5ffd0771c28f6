"""Fixed reference work that measures how fast the machine runs at a moment.

On a shared VM the host's load changes the speed of the CPU itself, by up to
1.5x, in stretches from seconds to minutes, and CPU time slows as much as
wall time. So the benchmark times one of these kernels next to every op and
scales the op's latency by ``REF_S[kernel] / (kernel time)``: the latency
"at reference speed", in ``ref-ms``. The kernels live here, not in the
program, so a change to the program cannot move them.

Each kernel mirrors one kind of work, because the two kinds drift apart:
interpreted GF(p) arithmetic slows down when numpy's array ops do not, and
the other way round. A workload names the kernel of the work that dominates
its ops.
"""

from __future__ import annotations

import json
from time import perf_counter

# Kernel time, in seconds, that defines reference speed: about the median on
# an Intel Xeon VM of 2 vCPUs, so ref-ms read close to wall-clock ms there.
REF_S = {"python": 2.0e-3, "numpy": 2.5e-3}

_P = 67
_N = 16
_M = [(7 * i * i + 3 * j + 5 * (i == j) + 1) % _P for i in range(_N) for j in range(_N)]
_DOC = {"rows": [[i * j % _P for j in range(40)] for i in range(40)]}


def _python() -> None:
    """Gauss-Jordan inversion of a 16x16 matrix over GF(67) on a flat list,
    like the program's kernels, and two JSON round trips of a 40x40 table,
    like its file I/O."""
    n, a = _N, list(_M)
    inv = [int(i % (n + 1) == 0) for i in range(n * n)]
    for c in range(n):
        r = next(r for r in range(c, n) if a[r * n + c])
        for j in range(n):
            a[c * n + j], a[r * n + j] = a[r * n + j], a[c * n + j]
            inv[c * n + j], inv[r * n + j] = inv[r * n + j], inv[c * n + j]
        f = pow(a[c * n + c], _P - 2, _P)
        for j in range(n):
            a[c * n + j] = a[c * n + j] * f % _P
            inv[c * n + j] = inv[c * n + j] * f % _P
        for r in range(n):
            g = a[r * n + c]
            if r != c and g:
                for j in range(n):
                    a[r * n + j] = (a[r * n + j] - g * a[c * n + j]) % _P
                    inv[r * n + j] = (inv[r * n + j] - g * inv[c * n + j]) % _P
    for _ in range(2):
        json.loads(json.dumps(_DOC))


_space = None


def _numpy() -> None:
    """One shifted scatter-add and phase lookup over 13^4 amplitudes."""
    global _space
    import numpy as np

    if _space is None:
        digits = np.indices((13,) * 4).reshape(4, -1).T
        radix = 13 ** np.arange(3, -1, -1)
        state = np.exp(2j * np.pi * np.arange(13**4) / 13**4)
        _space = digits, radix, state
    digits, radix, state = _space
    acc = np.zeros_like(state)
    acc[((digits + 1) % 13) @ radix] += state
    acc *= (digits @ radix) % 13


_KERNELS = {"python": _python, "numpy": _numpy}


def calibrate(kernel: str) -> float:
    """Wall time of one run of ``kernel``, in seconds."""
    run = _KERNELS[kernel]
    t0 = perf_counter()
    run()
    return perf_counter() - t0
