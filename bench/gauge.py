"""A speed gauge for a shared machine.

On a 2-core x86-64 VM shared with other tenants, the speed one process gets
swings by up to 2x over seconds to minutes: the same greedy decodes took a
median of 35 ms per case in one 3-second stretch and 20.6 ms in the next.  A
wall-clock figure from one run therefore says as much about the neighbours
as about the program.

The gauge times a fixed reference kernel next to every operation.  Dividing
an operation's time by that reference time cancels the machine's speed;
multiplying by the kernel's time on a quiet machine puts the figure back in
seconds.  How well this works depends on the kernel doing the same kind of
work as the operation, so there are two:

- ``dispatch``: a Python loop over 16x16 matmuls, like decoding and the
  gradcheck's forward passes, where interpreter dispatch dominates;
- ``arrays``: 64x256 matmuls and exponentials, like a training step, where
  array arithmetic over the logits and the backward pass dominates.

In a 170-second trial cut into 20-second stretches, the per-stretch median
time of a training step ranged over 1.24x and that of a decoded case over
1.40x; scaled by their kernels, over 1.07x and 1.06x (ten gradcheck
evaluations: 1.02x).  The wrong kernel does worse: over three-second windows
the training step scaled by ``dispatch`` spread more than unscaled.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

_SMALL = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_ROWS = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
_COLS = np.linspace(-1.0, 1.0, 32 * 256).reshape(32, 256)


def dispatch_kernel() -> float:
    total = 0.0
    for i in range(100):
        total += float((_SMALL @ _SMALL)[i % 16, 0]) + 0.5 * i
    return total


def arrays_kernel() -> float:
    total = 0.0
    for _ in range(20):
        y = _ROWS @ _COLS
        y = np.exp(y - y.max(axis=1, keepdims=True))
        total += float(y[0, 0])
    return total


# Each kernel and its time on a quiet machine (the 10th percentile of the
# trial above), which turns scaled figures back into seconds.
KERNELS: dict[str, tuple[Callable[[], float], float]] = {
    "dispatch": (dispatch_kernel, 135e-6),
    "arrays": (arrays_kernel, 1.2e-3),
}


class Gauge:
    """Times of one reference kernel, one taken next to each operation."""

    def __init__(self, kernel: str):
        self.kernel, self.quiet_seconds = KERNELS[kernel]
        self.samples: list[float] = []
        self.kernel()  # the first call pays for warming caches

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def scaled(self, op_seconds: list[float]) -> np.ndarray:
        """Each operation's time at quiet-machine speed, scaled by the sample
        taken next to it.  The machine's speed changes too fast for a median
        over neighbouring samples to track it as well: in the trial above, a
        median over 31 samples tripled the spread for decoding."""
        ops = np.asarray(op_seconds, dtype=float)
        ref = np.asarray(self.samples, dtype=float)
        if ops.shape != ref.shape:
            raise ValueError(f"{ops.size} operations but {ref.size} reference samples")
        return ops * (self.quiet_seconds / ref)
