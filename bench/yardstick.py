"""The yardstick: a fixed loop that measures how fast the host runs right now.

It makes small numpy and ``scipy.special`` calls on 256-point arrays and
does not touch ``binquant``.  Like the program, it is bound by interpreter
and per-call overhead on short arrays, so a slower host slows both alike.
``run.py`` reports latencies and set-up time at :data:`NOMINAL_S`
yardstick speed.
"""

import time

import numpy as np
from scipy.special import ndtr

ITERATIONS = 5000

#: The yardstick time latencies are scaled to: about its fastest time on the
#: 2-vCPU host the benchmark was built on.
NOMINAL_S = 0.06


def yardstick() -> float:
    """Seconds the fixed loop takes."""
    x = np.linspace(-5.0, 5.0, 256)
    t0 = time.perf_counter()
    for i in range(ITERATIONS):
        z = (x - 0.01 * i) / 1.3
        np.logaddexp(-0.5 * z * z, -0.25 * z * z).sum()
        ndtr(z[::16]).sum()
    return time.perf_counter() - t0
