"""Host speed, read from a fixed loop that does not touch the library.

The benchmark shares a 2-core host with other work.  That load slows this
loop and the solver alike, by up to 1.7x, in stretches of one to a few
seconds, and the share of slow stretches drifts from minute to minute.  Raw
pass medians of ten 30 s runs then spread by up to 25% of their median.

run.py runs the loop before the first cell of a pass and after every cell,
and scales the pass time by REFERENCE_S / (mean loop time): the pass time
at a reference host speed.  Over five seeds the spread of the run medians
fell from 18% to 6% on `nonlinear-table` and from 13% to 4% on `backtrack`.
On `wide-linear` it stayed at 10-11%: its two cells take about 2 s each, so
three probes per pass sample the load too coarsely.  Raw times are reported
beside the scaled ones.
"""

from time import perf_counter

import numpy as np

#: the loop's time on a 2-core x86 host when scaled and raw pass medians agree
REFERENCE_S = 0.043


def _loop(steps=2_500):
    """Small-array numpy work in the style of an explicit Runge-Kutta step."""
    a = np.arange(9.0).reshape(3, 3) / 10.0
    weights = np.array([0.1, 0.2, 0.3])
    y = np.ones(3)
    k = np.zeros((7, 3))
    for i in range(steps):
        k[i % 7] = a @ y
        z = np.concatenate([y, (a @ a).ravel()])
        y = y + 1e-4 * (weights @ k[:3]) - 1e-5 * z[:3]
        float(np.sqrt(np.mean(y**2)))
    return y


def loop_s():
    """Seconds the loop takes now."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


def scaled(seconds, *loop_times):
    """``seconds`` at reference speed, given loop times taken around them."""
    return seconds * REFERENCE_S * len(loop_times) / sum(loop_times)
