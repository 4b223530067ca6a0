"""Machine-speed calibration for the timing metrics.

The reference machine is shared.  Its cores flip between fast and slow
states within seconds, and the share of time spent in each drifts over
minutes; the CPU time of a fixed loop moves with its wall time.  So the
workload process times a short fixed kernel (about 6 ms) before each op, or
before the first op after INTERVAL_S has passed, and once after the last
op.  Each op is charged the mean k of the kernel times just before and just
after it, and run.py multiplies its time by (NOMINAL_S / k) ** SENSITIVITY
of the workload: a time at the reference speed, the speed at which the
kernel takes NOMINAL_S.  The raw times are kept in the provenance.

The kernel is a small scipy DOP853 integration with a Python right-hand
side.  Its time swings more than the workloads' op times do, and by how
much depends on the work: dense eigenvalues barely slow down.  SENSITIVITY
is the slope of log op time against log kernel time for the same ops,
fitted over five repeated runs of each workload on the reference machine;
README.md lists the fits.  run.py pins the whole run to one core, so a CLI
child runs on the core whose speed the kernel measures.  Each set-up probe
times the kernel just after its imports, and SETUP_SENSITIVITY is the slope
fitted over 40 probes.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_S = 0.006
KERNEL_SPAN = 4.0
INTERVAL_S = 0.2
SENSITIVITY = {"det-sweep": 0.85, "det-stress": 0.8, "green-crosscheck": 0.5,
               "cli-cold": 0.4}
SETUP_SENSITIVITY = 0.35


def _rhs(t, y):
    return (y[1], -4.0 * (1.0 + 0.2 * math.sin(3.0 * t)) * y[0])


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    # Imported here, not at module level: a set-up probe imports this module,
    # and only the program's own imports may count towards setup_s.
    from scipy.integrate import solve_ivp

    start = time.perf_counter()
    solve_ivp(_rhs, (0.0, KERNEL_SPAN), [1.0, 0.0], method="DOP853",
              rtol=1e-10, atol=1e-12)
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel timings, taken at most once per INTERVAL_S."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf
        kernel_seconds()  # warm-up: imports and first-call costs stay out

    def sample(self) -> None:
        self.samples.append(kernel_seconds())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()


def factor(kernel: float, sensitivity: float) -> float:
    """Factor that turns a time measured next to the kernel time `kernel`
    into a time at the reference speed."""
    return (NOMINAL_S / kernel) ** sensitivity


def scale(samples: list) -> float:
    """The run's median kernel time against NOMINAL_S, for the provenance."""
    return NOMINAL_S / statistics.median(samples)
