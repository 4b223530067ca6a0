"""DOP853 for the amplitude-phase system of ermakov.solve_ermakov, which
imports this module on the route's first solve.

The explicit Runge-Kutta pair of order 8(5, 3) of Dormand and Prince with
its seventh-order dense output (Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, II.5-II.6), run as scipy.integrate.solve_ivp runs
method="DOP853": the same error norm (E5 weighted by its ratio to E3),
step-size control (safety 0.9, factors 0.2 to 10) and initial step, with the
stage sums and norms made by the same C dot routine as np.dot (ndarray.dot,
without np.dot's dispatch) and the slopes and states on floats in scipy's
order of operations, so that on equal Omega^2 samples the knots and states
are scipy's to the last bit.  The coefficients are those of
scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause), printed at
double precision.  Row s of _A gives stage s at time t + _C[s] h;
stages 0-11 make a step, stage 12 is the slope at its end
(first-same-as-last) and stages 13-15 serve the dense output only.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import IntegrationError
from .profiles import Interval

_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_A = np.array([row + (0,) * (16 - len(row)) for row in (
        (),
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0, 0.08876275643042054),
        (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
        (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486,
         -0.020331201708508627),
        (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196),
        (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636),
        (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
         0.20136540080403034, 0.04471061572777259),
        (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298),
        (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
         -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325),
        (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
         4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
         2.9475147891527724, -9.15095847217987))], dtype=float)
# the eighth-order step is row 12 (_ROWS[12]); the error estimators are E5 and E3
_E5, _E3 = np.array([
    (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
     0.08192320648511571, -0.022355307863886294, 0),
    (-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
     0.20136540080403034, 0.02265179219836082, 0)])
# the last four of the seven dense-output coefficients F_3..F_6 per step
_D = np.array([
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727,
     -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564)])
_ROWS = [_A[s, :s] for s in range(16)]
_C_STEP = _C[1:12]  # stage 11 is at the step's end
# step-size control: the factor SAFETY * error^(-1/8), clipped to [MIN, MAX]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
# the amplitude has collapsed once p falls to this
_COLLAPSE_LEVEL = 1e-8


def _ermakov_rhs(om, w0, y, dy, h):
    """The slope at the stage state y + dy h (q is never formed): (p, p', q)'
    = (p', p^-3 - Omega^2 p, 1 / (omega0 p^2)) at Omega^2 = om.  The
    components of y and dy are floats or arrays of stages."""
    p = y[0] + dy[0] * h
    return [y[1] + dy[1] * h, 1.0 / p ** 3 - om * p, 1.0 / (w0 * p * p)]


def _rms(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / x.size ** 0.5


class ErmakovSteps:
    """The accepted DOP853 steps of one amplitude-phase solve: knots ts, the
    states ys at the knots (ys[-1] is the end state) and each step's stages,
    stacked on their first read.  Calling it at times evaluates the dense
    output, one column per time (a vector for one time); the interpolant of
    a step is built the first time a time falls into it, for all such steps
    of a call at once."""

    def __init__(self, om: Callable, w0: float, ts: list, ys: list, stages: list):
        self.om, self.w0, self._stages = om, w0, stages
        self.ts, self.ys = np.array(ts), np.array(ys)
        self._poly = np.empty((len(stages), 7, self.ys.shape[1]))
        self._built = np.zeros(len(stages), dtype=bool)

    @cached_property
    def stages(self) -> np.ndarray:
        return np.array(self._stages)

    def _build(self, steps: np.ndarray) -> None:
        """The interpolant coefficients F_0..F_6 of the steps; their three
        extra stages sample Omega^2 in one call."""
        t0, h = self.ts[steps], (self.ts[steps + 1] - self.ts[steps])[:, None]
        y0, dy = self.ys[steps], self.ys[steps + 1] - self.ys[steps]
        k = np.zeros((steps.size, 16, dy.shape[1]))
        k[:, :13] = self.stages[steps]
        om = np.asarray(self.om(t0[:, None] + h * _C[13:]), dtype=float)
        for s in (13, 14, 15):
            dk = np.einsum("j,mjn->nm", _ROWS[s], k[:, :s])
            k[:, s] = np.array(_ermakov_rhs(om[:, s - 13], self.w0, y0.T, dk, h[:, 0])).T
        poly = self._poly
        poly[steps, 0] = dy
        poly[steps, 1] = h * k[:, 0] - dy
        poly[steps, 2] = 2.0 * dy - h * (k[:, 12] + k[:, 0])
        poly[steps, 3:] = h[:, None] * np.einsum("dj,mjn->mdn", _D, k)
        self._built[steps] = True

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        k = np.clip(np.searchsorted(self.ts, flat) - 1, 0, len(self._built) - 1)
        new = np.flatnonzero((np.bincount(k, minlength=self._built.size) > 0) & ~self._built)
        if new.size:
            self._build(new)
        t0 = self.ts[k]
        x = ((flat - t0) / (self.ts[k + 1] - t0))[:, None]
        y = np.zeros((flat.size, self.ys.shape[1]))
        for i in range(6, -1, -1):  # x (F_0 + (1 - x) (F_1 + x (F_2 + ...)))
            y += self._poly[k, i]
            y *= x if i % 2 == 0 else 1.0 - x
        return (y + self.ys[k]).T.reshape((-1,) + t.shape)


def solve(om: Callable, iv: Interval, w0: float, start, rtol: float,
          atol: float) -> ErmakovSteps:
    """The amplitude-phase system on the interval iv from start = (p, p', q),
    with Omega^2 = om and omega0 = w0, to the tolerances rtol and atol.
    Each step attempt samples Omega^2, which does not depend on the state,
    at its stage times in one array call.  Raises IntegrationError when p
    falls to _COLLAPSE_LEVEL at a step end (at the crossing of the dense
    output) or the step size falls below ten spacings of floats at t."""
    t, y = iv.t_a, np.array(start, dtype=float)
    k = np.empty((13, 3))
    kv = k.reshape(-1).data  # stage s is kv[3 s : 3 s + 3]
    # stage s: stages 0..s-1 (one column each), its row of _A and its slot in
    # kv; stage 12's sum is the eighth-order step, as it is in scipy
    sums = [(k[:s].T, _ROWS[s], 3 * s) for s in range(1, 13)]
    with np.errstate(all="ignore"):  # a failed trial step only shrinks the step
        # initial step: Hairer, Norsett & Wanner II.4, as scipy selects it
        # on numpy scalars: inf and nan where p = 0 or a power of p overflows
        f = np.array(_ermakov_rhs(float(om(t)), w0, y, np.zeros(3), 0.0))
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, iv.span)
        f1 = np.array(_ermakov_rhs(float(om(t + h0)), w0, y, f, h0))
        d2 = _rms((f1 - f) / scale) / h0
        h_abs = min(100.0 * h0, iv.span, max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
                    else (0.01 / max(d1, d2)) ** 0.125)
        k[0], y = f, y.tolist()
        ts, ys, stages = [t], [y], []
        while t < iv.t_b:
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs, rejected, (y0, y1, y2) = max(h_abs, min_step), False, y
            while True:
                if not h_abs >= min_step:  # a NaN start makes h_abs NaN
                    raise IntegrationError(
                        f"amplitude-phase integration failed near t = {t}: Required "
                        f"step size is less than spacing between numbers.")
                t_new = min(t + h_abs, iv.t_b)
                h = t_new - t
                om_s = np.asarray(om(t + _C_STEP * h), dtype=float).tolist()
                om_s.append(om_s[10])  # stage 12 is at the step's end, as stage 11
                for (k_t, row, i), om_i in zip(sums, om_s):
                    d0, d1, d2 = k_t.dot(row).tolist()
                    # _ermakov_rhs on floats, written in place; where p = 0 or a
                    # power of p overflows, numpy scalars give inf and nan
                    try:
                        p = y0 + d0 * h
                        kv[i], kv[i + 1], kv[i + 2] = (
                            y1 + d1 * h, 1.0 / p ** 3 - om_i * p, 1.0 / (w0 * p * p))
                    except ArithmeticError:
                        k[i // 3] = _ermakov_rhs(om_i, w0, np.array(y), np.array([d0, d1, d2]), h)
                # the eighth-order step, at whose end stage 12 sampled the slope
                y_new = [y0 + h * d0, y1 + h * d1, y2 + h * d2]
                # |y_new| first: a NaN there gives a NaN scale, as np.maximum does
                # (y, an accepted state, has none: a NaN scale rejects the attempt)
                scale = np.array([atol + max(abs(b), abs(a)) * rtol for a, b in zip(y, y_new)])
                e5, e3 = k.T.dot(_E5) / scale, k.T.dot(_E3) / scale
                e5, e3 = math.sqrt(e5.dot(e5)) ** 2, math.sqrt(e3.dot(e3)) ** 2
                error = h * e5 / math.sqrt((e5 + 0.01 * e3) * 3) if e5 or e3 else 0.0
                if error < 1.0:
                    factor = _MAX_FACTOR if error == 0.0 else min(
                        _MAX_FACTOR, _SAFETY * error ** -0.125)
                    h_abs = h * (min(1.0, factor) if rejected else factor)
                    break
                h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** -0.125)
                rejected = True
            t = t_new
            ts.append(t)
            ys.append(y_new)
            stages.append(k.copy())
            kv[:3] = kv[36:]  # first same as last
            if y0 >= _COLLAPSE_LEVEL >= y_new[0]:
                steps = ErmakovSteps(om, w0, ts, ys, stages)
                lo, hi = ts[-2], t
                for _ in range(100):  # bisection on the dense output
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:
                        break
                    lo, hi = (mid, hi) if steps(mid)[0] > _COLLAPSE_LEVEL else (lo, mid)
                raise IntegrationError(
                    f"p fell to dop853._COLLAPSE_LEVEL = {_COLLAPSE_LEVEL}: amplitude "
                    f"solution collapsed to zero near t = {mid}")
            y = y_new
    return ErmakovSteps(om, w0, ts, ys, stages)
