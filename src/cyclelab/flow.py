"""Numerical integration of planar polynomial fields with dense output.

The integrator is the adaptive Dormand-Prince 8(5,3) method with its
degree-7 dense output (Hairer-Norsett-Wanner, Solving ODEs I, II.10), with
the step control of SciPy's DOP853 solver and fed by the field's compiled
evaluator; no SciPy stepper runs here. Two drivers run it: the scalar
driver (_advance, one loop over the steps of one orbit) on plain floats and
the lockstep driver (next_section_crossings, one lane per orbit) on NumPy
lane arrays. They share the crossing kernels: the interpolant
(_interpolant), the two crossing screens (_line_screen, _off_segment), the
Bernstein coefficients (_line_bernstein) and the de Casteljau step of the
root search (_value_slope) are written once and run on floats and, entry by
entry, on lane arrays; the lockstep driver also solves its steps for their
crossings on the lane arrays (_lane_roots, _single_roots) with the scalar
search's operations and tests in their order, and an attempt runs the search
only when the screens leave it a lane to search. The tableau is written
once, as its rows and their column lists (_A ... _D_COLUMNS), and both
drivers read it. The float kernels of an attempt's stages and error
estimates (_attempt) and of the dense output (_dense) are compiled from the
rows at import, each weighted sum of stages one expression with the weights
as literals. The lane kernels (_lane_attempt, _lane_dense) keep an attempt's
stage derivatives in one (16, 2, lanes) stack, which the lane RHS writes
into, and form each weighted sum as one reduction over its row's columns,
added in the float kernel's order (_lane_sum). Only the initial step
(_initial_step, _initial_steps) and the step-size control (_control,
_controls) still come in pairs with the same bits, one kernel on floats and
one on lane arrays. They hold the stepper's only powers, which NumPy's
power can round differently from Python's **; their lane kernels take them
by np.float_power, which calls libm's pow as Python's ** does, one call
per power on all lanes. Every lane thus has the scalar driver's bits, from
its start on. The scalar driver alone raises the stepper's failures (the
step budget, the step floor and the safety box): a lane about to fail
continues from its state on it. On q2-search's degree-7 fields a lockstep
attempt, crossing search and lane starts included, costs about 0.48, 0.69
and 1.07 ms at 13, 104 and 312 lanes (the call's time over its attempts,
every lane in lockstep, median of 31 calls; 0.50, 0.72 and 1.15 ms with
the powers taken by Python's ** lane by lane), and a scalar attempt about
35 us, so per attempt the lockstep driver pays from about 14 lanes (2-vCPU
Xeon VM, Python 3.11, NumPy 2.4); a whole call pays later, as lanes that
return apart leave the arrays at different attempts. It hands fewer than
_LOCKSTEP_MIN_LANES lanes to the scalar driver. A lane keeps its steps on
request, as next_section_crossing does with _kept: the lockstep driver
keeps the arrays of the attempts in which such a lane stepped, steps()
gathers the lane's columns from them, and the list it starts goes on to
the scalar driver with the lane.

``integrate`` collects the scalar driver's steps into an Orbit, whose eval
builds and keeps each step's row of dense output coefficients when a time
first falls in it. ``next_section_crossing`` solves each step for its
section crossings exactly: the dense output on a step is a degree-7
polynomial in time, so its normal coordinate against the section line is
one too, and its sign changes in the step, bracketed from its Bernstein
coefficients, are the crossings. Steps that cannot cross the line, or can
cross it only off the segment, are screened out before any root is solved.
Every way an orbit can fail derives from OrbitFailure: the step budget or
floor (StepUnderflow), the safety box (Divergence) and no crossing by t_max
(NoCrossing). Stiff integrators are not needed here: polynomial
fields near attracting cycles at our perturbation sizes are non-stiff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import lane_evaluators

DEFAULT_TOL = 1e-10
_SAFETY_BOX = 1e3
_MAX_STEPS = 2_000_000
# next_section_crossings hands fewer lanes than this to the scalar driver.
# q2-search's 312 lanes run 19 attempts at 312 lanes, 1 at 202, 1 at 68 and
# 1 at 45, and its last 20 lanes finish in 20 scalar attempts; at 48 the 45
# lanes took 65 scalar attempts, and at 16 or below the 20 lanes run one
# more lockstep attempt. The split's 50-lane wave drops straight to 14
# lanes. Re-scan, ms, median and fastest of 101 interleaved runs in one
# process (2-vCPU Xeon VM whose neighbours spread the runs to quartiles
# about 17 ms apart on q2 and 8 on the wave):
#   lanes           48          32          24          16          12
#   q2-search  42.8 / 28.0 41.8 / 27.3 41.4 / 27.0 40.8 / 26.9 41.5 / 27.0
#   wave       17.8 / 11.0 17.7 / 10.9 17.6 / 11.0 17.8 / 11.0 18.4 / 11.5
# q2 gains about 1 ms below 48, the wave loses at 12, where its 14 lanes
# stay in lockstep; 24 lies between
_LOCKSTEP_MIN_LANES = 24
# a return to the section takes 19-56 attempts on q2-search's fields, an
# orbit that never returns runs to t_max in about 10^3-10^4; the lanes still
# running after this many continue on the scalar driver, which stops each
# row at its first failure instead of running all its lanes to t_max
_LOCKSTEP_MAX_ATTEMPTS = 128

# The Dormand-Prince 8(5,3) tableau as in SciPy's DOP853 solver
# (scipy/integrate/_ivp/dop853_coefficients.py), nonzero entries only, in
# column order, with the stages each row weighs; both drivers' kernels are
# built from these tables. Stage i of a step is f(y + h * sum_j a_ij k_j);
# the step ends at y + h * sum_j b_j k_j and k_13 is f there; _E5 and _E3
# weigh the stages for the fifth- and third-order error estimates.
_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.08876275643042054),
    (0.2413651341592667, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
)
# the stages each row of _A weighs, k_j as column j - 1 (stage 4 weighs k_1
# and k_3, so its columns are 0 and 2)
_A_COLUMNS = ((0,), (0, 1), (0, 2), (0, 2, 3), (0, 3, 4), (0, 3, 4, 5), (0, 3, 4, 5, 6),
              (0, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7, 8), (0, 3, 4, 5, 6, 7, 8, 9),
              (0, 3, 4, 5, 6, 7, 8, 9, 10))
_B = (0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
      0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
       -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
       -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
# the stages that _B, _E5 and _E3 weigh: k_1, k_6, ..., k_12
_B_COLUMNS = (0, 5, 6, 7, 8, 9, 10, 11)
# the three extra stages k_14..k_16 of the dense output and the rows of D,
# which give its coefficients F_3..F_6 = h * sum_j d_ij k_j
_A_DENSE = (
    (0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
     0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
     0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
# the stages each row of _A_DENSE weighs
_A_DENSE_COLUMNS = ((0, 6, 7, 8, 9, 10, 11, 12), (0, 5, 6, 7, 10, 11, 12, 13),
                    (0, 5, 6, 7, 8, 12, 13, 14))
_D = (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
)
# the stages that every row of _D weighs: k_1, k_6, ..., k_16
_D_COLUMNS = (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10

# a dip below the section whose two crossings lie closer than this in s
# counts as a touch, not as two crossings
_ROOT_RESOLUTION = 2.0 ** -24


class OrbitFailure(Exception):
    """The orbit could not be followed to the requested time or crossing."""


class StepUnderflow(OrbitFailure):
    """The adaptive stepper failed (stiffness or blow-up)."""


class Divergence(OrbitFailure):
    """Trajectory left the safety box |x|, |y| <= box."""

    def __init__(self, t, point, box):
        super().__init__(f"orbit left the safety box {box:g} at t={t:.6g}")
        self.t = t
        self.point = point


class NoCrossing(OrbitFailure):
    """No section crossing found within t_max."""


@dataclass
class Orbit:
    """Adaptive-step trajectory with per-step dense interpolants.

    Times are strictly increasing; ``eval`` interpolates anywhere inside
    [t0, t_end] with the local error the integrator tolerances imply.
    """

    times: np.ndarray
    states: np.ndarray  # (n, 2)
    _segments: list = field(default_factory=list, repr=False)
    # row i: step i's t_old, h, x_old, y_old, F0x..F6x, F0y..F6y, NaN until
    # an eval first needs it
    _rows: np.ndarray | None = field(default=None, repr=False)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def eval(self, t):
        """Dense-output evaluation at scalar or array t, shaped t's shape + (2,).

        _interpolant on arrays over all times, so every value has the bits
        of _interpolant on its step's floats. Each time falls in
        the step that ends at or after it (clamped to the first and the
        last). A step's row of coefficients, and its dense output, is built
        on the first eval that needs it and kept with the orbit.
        """
        t = np.asarray(t, dtype=float)
        ts = t.ravel()
        idx = np.clip(np.searchsorted(self.times[1:], ts, side="left"), 0,
                      len(self._segments) - 1)
        if self._rows is None:
            self._rows = np.full((len(self._segments), 18), np.nan)
        new = list(set(idx[np.isnan(self._rows[idx, 1])].tolist()))
        if new:
            self._rows[new] = [(step.t_old, step.h, *step.y_old, *step.F[0], *step.F[1])
                               for step in map(self._segments.__getitem__, new)]
        rows = self._rows[idx]
        s = (ts - rows[:, 0]) / rows[:, 1]
        out = np.stack(_interpolant((rows[:, 4:11].T, rows[:, 11:18].T), rows[:, 2], rows[:, 3], s),
                       axis=-1)
        return out.reshape(t.shape + (2,))


class _Step:
    """One accepted step from (t_old, y_old) to (t, y).

    K holds the stage derivatives the dense output needs, (k1x, k1y,
    k6x, k6y, ..., k13x, k13y), and f the right-hand side. The dense
    output's coefficients F = ((F0x, ..., F6x), (F0y, ..., F6y)) cost three
    more RHS calls and are built on first use, unless given.
    """

    __slots__ = ("t_old", "t", "h", "y_old", "y", "K", "f", "_F")

    def __init__(self, t_old, t, y_old, y, K, f, F=None):
        self.t_old, self.t, self.h = t_old, t, t - t_old
        self.y_old, self.y, self.K, self.f = y_old, y, K, f
        self._F = F

    @property
    def F(self):
        if self._F is None:
            self._F = _dense(self.f, self.h, self.y_old, self.y, self.K)
        return self._F


class _Trail:
    """The steps one lane of next_section_crossings took in lockstep, left in
    its group's records until steps() first builds them into _Steps.

    records holds, per attempt in which a lane that keeps its steps stepped,
    the arrays the attempt made, as it made them: (held, ids, t_old, t, z_old,
    z, K, F), held the positions of those lanes in the attempt's arrays, ids
    the lane index at each position, K the (16, 2, lanes) stage stack and F
    the (2, 7, lanes) dense output. Nothing writes to them after their
    attempt, so steps() gathers a lane's columns from them when it first
    runs. select(k) is the lane's RHS on floats, as lane_evaluators gives it.
    """

    __slots__ = ("records", "lane", "select", "k")

    def __init__(self, records, lane, select, k):
        self.records, self.lane, self.select, self.k = records, lane, select, k

    def steps(self) -> list:
        f = self.select(self.k)
        steps = []
        for held, ids, t_old, t, z_old, z, K, F in self.records:
            j = held[ids[held] == self.lane]
            if j.size:
                j = int(j[0])
                steps.append(_Step(float(t_old[j]), float(t[j]), tuple(z_old[:, j].tolist()),
                                   tuple(z[:, j].tolist()), tuple(K[_STEP_K, :, j].ravel().tolist()),
                                   f, tuple(map(tuple, F[:, :, j].tolist()))))
        return steps


def _interpolant(F, x, y, s):
    """The interpolant with dense output coefficients F from (x, y) at
    s = (t - t_old) / h, as (x, y): y_old + s (F0 + (1 - s) (F1 + s (F2 +
    (1 - s) (F3 + ...)))); on floats and, entry by entry, on lane arrays."""
    r = 1 - s
    return tuple(((((((((f6 * s + f5) * r + f4) * s + f3) * r + f2) * s + f1) * r + f0) * s) + v)
                 for (f0, f1, f2, f3, f4, f5, f6), v in zip(F, (x, y)))


def _sum_source(weights, columns, c):
    """The source of one tableau row's weighted sum of stage derivatives in
    component c ('x' or 'y'): the weights as literals, the products added
    left to right, as _lane_sum adds them."""
    return " + ".join(f"{w!r} * k{j + 1}{c}" for w, j in zip(weights, columns))


def _stage_source(first, rows, columns):
    """The source of the stages k_first, k_first+1, ... that the tableau rows
    give, each f(x + (sum) * h, y + (sum) * h)."""
    return [f"k{i}x, k{i}y = f(" + ", ".join(f"{v} + ({_sum_source(a, c, v)}) * h" for v in "xy")
            + ")" for i, (a, c) in enumerate(zip(rows, columns), first)]


def _kernel(name, params, doc, body):
    """The function ``def name(params):`` with the source lines body and the
    docstring doc, compiled once at import, as a polynomial's body is
    compiled from poly2._horner_source."""
    namespace = {"__name__": __name__}
    exec(f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body), namespace)
    namespace[name].__doc__ = doc
    return namespace[name]


# the stages a _Step keeps in K: k_1, k_6, ..., k_13, as k1x, k1y, ..., k13y
_STEP_K = np.array(_B_COLUMNS + (12,))
_K_NAMES = ", ".join(f"k{j + 1}{c}" for j in _STEP_K.tolist() for c in "xy")

_attempt = _kernel(
    "_attempt", "f, x, y, k1x, k1y, h",
    """One Dormand-Prince 8(5,3) step of size h from (x, y), k1 = f(x, y):
    (x_new, y_new, K, e5x, e5y, e3x, e3y), with K the stage derivatives
    _Step keeps and e5, e3 the fifth- and third-order error estimates before
    scaling; on floats, compiled from the tableau rows. _lane_attempt is the
    same on lane arrays.""",
    _stage_source(2, _A, _A_COLUMNS)
    + [f"{v}_new = {v} + h * ({_sum_source(_B, _B_COLUMNS, v)})" for v in "xy"]
    + ["k13x, k13y = f(x_new, y_new)",
       f"return (x_new, y_new, ({_K_NAMES}), "
       + ", ".join(_sum_source(e, _B_COLUMNS, v) for e in (_E5, _E3) for v in "xy") + ")"])

_dense = _kernel(
    "_dense", "f, h, y_old, y_new, K",
    """SciPy's DOP853 dense output, operation for operation, on floats: _Step.F
    of the step of size h from y_old to y_new with stage derivatives K,
    compiled from the tableau rows. _lane_dense is the same on lane arrays.""",
    [f"{_K_NAMES} = K", "(x, y), (x_new, y_new) = y_old, y_new"]
    + _stage_source(14, _A_DENSE, _A_DENSE_COLUMNS)
    + ["dx, dy = x_new - x, y_new - y",
       "return (" + ", ".join(
           f"(d{v}, h * k1{v} - d{v}, 2 * d{v} - h * (k13{v} + k1{v}), "
           + ", ".join(f"h * ({_sum_source(d, _D_COLUMNS, v)})" for d in _D) + ")"
           for v in "xy") + ")"])


# the rows of _A and _A_DENSE, of _B, _E5 and _E3 together and of _D together
# as (columns, weights) for _lane_sum
_LANE_A = [(np.array(c), np.array(a)[:, None, None]) for a, c in zip(_A, _A_COLUMNS)]
_LANE_A_DENSE = [(np.array(c), np.array(a)[:, None, None])
                 for a, c in zip(_A_DENSE, _A_DENSE_COLUMNS)]
_LANE_B = np.array(_B_COLUMNS), np.array((_B, _E5, _E3))[:, :, None, None]
_LANE_D = np.array(_D_COLUMNS), np.array(_D)[:, :, None, None]


def _lane_sum(K, columns, weights):
    """The weighted sum of the stage derivatives K[columns] (gathered by
    take, which costs less than fancy indexing) for every lane
    and component, one per row of weights, added as _attempt and _dense add
    it on floats: the products left to right. NumPy reduces over the
    columns in their order; its default start +0.0 would turn a sum of -0.0
    products into +0.0, the start -0.0 leaves every sum as on floats."""
    return np.add.reduce(weights * K.take(columns, axis=0), axis=-3, initial=-0.0)


def _lane_attempt(f, z, k1, h):
    """_attempt on lane arrays, with _attempt's bits in every entry: z and
    k1 are (2, lanes) arrays of the points and of f there, h the step of
    each lane and f(x, y, out) the RHS, which writes (P, Q) into out.
    Returns (z_new, K, e5, e3), K the (16, 2, lanes) stack of stage
    derivatives, k_j in K[j - 1], with k_1..k_13 filled for _lane_dense."""
    K = np.empty((16,) + z.shape)
    K[0] = k1
    for i, (columns, weights) in enumerate(_LANE_A, 1):
        u = z + _lane_sum(K, columns, weights) * h
        f(u[0], u[1], K[i])
    step, e5, e3 = _lane_sum(K, *_LANE_B)
    z_new = z + h * step
    f(z_new[0], z_new[1], K[12])
    return z_new, K, e5, e3


def _lane_dense(f, h, z, z_new, K):
    """_dense on lane arrays for _lane_attempt's step from z to z_new, with
    _dense's bits in every entry: fills K's slots of k_14..k_16 and returns
    the dense output coefficients as a (2, 7, lanes) array, F[c, i] being
    F_i of component c."""
    for i, (columns, weights) in enumerate(_LANE_A_DENSE, 13):
        u = z + _lane_sum(K, columns, weights) * h
        f(u[0], u[1], K[i])
    F = np.empty((7,) + z.shape)
    d = np.subtract(z_new, z, out=F[0])
    np.subtract(h * K[0], d, out=F[1])
    np.subtract(2 * d, h * (K[12] + K[0]), out=F[2])
    np.multiply(h, _lane_sum(K, *_LANE_D), out=F[3:])
    return F.swapaxes(0, 1)


def _control(h_abs, e5x, e5y, e3x, e3y, rejected):
    """SciPy's DOP853 step-size control on floats: (accepted, next |h|) after
    an attempt of size h_abs with the scaled error estimates e5 and e3.

    The only powers of the stepper are here; _controls is the same rule on
    lane arrays.
    """
    n5 = math.sqrt(e5x * e5x + e5y * e5y) ** 2
    n3 = math.sqrt(e3x * e3x + e3y * e3y) ** 2
    err = 0.0 if n5 == 0 and n3 == 0 else h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * 2)
    if err < 1:
        factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** -0.125)
        if rejected:
            factor = min(1, factor)
        return True, h_abs * factor
    return False, h_abs * max(_MIN_FACTOR, _SAFETY * err ** -0.125)


def _controls(h_abs, e5x, e5y, e3x, e3y, rejected):
    """_control on lane arrays: (accepted, next |h|), one entry per lane, each
    with _control's bits, and ZeroDivisionError where _control raises it.

    Sums, products, square roots and comparisons round in NumPy as on
    floats, and min and max are taken by Python's rule: min(a, b) is a
    unless b < a, max(a, b) a unless b > a. The three powers go through
    np.float_power, which calls libm's pow as Python's float ** does: it
    gives Python's v ** 2 and v ** -0.125 on all of 3e6 random doubles,
    where NumPy's power differs on 2,162 and 164,940 of them and v * v
    differs from v ** 2 too (uniform, log-normal and random-bit draws,
    NumPy 2.4, glibc). Python raises only where float_power would not: at 0 ** -0.125,
    which err = 0 skips, and where v ** 2 overflows, which cannot happen, as
    v = sqrt(finite) squares below the largest double.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n5 = np.float_power(np.sqrt(e5x * e5x + e5y * e5y), 2)
        n3 = np.float_power(np.sqrt(e3x * e3x + e3y * e3y), 2)
        zero = (n5 == 0) & (n3 == 0)
        root = np.sqrt((n5 + 0.01 * n3) * 2)
        if (~zero & (root == 0)).any():
            raise ZeroDivisionError("float division by zero")
        err = np.where(zero, 0.0, h_abs * n5 / root)
        # at err = 0, where _control grows by _MAX_FACTOR, min(_MAX_FACTOR, inf)
        scaled = _SAFETY * np.where(err == 0, math.inf, np.float_power(err, -0.125))
    accepted = err < 1
    grown = np.where(scaled < _MAX_FACTOR, scaled, _MAX_FACTOR)
    grown = np.where(rejected & ~(grown < 1), 1.0, grown)
    shrunk = np.where(scaled > _MIN_FACTOR, scaled, _MIN_FACTOR)
    return accepted, h_abs * np.where(accepted, grown, shrunk)


def _start(f, x0, t_bound, tol):
    """The stepper's state at t = 0 from x0:
    (t, x, y, k1x, k1y, h_abs, rejected, taken)."""
    if not t_bound > 0:
        raise ValueError("the time bound must be > 0")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    x, y = float(x0[0]), float(x0[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"the start point ({x}, {y}) must be finite")
    k1x, k1y = f(x, y)
    return 0.0, x, y, k1x, k1y, _initial_step(f, x, y, k1x, k1y, t_bound, tol), False, 0


def _initial_step(f, x, y, fx, fy, t_bound, tol):
    """SciPy's select_initial_step (Hairer-Norsett-Wanner II.4) for error order 7."""
    sx, sy = tol + abs(x) * tol, tol + abs(y) * tol
    d0 = _rms(x / sx, y / sy)
    d1 = _rms(fx / sx, fy / sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    gx, gy = f(x + h0 * fx, y + h0 * fy)
    d2 = _rms((gx - fx) / sx, (gy - fy) / sy) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_bound)


def _initial_steps(f, x, y, fx, fy, t_bound, tol):
    """_initial_step on lane arrays, f the RHS on them: one step per lane,
    each with _initial_step's bits, and ZeroDivisionError where
    _initial_step raises it. As in _controls, the power goes through
    np.float_power, which gives Python's float ** bits on the lanes, and min
    and max follow Python's rule."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sx, sy = tol + abs(x) * tol, tol + abs(y) * tol
        d0 = _rms(x / sx, y / sy, np.sqrt)
        d1 = _rms(fx / sx, fy / sy, np.sqrt)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.where(t_bound < h0, t_bound, h0)
        gx, gy = f(x + h0 * fx, y + h0 * fy)
        d2 = _rms((gx - fx) / sx, (gy - fy) / sy, np.sqrt) / h0
        tiny = (d1 <= 1e-15) & (d2 <= 1e-15)
        top = np.where(d2 > d1, d2, d1)
        if (h0 == 0).any() or (~tiny & (top == 0)).any():
            raise ZeroDivisionError("float division by zero")
        small = h0 * 1e-3
        h1 = np.where(tiny, np.where(small > 1e-6, small, 1e-6),
                      np.float_power(0.01 / top, 1 / 8))
    h = 100 * h0
    h = np.where(h1 < h, h1, h)
    return np.where(t_bound < h, t_bound, h)


def _rms(u, v, sqrt=math.sqrt):
    return sqrt(u * u + v * v) / 2 ** 0.5


def _advance(f, t, x, y, k1x, k1y, h_abs, rejected, taken, t_bound, tol, kept=None,
             search=None):
    """Accepted Dormand-Prince 8(5,3) steps on to t_bound from a stepper state
    (see _start): k1 = f(x, y), h_abs is the next step size to try, rejected
    says whether the step from t was rejected before, and taken counts the
    accepted steps so far. Each accepted step goes into the list kept, if
    one is given, as a _Step.

    Without search, returns None at t_bound. With search = (geometry,
    direction_sign, t_offset), each accepted step's dense output is built
    and the step searched for a crossing (_step_crossing); the first one
    ends the run as (t_star, point), its step the last one kept, and
    reaching t_bound without one raises NoCrossing.

    The step control is SciPy's DOP853 solver's, operation for operation:
    its initial step for error order 7, the factor 0.9 * err^(-1/8) clamped
    to [0.2, 10], no growth right after a rejection, a floor of 10 ulp of t
    and the combined error norm |h| |e5|^2 / sqrt(2 (|e5|^2 + 0.01 |e3|^2)),
    e5 and e3 being the fifth- and third-order error estimates scaled by
    tol * (1 + max |y|) componentwise. Raises StepUnderflow when the step
    falls below that floor or is NaN or the step budget runs out and
    Divergence when a step ends outside the safety box.
    """
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if not rejected:
            if taken == _MAX_STEPS:
                raise StepUnderflow("step budget exhausted")
            if t >= t_bound:
                if search is None:
                    return None
                raise NoCrossing(f"no crossing in (0, {t_bound}]")
            h_abs = max(h_abs, min_step)
        if not h_abs >= min_step:  # a NaN step fails too
            raise StepUnderflow(f"step size fell below 10 ulp at t={t:.6g}")
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        x_new, y_new, K, e5x, e5y, e3x, e3y = _attempt(f, x, y, k1x, k1y, h)
        sx = tol + max(abs(x), abs(x_new)) * tol
        sy = tol + max(abs(y), abs(y_new)) * tol
        accepted, h_abs = _control(abs(h), e5x / sx, e5y / sy, e3x / sx, e3y / sy, rejected)
        rejected = not accepted
        if rejected:
            continue
        if abs(x_new) > _SAFETY_BOX or abs(y_new) > _SAFETY_BOX:
            raise Divergence(t_new, np.array([x_new, y_new]), _SAFETY_BOX)
        F = None if search is None else _dense(f, h, (x, y), (x_new, y_new), K)
        if kept is not None:
            kept.append(_Step(t, t_new, (x, y), (x_new, y_new), K, f, F))
        if F is not None:
            hit = _step_crossing(t, h, (x, y), (x_new, y_new), F, f, *search)
            if hit is not None:
                return hit
        t, x, y, k1x, k1y = t_new, x_new, y_new, K[-2], K[-1]
        taken += 1


def _orbit(x0, steps) -> Orbit:
    """The orbit from x0 along the kept steps: _Steps, after the _Trail of a
    lane's lockstep steps in a list that next_section_crossings kept."""
    if steps and isinstance(steps[0], _Trail):
        steps = steps[0].steps() + steps[1:]
    return Orbit(
        times=np.array([0.0] + [step.t for step in steps]),
        states=np.array([(float(x0[0]), float(x0[1]))] + [step.y for step in steps]),
        _segments=steps,
    )


def integrate(X, x0, t_end: float, tol: float = DEFAULT_TOL) -> Orbit:
    """Flow of X from x0 over [0, t_end].

    Raises ValueError unless t_end > 0, tol > 0 and x0 is finite, Divergence
    when the orbit leaves the safety box and StepUnderflow when the stepper
    gives up.
    """
    f = X.rhs()
    steps = []
    _advance(f, *_start(f, x0, t_end, tol), t_end, tol, steps)
    return _orbit(x0, steps)


def _line_screen(y_old, y_new, F, bx, by, nx, ny):
    """(g0, g1, (c0, ..., c6), ruled_out) of a step from y_old to y_new with
    dense output coefficients F against the line through (bx, by) with
    normal (nx, ny); see _line_roots. The same operations run on floats and,
    entry by entry, on lane arrays, where ruled_out is a mask."""
    x, y = y_old
    g0 = (x - bx) * nx + (y - by) * ny
    x, y = y_new
    g1 = (x - bx) * nx + (y - by) * ny
    (f0x, f1x, f2x, f3x, f4x, f5x, f6x), (f0y, f1y, f2y, f3y, f4y, f5y, f6y) = F
    c0 = nx * f0x + ny * f0y
    c1 = nx * f1x + ny * f1y
    c2 = nx * f2x + ny * f2y
    c3 = nx * f3x + ny * f3y
    c4 = nx * f4x + ny * f4y
    c5 = nx * f5x + ny * f5y
    c6 = nx * f6x + ny * f6y
    ruled_out = ((((g0 > 0) & (g1 > 0)) | ((g0 < 0) & (g1 < 0)))
                 & (abs(g0) > abs(c0) + abs(c1) + abs(c2) + abs(c3) + abs(c4) + abs(c5) + abs(c6)))
    return g0, g1, (c0, c1, c2, c3, c4, c5, c6), ruled_out


def _off_segment(y_old, F, bx, by, tx, ty, half):
    """Whether no point of the step from y_old with dense output coefficients
    F, at any s in [0, 1], can pass _step_crossing's segment test
    |(p - b) . t| <= half; on floats and, entry by entry, on lane arrays.

    With t a unit vector, the tangent coordinate of the interpolant is
    u0 + sum_i d_i s^a (1 - s)^b (see _line_roots), u0 = t . (y_old - b),
    d_i = t . F_i, so its modulus is at least |u0| - sum_i |d_i| for any s
    and 1 - s, rounded or not, in [0, 1]. Rounding in the interpolant
    (_interpolant), the test and this bound stays below a hundred
    units of 2^-53 times 1 + half + |bx| + |by| + |x_old - bx| + |y_old - by|
    + sum_i (|F_ix| + |F_iy|): the margin is 2^-40 times that. NaN or inf
    rules nothing out.
    """
    x, y = y_old
    ex, ey = x - bx, y - by
    # added left to right, as sum() does not on floats from Python 3.12 on
    spread = size = 0.0
    for u, v in zip(*F):
        spread = spread + abs(tx * u + ty * v)
        size = size + abs(u) + abs(v)
    margin = 2.0 ** -40 * (1 + half + abs(bx) + abs(by) + abs(ex) + abs(ey) + size)
    return abs(ex * tx + ey * ty) - spread > half + margin


def _line_roots(y_old, y_new, F, bx, by, nx, ny, segment=None):
    """Ascending s in [0, 1] where the interpolant of the step from y_old to
    y_new with dense output coefficients F crosses the section line.

    With s = (t - t_old) / h the normal coordinate of the interpolant is
    g(s) = g0 + sum_i c_i s^a (1 - s)^b, c_i = n . F_i, a degree-7 polynomial;
    F_i multiplies s^a (1 - s)^b with (a, b) = (1, 0), (1, 1), (2, 1),
    (2, 2), (3, 2), (3, 3), (4, 3) for i = 0..6. Each product lies in
    [0, 1], so |g0| > sum_i |c_i| rules a step out when both ends lie on one
    side. Otherwise the roots come from g's Bernstein coefficients on [0, 1]
    (see _bernstein_roots): the j-th is g0 + sum_i c_i C(7-a-b, j-a) / C(7, j),
    summed in the order of i, where the products with a nonzero weight,
    a <= j <= 7 - b, are the ones written out below. The end values g0 and
    g1 are taken from the step's end points themselves, so a step and the
    next one agree on the sign where they meet.

    With segment = (tx, ty, half), a step that passes this screen has no
    roots either when _off_segment says none of its points can lie on the
    segment, as at the line's far crossing on the other side of a cycle.
    """
    g0, g1, c, ruled_out = _line_screen(y_old, y_new, F, bx, by, nx, ny)
    if ruled_out or segment is not None and _off_segment(y_old, F, bx, by, *segment):
        return []
    return _bernstein_roots(_line_bernstein(g0, g1, c))


def _line_bernstein(g0, g1, c):
    """The Bernstein coefficients of g on [0, 1] (see _line_roots); on floats
    and, entry by entry, on lane arrays."""
    c0, c1, c2, c3, c4, c5, c6 = c
    return (
        g0,
        g0 + (c0 * (1 / 7) + c1 * (1 / 7)),
        g0 + (c0 * (2 / 7) + c1 * (5 / 21) + c2 * (1 / 21) + c3 * (1 / 21)),
        g0 + (c0 * (3 / 7) + c1 * (2 / 7) + c2 * (4 / 35) + c3 * (3 / 35) + c4 * (1 / 35)
              + c5 * (1 / 35)),
        g0 + (c0 * (4 / 7) + c1 * (2 / 7) + c2 * (6 / 35) + c3 * (3 / 35) + c4 * (2 / 35)
              + c5 * (1 / 35) + c6 * (1 / 35)),
        g0 + (c0 * (5 / 7) + c1 * (5 / 21) + c2 * (4 / 21) + c3 * (1 / 21) + c4 * (1 / 21)),
        g0 + (c0 * (6 / 7) + c1 * (1 / 7) + c2 * (1 / 7)),
        g1)


def _bernstein_roots(b):
    """Ascending s in [0, 1] where the polynomial with Bernstein coefficients b
    on [0, 1] changes sign, plus exact zeros at s = 0 and s = 1.

    A polynomial has at most as many roots in (0, 1) as its Bernstein
    coefficients have sign changes, and the same number modulo 2. So where
    they share one strict sign there is no root, and where they change sign
    once there is exactly one, solved by _single_root. Anything else is
    halved (de Casteljau) until it is one of these or narrower than
    _ROOT_RESOLUTION; there an odd count is one crossing and an even count a
    touch, which is no crossing.
    """
    roots = [0.0] if b[0] == 0 else []
    if b[-1] == 0:
        roots.append(1.0)
    pieces = [(0.0, 1.0, b)]
    while pieces:
        lo, hi, piece = pieces.pop()
        changes = _sign_changes(piece)
        if changes == 0:
            continue
        if changes == 1 or hi - lo < _ROOT_RESOLUTION:
            if changes % 2:
                roots.append(lo + (hi - lo) * _single_root(piece))
            continue
        left, right = _halves(piece)
        mid = 0.5 * (lo + hi)
        if left[-1] == 0:
            roots.append(mid)
        pieces += [(lo, mid, left), (mid, hi, right)]
    return sorted(roots)


def _sign_changes(b):
    """Sign changes along b, zeros skipped."""
    count, last = 0, 0.0
    for v in b:
        if v != 0:
            if last != 0 and (v < 0) != (last < 0):
                count += 1
            last = v
    return count


def _halves(b):
    """Bernstein coefficients of the same polynomial on [0, 1/2] and [1/2, 1]."""
    left, right, w = [b[0]], [b[-1]], b
    while len(w) > 1:
        w = [0.5 * (p + q) for p, q in zip(w, w[1:])]
        left.append(w[0])
        right.append(w[-1])
    right.reverse()
    return left, right


def _value_slope(b, u):
    """The polynomial with the eight Bernstein coefficients b on [0, 1] and
    its derivative at u, by de Casteljau's algorithm written out for degree
    7, the degree of every crossing polynomial; on floats and, with b's rows
    and u lane arrays, entry by entry."""
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    v = 1 - u
    b0, b1, b2, b3, b4, b5, b6 = (b0 * v + b1 * u, b1 * v + b2 * u, b2 * v + b3 * u,
                                  b3 * v + b4 * u, b4 * v + b5 * u, b5 * v + b6 * u,
                                  b6 * v + b7 * u)
    b0, b1, b2, b3, b4, b5 = (b0 * v + b1 * u, b1 * v + b2 * u, b2 * v + b3 * u,
                              b3 * v + b4 * u, b4 * v + b5 * u, b5 * v + b6 * u)
    b0, b1, b2, b3, b4 = (b0 * v + b1 * u, b1 * v + b2 * u, b2 * v + b3 * u,
                          b3 * v + b4 * u, b4 * v + b5 * u)
    b0, b1, b2, b3 = b0 * v + b1 * u, b1 * v + b2 * u, b2 * v + b3 * u, b3 * v + b4 * u
    b0, b1, b2 = b0 * v + b1 * u, b1 * v + b2 * u, b2 * v + b3 * u
    b0, b1 = b0 * v + b1 * u, b1 * v + b2 * u
    return b0 * v + b1 * u, 7 * (b1 - b0)


def _single_root(b):
    """The root in (0, 1) of the polynomial with Bernstein coefficients b,
    whose first and last nonzero coefficients differ in sign: Newton's
    method kept inside a shrinking bracket, bisecting whenever Newton would
    leave it, started where the coefficients' control polygon crosses zero.
    """
    negative_at_lo = next(v for v in b if v != 0) < 0
    n = len(b) - 1
    u = next(((i + p / (p - q)) / n for i, (p, q) in enumerate(zip(b, b[1:])) if p * q < 0),
             0.5)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        g, slope = _value_slope(b, u)
        if g == 0:
            return u
        if (g < 0) == negative_at_lo:
            lo = u
        else:
            hi = u
        u_next = u - g / slope if slope != 0 else lo
        if abs(u_next - u) <= 2.0 ** -53:
            return min(max(u_next, lo), hi)
        if not lo < u_next < hi:
            u_next = 0.5 * (lo + hi)
        if hi - lo <= 2.0 ** -52:
            return u_next
        u = u_next
    return u


def _single_roots(b):
    """_single_root of every column of b, an (n + 1, lanes) array whose
    columns change sign once: Newton's method in a shrinking bracket with
    _single_root's operations and tests in its order, on lane arrays."""
    lanes = np.arange(b.shape[1])
    negative_at_lo = b[(b != 0).argmax(0), lanes] < 0
    p, q = b[:-1], b[1:]
    crossing = p * q < 0
    i = crossing.argmax(0)
    p, q = p[i, lanes], q[i, lanes]
    out = np.empty(lanes.size)
    # the unused sides of each np.where below may divide by zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.where(crossing.any(0), (i + p / (p - q)) / (len(b) - 1), 0.5)
        lo, hi = np.zeros(lanes.size), np.ones(lanes.size)
        for _ in range(100):
            if not lanes.size:
                break
            g, slope = _value_slope(b, u)
            lower = (g < 0) == negative_at_lo
            lo, hi = np.where(lower, u, lo), np.where(lower, hi, u)
            u_next = np.where(slope != 0, u - g / slope, lo)
            # min(max(u_next, lo), hi) as Python takes it
            clamped = np.where(lo > u_next, lo, u_next)
            clamped = np.where(hi < clamped, hi, clamped)
            converged = abs(u_next - u) <= 2.0 ** -53
            u_next = np.where((lo < u_next) & (u_next < hi), u_next, 0.5 * (lo + hi))
            zero = g == 0
            ended = zero | converged | (hi - lo <= 2.0 ** -52)
            out[lanes[ended]] = np.where(zero, u, np.where(converged, clamped, u_next))[ended]
            running = ~ended
            b, u, lo, hi, negative_at_lo, lanes = (
                b[:, running], u_next[running], lo[running], hi[running],
                negative_at_lo[running], lanes[running])
        out[lanes] = u
    return out


def _lane_roots(b):
    """_bernstein_roots of every column of b, an (n + 1, lanes) array, as a
    list whose k-th entry (columns, s) holds the k-th root of each column
    that has one.

    A column without a sign change has its roots at the exact zeros s = 0
    and s = 1, one with a sign change these and _single_roots' root between
    them. Columns with more sign changes go through _bernstein_roots one by
    one.
    """
    nonzero, negative = b != 0, b < 0
    # _sign_changes of every column: zeros skipped, NaN counted as positive
    changes = np.zeros(b.shape[1], dtype=int)
    seen, last = nonzero[0], negative[0]
    for nz, neg in zip(nonzero[1:], negative[1:]):
        changes += nz & seen & (neg != last)
        seen, last = seen | nz, np.where(nz, neg, last)
    at_lo = ~nonzero[0] & (changes < 2)
    at_hi = np.flatnonzero(~nonzero[-1] & (changes < 2))
    one = np.flatnonzero(changes == 1)
    cols = [np.flatnonzero(at_lo), one, at_hi]
    # _bernstein_roots takes lo + (hi - lo) * u = 0.0 + 1.0 * u on [0, 1],
    # which is u, as _single_root never returns -0.0
    s = [np.zeros(cols[0].size), _single_roots(b[:, one]), np.ones(at_hi.size)]
    rank = [np.zeros(cols[0].size, dtype=int), at_lo[one].astype(int),
            at_lo[at_hi].astype(int) + (changes[at_hi] == 1)]
    for j in np.flatnonzero(changes > 1).tolist():
        roots = _bernstein_roots(b[:, j].tolist())
        cols.append(np.full(len(roots), j))
        s.append(np.array(roots, dtype=float))
        rank.append(np.arange(len(roots)))
    cols, s, rank = (np.concatenate(v) for v in (cols, s, rank))
    return [(cols[rank == k], s[rank == k]) for k in range(rank.max(initial=-1) + 1)]


def _step_crossing(t_old, h, y_old, y_new, F, f, geometry, direction_sign, t_offset):
    """The first crossing that next_section_crossing counts in the step of
    size h from (t_old, y_old) to y_new with dense output coefficients F, as
    (t_star, point), or None, which a step that meets the section line only
    off the segment (_off_segment) gives before any root is solved."""
    bx, by, nx, ny, tx, ty, half = geometry
    x, y = y_old
    for s in _line_roots(y_old, y_new, F, bx, by, nx, ny, (tx, ty, half)):
        t_star = t_old + s * h
        px, py = _interpolant(F, x, y, s)
        if t_star > t_offset and abs((px - bx) * tx + (py - by) * ty) <= half:
            u, v = f(px, py)
            if np.sign(u * nx + v * ny) == np.sign(direction_sign):
                return t_star, np.array([px, py])
    return None


def _crossing_orbit(X, x0, section, direction_sign, t_max, tol, t_offset):
    """next_section_crossing's (t_star, point), plus the orbit up to the crossing step."""
    f = X.rhs()
    steps = []
    t_star, p = _advance(f, *_start(f, x0, t_max, tol), t_max, tol, steps,
                         (section.geometry, direction_sign, t_offset))
    return t_star, p, _orbit(x0, steps)


def next_section_crossing(
    X,
    x0,
    section,
    direction_sign: int = +1,
    t_max: float = 200.0,
    tol: float = DEFAULT_TOL,
    t_offset: float = 0.0,
    _kept: list | None = None,
):
    """First crossing of the section segment with the requested sign.

    ``section`` needs the attribute geometry, the segment as the floats
    (bx, by, nx, ny, tx, ty, half): its middle b, unit normal n, unit
    tangent t and half-length (cycles.Section). A crossing counts when the
    orbit meets the segment with sign(velocity . n) equal to direction_sign,
    at a time strictly greater than t_offset. The hit time is the exact root
    of the step's dense interpolant on the section line.

    Returns (t_star, point). Raises ValueError unless t_max > 0, tol > 0 and
    x0 is finite, and an OrbitFailure: NoCrossing, Divergence or StepUnderflow.
    A caller that wants the orbit (see _crossing_orbit) hands over the
    private list _kept, which the steps are appended to up to the crossing
    step.
    """
    f = X.rhs()
    return _advance(f, *_start(f, x0, t_max, tol), t_max, tol, _kept,
                    (section.geometry, direction_sign, t_offset))


def next_section_crossings(rows, section, t_max: float = 200.0, tol: float = DEFAULT_TOL,
                           t_offset: float = 0.0, *, _groups=None) -> list[list]:
    """next_section_crossing along rows of lanes (X, x0, direction_sign[, kept]), all at once.

    Returns per row what a loop over its lanes would collect until the first
    OrbitFailure: each lane's (t_star, point) in order, ending with that
    failure if one occurs, all bit for bit as next_section_crossing gives
    them. Lanes whose fields share their monomials (field.lane_evaluators)
    start and step in lockstep as NumPy arrays with one entry per lane,
    through the crossing kernels the scalar driver runs on floats
    (_interpolant, _line_screen, _off_segment, _line_bernstein and
    _value_slope) and the lane kernels paired with its others: _lane_attempt
    for _attempt, _lane_dense for _dense, _initial_steps for _initial_step
    and _controls for _control; _lane_roots solves the steps for their
    crossings on the arrays too. Each lane keeps its own time, step size,
    rejection flag and step count, and leaves the arrays at its crossing, or
    when it is about to fail: the scalar driver then continues from its
    state and raises the failure, and the later lanes of its row are
    dropped. Once fewer than _LOCKSTEP_MIN_LANES lanes run, or after
    _LOCKSTEP_MAX_ATTEMPTS attempts, the lanes left continue on the scalar
    driver, row by row. Every lane's scalar work runs on its field's
    evaluator from lane_evaluators, so no field builds its own rhs(). A
    caller that has grouped the fields already hands them over as the
    private _groups = (fields, lane_evaluators(fields)), fields holding every
    lane's field, so they are grouped once. A lane that asks for its steps
    hands over the private list kept, as next_section_crossing's _kept:
    the steps it takes in lockstep go in first, as one _Trail that _orbit
    builds into _Steps only when it makes the lane's orbit, and the scalar
    driver appends its own after them.
    Raises ValueError unless t_max > 0, tol > 0 and every x0 is finite.
    """
    if _groups is None:
        fields = list({id(lane[0]): lane[0] for row in rows for lane in row}.values())
        _groups = fields, lane_evaluators(fields)
    fields, groups = _groups
    # lane i is row r's k-th: (r, k, X, x0, direction_sign, kept), X being
    # fields[field_of[i]] and kept the lane's list of steps or None
    lanes = [(r, k, *lane[:3], lane[3] if len(lane) > 3 else None)
             for r, row in enumerate(rows) for k, lane in enumerate(row)]
    index = {id(X): m for m, X in enumerate(fields)}
    field_of = [index[id(lane[2])] for lane in lanes]
    rhs = [None] * len(fields)
    for members, select in groups:
        for k, m in enumerate(members):
            rhs[m] = fields[m].rhs() if select is None else select(k)
    found: dict = {}  # (r, k) -> (t_star, point) or the failure
    cut = [len(row) for row in rows]  # the first failing position of each row so far

    def finish(i, state):
        r, k, _, _, sign, kept = lanes[i]
        try:
            found[r, k] = _advance(rhs[field_of[i]], *state, t_max, tol, kept,
                                   (section.geometry, sign, t_offset))
        except OrbitFailure as exc:
            found[r, k] = exc
            cut[r] = min(cut[r], k)

    for members, select in groups:
        member = dict(zip(members, range(len(members))))
        group = [i for i, m in enumerate(field_of) if m in member]
        if select is not None and len(group) >= _LOCKSTEP_MIN_LANES:
            running = _lockstep(select, [member[field_of[i]] for i in group], lanes, group,
                                section.geometry, t_max, t_offset, tol, found, cut, finish)
        else:
            running = [(i, _start(rhs[field_of[i]], lanes[i][3], t_max, tol)) for i in group]
        for i, state in sorted(running):
            r, k = lanes[i][:2]
            if k < cut[r]:
                finish(i, state)
    return [[found[r, k] for k in range(min(cut[r] + 1, len(row)))]
            for r, row in enumerate(rows)]


def _lockstep(select, member, lanes, group, geometry, t_max, t_offset, tol, found, cut, finish):
    """Steps one group of next_section_crossings' lanes together.

    group lists the lanes' indices in lane order, member each lane's
    position in the group, and select gives the group's RHS on lane arrays
    and, by position, on floats. The lanes start on the arrays with _start's
    bits (_initial_steps), or raise the error that _start raises first in
    lane order. An attempt searches its steps for crossings only when the
    line and segment screens leave it a lane to search, and evaluates the
    crossing signs only of roots that lie on the segment. Crossings go into
    found by (row, position), and a lane about to fail goes to finish with
    its stepper state. A lane that keeps its steps gets its _Trail, and each
    attempt in which one of those lanes stepped keeps its arrays in the
    trails' records, which _Trail.steps() gathers from.
    Returns the lanes left running, with their states.
    """
    bx, by, nx, ny, tx, ty, half = geometry
    ids = np.array(group)
    row, col = (np.array([lanes[i][k] for i in group]) for k in (0, 1))
    direction = np.sign(np.array([lanes[i][4] for i in group], dtype=float))
    # the steps of the lanes that keep theirs, one record per attempt (_Trail)
    keeps = np.array([lanes[i][5] is not None for i in group])
    records = []
    for i, m in zip(group, member):
        if lanes[i][5] is not None:
            lanes[i][5].append(_Trail(records, i, select, m))
    member = np.array(member)
    # the lanes' points (x, y) as the rows of z, and f there as k1's
    z = np.array([[float(lanes[i][3][k]) for i in group] for k in (0, 1)])
    finite = np.isfinite(z).all(0)
    if not (t_max > 0 and tol > 0 and finite.all()):
        # the scalar starts in lane order raise by the first bad lane
        for j in range(int((~finite).argmax()) + 1):
            _start(select(int(member[j])), lanes[group[j]][3], t_max, tol)
    f = select(member)
    t, rejected, taken = np.zeros(ids.size), np.zeros(ids.size, dtype=bool), np.zeros_like(ids)

    def state(j):
        return (int(ids[j]), (float(t[j]), float(z[0, j]), float(z[1, j]), float(k1[0, j]),
                              float(k1[1, j]), float(h_abs[j]), bool(rejected[j]), int(taken[j])))

    # overflow in an attempt that will be rejected stays silent, as on floats
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(z[0], z[1])
        h_abs = _initial_steps(f, z[0], z[1], k1[0], k1[1], t_max, tol)
        for _ in range(_LOCKSTEP_MAX_ATTEMPTS):
            fresh = ~rejected
            min_step = 10 * (np.nextafter(t, np.inf) - t)
            h_try = np.where(fresh & (min_step > h_abs), min_step, h_abs)
            ending = (fresh & ((taken == _MAX_STEPS) | (t >= t_max))) | ~(h_try >= min_step)
            t_new = np.minimum(t + h_try, t_max)
            h = t_new - t
            z_new, K, e5, e3 = _lane_attempt(f, z, k1, h)
            # Python's max(a, b) is a unless b > a; a = |x| is never nan
            scale = tol + np.fmax(abs(z), abs(z_new)) * tol
            accepted, h_next = _controls(abs(h), *(e5 / scale), *(e3 / scale), rejected)
            # a step out of the safety box is taken again by the scalar driver
            ending |= accepted & (abs(z_new) > _SAFETY_BOX).any(0)
            stepped = accepted & ~ending
            done = ending.copy()
            if stepped.any():
                F = _lane_dense(f, h, z, z_new, K)
                held = np.flatnonzero(stepped & keeps)
                if held.size:
                    records.append((held, ids, t, t_new, z, z_new, K, F))
                g0, g1, c, ruled_out = _line_screen(z, z_new, F, bx, by, nx, ny)
                # _step_crossing on every lane that might cross the segment:
                # its roots in ascending order until one lies on the segment
                # after t_offset with the requested direction
                searched = np.flatnonzero(stepped & ~ruled_out)
                if searched.size:
                    searched = searched[~_off_segment(z[:, searched], F[:, :, searched],
                                                      bx, by, tx, ty, half)]
                roots = []
                if searched.size:
                    roots = _lane_roots(np.array(_line_bernstein(g0[searched], g1[searched],
                                                                 [ci[searched] for ci in c])))
                for cols, s in roots:
                    lane = searched[cols]
                    unhit = ~done[lane]
                    lane, s = lane[unhit], s[unhit]
                    t_star = t[lane] + s * h[lane]
                    px, py = _interpolant(F[:, :, lane], z[0, lane], z[1, lane], s)
                    near = (t_star > t_offset) & (abs((px - bx) * tx + (py - by) * ty) <= half)
                    lane, t_star, px, py = lane[near], t_star[near], px[near], py[near]
                    if not lane.size:
                        continue
                    u, v = select(member[lane])(px, py)
                    hit = np.sign(u * nx + v * ny) == direction[lane]
                    for j, t_hit, p_x, p_y in zip(lane[hit].tolist(), t_star[hit].tolist(),
                                                  px[hit].tolist(), py[hit].tolist()):
                        found[tuple(lanes[ids[j]][:2])] = (t_hit, np.array([p_x, p_y]))
                    done[lane[hit]] = True
            for j in np.flatnonzero(ending).tolist():
                finish(*state(j))
            if ending.any():
                # a row ends at its first failure
                done |= col > np.array(cut)[row]
            t, z, k1 = (np.where(stepped, t_new, t), np.where(stepped, z_new, z),
                        np.where(stepped, K[12], k1))
            h_abs, rejected, taken = h_next, ~accepted, taken + stepped
            if done.any():
                keep = ~done
                z, k1 = z[:, keep], k1[:, keep]
                t, h_abs, rejected, taken, ids, row, col, direction, member, keeps = (
                    v[keep] for v in (t, h_abs, rejected, taken, ids, row, col, direction,
                                      member, keeps))
                if ids.size < _LOCKSTEP_MIN_LANES:
                    break
                f = select(member)
    return [state(j) for j in range(ids.size)]
