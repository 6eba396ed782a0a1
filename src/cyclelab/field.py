"""Planar polynomial vector fields and their perturbation families.

A PolyVectorField is a pair (P, Q) of monomial polynomials. The two structured
perturbations studied here are the rotated family

    (P - lam*eps*Q, Q + lam*eps*P)

which turns the field pointwise without moving its zeros, and the
gradient-collapse family

    (P + lam*R*dR/dx, Q + lam*R*dR/dy)

which adds lam/2 times the gradient of R^2; when R vanishes on a periodic
orbit the orbit survives and its characteristic exponent picks up
lam * integral(|grad R|^2). A monomial R (a poly2.Poly2) is multiplied
out into a PolyVectorField. A Bernstein R (a bernstein.BernsteinPoly, the
high-degree fit of a sampled vanishing function) gives a CollapseField,
which evaluates R, R_x and R_y and combines their values, so no product of
Bernstein polynomials is ever formed. Both kinds of R are differentiated
through their own derivative method.

The Whitney-style distance used throughout is the sampled max over a compact
box of all partial-derivative differences up to a given order, with the
Euclidean norm on vector values.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bernstein import BernsteinPoly, jets, mesh
from .poly2 import Poly2, _compiled, add, mul, parse_poly, scale


@dataclass(frozen=True)
class PolyVectorField:
    P: Poly2
    Q: Poly2

    def __post_init__(self):
        if not (isinstance(self.P, Poly2) and isinstance(self.Q, Poly2)):
            raise TypeError("PolyVectorField takes two Poly2 (monomial) components")

    @property
    def degree(self) -> float:
        return max(self.P.degree, self.Q.degree)

    def __call__(self, x, y):
        return self.P(x, y), self.Q(x, y)

    def rhs(self):
        """The field as one function (x, y) -> (P(x, y), Q(x, y)) on floats.

        Built on the first call and kept with the field: the body compiled
        once per process for the field's nonzero monomials
        (poly2._compiled), bound to its coefficients, with P's and Q's bits.
        Fields with the same monomials share one body, and the lockstep
        driver binds that body for its lanes' fields itself
        (lane_evaluators), so it builds none of these.
        """
        return self._evaluator

    @cached_property
    def _key(self):
        """The nonzero monomials of P and of Q, each sorted: the key of the
        body that rhs() binds and of the field's lane_evaluators group."""
        return self.P._terms[0], self.Q._terms[0]

    @cached_property
    def _evaluator(self):
        return _compiled(self._key)(*self.P._terms[1], *self.Q._terms[1])

    def jacobian(self) -> tuple[Poly2, Poly2, Poly2, Poly2]:
        return (
            self.P.derivative("x"),
            self.P.derivative("y"),
            self.Q.derivative("x"),
            self.Q.derivative("y"),
        )


@dataclass(frozen=True)
class CollapseField:
    """X + lam*R*grad R for a Bernstein R: P + lam*(R*R_x), Q + lam*(R*R_y)
    from the values of R, R_x and R_y, never multiplied out. It has values
    (__call__), a float rhs() and a divergence (divergence()); no jacobian
    and no negation, as only the unperturbed X is differentiated or reversed.
    """

    X: PolyVectorField
    R: BernsteinPoly
    lam: float

    @cached_property
    def _gradient(self) -> tuple[BernsteinPoly, BernsteinPoly]:
        return self.R.derivative("x"), self.R.derivative("y")

    def __call__(self, x, y):
        Rx, Ry = self._gradient
        p, q = self.X(x, y)
        r = self.R(x, y)
        return p + self.lam * (r * Rx(x, y)), q + self.lam * (r * Ry(x, y))

    def rhs(self):
        """X.rhs() plus lam*(R*R_x, R*R_y) on floats, R, R_x and R_y from
        R.float_jet(); built once."""
        return self._evaluator

    @cached_property
    def _evaluator(self):
        f, jet, lam = self.X.rhs(), self.R.float_jet(), self.lam

        def rhs(x, y):
            p, q = f(x, y)
            r, rx, ry = jet(x, y)
            return p + lam * (r * rx), q + lam * (r * ry)

        return rhs


def lane_evaluators(fields) -> list[tuple[list[int], object]]:
    """The fields in groups that can be evaluated together: (members, select)
    pairs, members indexing fields.

    PolyVectorFields whose components are nonzero and have the same nonzero
    monomials (the same _key) form one group. Its select(k), k an int, is
    the right-hand side (x, y) -> (P, Q) of the field members[k] on floats:
    the group's body (poly2._compiled) bound to that field's coefficients,
    as its rhs() binds it. Its select(lanes), lanes an index array, is the
    right-hand side (x, y[, out]) -> (P, Q) as one (2, lanes) array, written
    into out when given, on arrays whose k-th entries belong to the field
    members[lanes[k]]: the dense Horner loops on the group's coefficients
    gathered for the lanes (_lane_plan, _lane_rhs). Every value, on floats
    as on arrays, has the bits of that field's rhs(). The other fields (a
    CollapseField, or a field with a zero component) form one group whose
    select is None.
    """
    groups: dict = {}
    for i, X in enumerate(fields):
        key = X._key if isinstance(X, PolyVectorField) and all(X._key) else None
        groups.setdefault(key, []).append(i)
    out = []
    for key, members in groups.items():
        if key is None:
            out.append((members, None))
            continue
        plan = _lane_plan(key)
        # one row per coefficient cell, one column per member; the rows of
        # the key's monomials are plan.support, the others hold 0.0
        rows = [fields[m].P._terms[1] + fields[m].Q._terms[1] for m in members]
        coeffs = np.zeros((len(plan.cells), len(members)))
        coeffs[plan.support] = np.array(rows).T

        def select(lanes, c=coeffs, plan=plan, rows=rows, make=_compiled(key)):
            if isinstance(lanes, int):
                return make(*rows[lanes])
            return _lane_rhs(c.take(lanes, axis=1), plan)

        out.append((members, select))
    return out


@dataclass(frozen=True)
class _LanePlan:
    """The dense Horner loops for the monomial fields with the nonzero monomials
    of one lane_evaluators key, as slices of (slots, lanes) arrays.

    A slot holds one column of one component: its terms with one power of
    y, for every power up to that component's degree in y, so a column
    without terms is a slot of zeros. A column's top is its highest power of
    x. In the x-phase the slots run by top, highest first, then by power of
    y, then P before Q, so the columns that have started by any power of x
    are the first slots. The y-phase steps P and Q in one slice pair per
    power of y where both have one: it runs on the x-phase's slots where
    their order already puts each power's P and Q columns side by side, as
    for a full field, and otherwise on the slots taken once into the order
    (P's top, Q's top, then the higher component's other columns down to
    the lower one's degree in y, then P's and Q's columns in pairs by
    power of y, highest first), so the component with the higher degree in
    y takes its extra steps alone first.

    cells: (c, i, j) for the coefficient of x^i y^j in component c (0 for P,
        1 for Q), one row of cells per power i of x from the highest down,
        each row one cell per column started by then, in slot order;
    support: the cells of the key's monomials, P's then Q's, in key order;
    x_rows: per power of x, highest first, (columns started before it,
        columns started by it, offset of its row of cells);
    reorder: the x-phase's slot of each y-phase slot, or None where the
        y-phase runs on the x-phase's slots;
    y_rows: per power of y below the highest, highest first, the
        (accumulators, columns) slice pairs of its Horner step;
    values: the y-phase slots that end with P's and Q's values.
    """

    cells: tuple
    support: np.ndarray
    slots: int
    x_rows: tuple
    reorder: np.ndarray | None
    y_rows: tuple
    values: tuple


@lru_cache(maxsize=64)
def _lane_plan(key) -> _LanePlan:
    """The _LanePlan of the monomial fields with the nonzero monomials
    key = (P's, Q's)."""
    tops = [{}, {}]  # per component: power of y -> top
    for c, monomials in enumerate(key):
        for i, j in monomials:
            tops[c][j] = max(tops[c].get(j, -1), i)
    dy = [max(top) for top in tops]
    order = sorted(((tops[c].get(j, -1), j, c) for c in (0, 1) for j in range(dy[c] + 1)),
                   key=lambda t: (-t[0], t[1], t[2]))
    slot = {(c, j): s for s, (_, j, c) in enumerate(order)}
    cells, x_rows = [], []
    for i in range(order[0][0], -1, -1):
        before = sum(top > i for top, _, _ in order)
        now = sum(top >= i for top, _, _ in order)
        x_rows.append((before, now, len(cells)))
        cells += [(c, i, j) for _, j, c in order[:now]]
    # each component's Horner in y accumulates in the slot of its top column,
    # and both run in one slice where their slots lie side by side
    # where the x-phase's order leaves a pair apart, the y-phase runs on the
    # slots taken once into pairs (see _LanePlan)
    low, high = min(dy), dy.index(max(dy))
    reorder = None
    if low and (slot[1, dy[1]] != slot[0, dy[0]] + 1
                or any(slot[1, j] != slot[0, j] + 1 for j in range(low))):
        paired = ([(0, dy[0]), (1, dy[1])] + [(high, j) for j in range(dy[high] - 1, low - 1, -1)]
                  + [(c, j) for j in range(low - 1, -1, -1) for c in (0, 1)])
        reorder = np.array([slot[c, j] for c, j in paired])
        slot = {cj: s for s, cj in enumerate(paired)}
    acc = [slot[0, dy[0]], slot[1, dy[1]]]
    y_rows = []
    for j in range(max(dy) - 1, -1, -1):
        running = [c for c in (0, 1) if dy[c] > j]
        if running == [0, 1] and acc[1] == acc[0] + 1 and slot[1, j] == slot[0, j] + 1:
            y_rows.append(((slice(acc[0], acc[0] + 2), slice(slot[0, j], slot[0, j] + 2)),))
        else:
            y_rows.append(tuple((slice(acc[c], acc[c] + 1), slice(slot[c, j], slot[c, j] + 1))
                                for c in running))
    index = {cell: n for n, cell in enumerate(cells)}
    support = np.array([index[c, i, j] for c, monomials in enumerate(key) for i, j in monomials])
    return _LanePlan(tuple(cells), support, len(order), tuple(x_rows), reorder, tuple(y_rows),
                     tuple(acc))


def _lane_rhs(coeffs, plan: _LanePlan):
    """The right-hand side on lane arrays from the coefficient cells gathered
    for the lanes, coeffs[n, k] the n-th cell of plan for lane k.

    The dense Horner loops in place: Horner in x over all started columns at
    once, then, after the plan's one reorder of the slots if it has one, in
    y over both components at once, one slice pair per power of y that both
    have, each column started at its own top coefficient and each component
    at its own top column, as rhs() starts them. rhs() leaves out the
    additions of zero coefficients, which here add 0.0 to a value that the
    next multiplication and nonzero coefficient, or rhs()'s closing + 0.0,
    make equal again: they change at most the sign of a zero. So every entry
    has rhs()'s bits at every point, -0.0, infinities and NaN included.
    When the last step in y is one pair, it adds into the result itself.
    On CK(3)'s key a call makes 33 NumPy operations, 14 of them in its 7
    steps in y, and takes about 12.3 us at 50 lanes; on the x-phase's slots
    it made 45, 26 of them in 13 steps, in about 15.5-16 us (2-vCPU Xeon VM,
    NumPy 2.4).
    """
    lanes = coeffs.shape[1]
    # V, and x and y copied into as many rows as one product needs, are
    # reused by every call: a product of same-shape arrays costs about half
    # of one that broadcasts a lane row over the rows (312 lanes)
    V = np.empty((plan.slots, lanes))
    W = V if plan.reorder is None else np.empty_like(V)
    X = np.empty((max(before for before, _, _ in plan.x_rows), lanes))
    Y = np.empty((2, lanes))
    x_rows = [(V[:before] if before else None, X[:before], V[:now], coeffs[at:at + now])
              for before, now, at in plan.x_rows]
    y_rows = [[(W[acc], Y[:acc.stop - acc.start], W[column]) for acc, column in row]
              for row in plan.y_rows]
    reorder, last = plan.reorder, None
    if y_rows and len(y_rows[-1]) == 1 and len(y_rows[-1][0][0]) == 2:
        # the last step in y is one pair, whose accumulators are the value
        # slots: it adds into the result in place of a copy after it
        *y_rows, (last,) = y_rows

    def rhs(x, y, out=None):
        """(P, Q) at the lanes' points as a (2, lanes) array, written into
        out when one is given."""
        V.fill(0.0)
        X[...] = x
        Y[...] = y
        for started, xs, columns, c in x_rows:
            if started is not None:
                started *= xs
            columns += c
        if reorder is not None:
            V.take(reorder, axis=0, out=W)
        for row in y_rows:
            for acc, ys, column in row:
                acc *= ys
                acc += column
        if last is None:
            return W.take(plan.values, axis=0, out=out)
        acc, ys, column = last
        acc *= ys
        return np.add(acc, column, out=out)

    return rhs


def divergence(X):
    """dP/dx + dQ/dy: exact, as a Poly2, for a PolyVectorField; for a
    CollapseField the function (x, y) -> div X + lam*(|grad R|^2 + R*lap R),
    its two collapse terms from collapse_integrands."""
    if isinstance(X, CollapseField):
        base = divergence(X.X)
        grad_square, r_laplacian = collapse_integrands(X.R)
        lam = X.lam
        return lambda x, y: base(x, y) + lam * (grad_square(x, y) + r_laplacian(x, y))
    return add(X.P.derivative("x"), X.Q.derivative("y"))


def collapse_integrands(R: Poly2 | BernsteinPoly):
    """(x, y) -> |grad R|^2 and (x, y) -> R*(Rxx + Ryy), whose sum is the
    divergence of R*grad R: CollapseField's divergence and
    cycles.divergence_integral_terms both take them from here."""
    Rx, Ry = R.derivative("x"), R.derivative("y")
    Rxx, Ryy = R.derivative("x", 2), R.derivative("y", 2)

    def grad_square(x, y):
        gx, gy = Rx(x, y), Ry(x, y)
        return gx * gx + gy * gy

    return grad_square, lambda x, y: R(x, y) * (Rxx(x, y) + Ryy(x, y))


def rotate_family(X: PolyVectorField, lam: float, eps: float = 1.0) -> PolyVectorField:
    """Rotated family (P - lam*eps*Q, Q + lam*eps*P).

    eps scales the rotation and lam in (-1, 1) is the path parameter; only
    the product lam*eps enters the dynamics. Keeping them separate avoids
    double-scaling mistakes in sweeps.
    """
    mu = lam * eps
    return PolyVectorField(
        add(X.P, scale(X.Q, -mu)),
        add(X.Q, scale(X.P, mu)),
    )


def gradient_collapse_family(X: PolyVectorField, R: Poly2 | BernsteinPoly, lam: float):
    """Family (P + lam*R*Rx, Q + lam*R*Ry). A monomial R is expanded into a
    PolyVectorField; a BernsteinPoly R gives a CollapseField, which evaluates
    R and its gradient and never multiplies them out."""
    if isinstance(R, BernsteinPoly):
        return CollapseField(X, R, lam)
    Rx = R.derivative("x")
    Ry = R.derivative("y")
    return PolyVectorField(
        add(X.P, scale(mul(R, Rx), lam)),
        add(X.Q, scale(mul(R, Ry), lam)),
    )


def cr_distance(
    X: PolyVectorField,
    Y: PolyVectorField,
    box,
    r: int = 1,
    grid_density: int = 61,
) -> float:
    """Sampled Whitney weak C^r distance between two fields over a box.

    max over the grid and all multi-indices |k| <= r of the Euclidean norm
    of (d^k P_X - d^k P_Y, d^k Q_X - d^k Q_Y). A pseudometric on sampled
    grids: symmetric, triangle inequality holds pointwise.
    """
    GX, GY = mesh(box, grid_density)
    px, qx, py, qy = (jets(p, r, GX, GY) for p in (X.P, X.Q, Y.P, Y.Q))
    return max(0.0, *(float(np.max(np.hypot(px[k] - py[k], qx[k] - qy[k]))) for k in px))


# ------------------------------------------------------------------ literals
_CK_RE = re.compile(r"^CK\((\d+)\)$")
_VDP_RE = re.compile(r"^vanderpol\(([-+0-9.eE]+)\)$")


def ck_system(k: int) -> PolyVectorField:
    """Canonical family (-y + x*s^k, x + y*s^k), s = 1 - x^2 - y^2.

    In polar form r' = r(1-r^2)^k, theta' = 1: the unit circle is a limit
    cycle of multiplicity k (hyperbolic and stable for k = 1, semi-stable
    for even k, non-hyperbolic stable for odd k >= 3).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = parse_poly("1 - x^2 - y^2")
    sk = Poly2.constant(1.0)
    for _ in range(k):
        sk = mul(sk, s)
    x, y = Poly2.variable("x"), Poly2.variable("y")
    return PolyVectorField(
        add(scale(y, -1.0), mul(x, sk)),
        add(x, mul(y, sk)),
    )


def vanderpol(mu: float = 1.0) -> PolyVectorField:
    """van der Pol oscillator (y, mu*(1-x^2)*y - x): a generic hyperbolic cycle."""
    x, y = Poly2.variable("x"), Poly2.variable("y")
    one_minus_x2 = parse_poly("1 - x^2")
    return PolyVectorField(y, add(scale(mul(one_minus_x2, y), mu), scale(x, -1.0)))


def parse_field(spec) -> PolyVectorField:
    """Build a field from a registry name or a pair of polynomial literals.

    Accepts "CK(k)", "vanderpol(mu)", or a mapping {"p": literal, "q": literal}.
    """
    if isinstance(spec, PolyVectorField):
        return spec
    if isinstance(spec, str):
        m = _CK_RE.match(spec.strip())
        if m:
            return ck_system(int(m.group(1)))
        m = _VDP_RE.match(spec.strip())
        if m:
            return vanderpol(float(m.group(1)))
        raise ValueError(f"unknown field literal {spec!r}")
    if isinstance(spec, dict) and set(spec) >= {"p", "q"}:
        return PolyVectorField(parse_poly(spec["p"]), parse_poly(spec["q"]))
    raise ValueError(f"cannot parse field spec {spec!r}")
