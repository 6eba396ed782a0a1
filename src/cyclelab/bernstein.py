"""Tensor-product Bernstein approximation of sampled scalar fields.

Builds the two-variable Bernstein polynomial from function samples on a box
and measures how fast it converges, together with all partial derivatives up
to a requested order, on a sampling grid. The degree search realizes the
"for every tolerance there is a degree" quantifier as a doubling-then-bisection
search along the diagonal m = n.

A BernsteinPoly, the fit, is for evaluation and differentiation only (its
derivative stays in the Bernstein basis; conversion to the monomial basis is
exponentially ill-conditioned). Evaluation uses the multiplicative basis
recurrence, free of cancellation, so it stays valid slightly outside the box.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .poly2 import _axis_index

# grid density is odd by default so symmetric boxes sample their center exactly
DEFAULT_GRID_DENSITY = 101


class DegenerateBox(Exception):
    """Box with a >= b or c >= d."""


def _check_box(box) -> tuple[float, float, float, float]:
    ax, bx, ay, by = (float(v) for v in box)
    if not (ax < bx and ay < by):
        raise DegenerateBox(f"degenerate box {box!r}")
    return ax, bx, ay, by


def _power(b, m: int):
    """b**m by repeated squaring, for a float or elementwise for an array.

    Both take the same multiplications, so a float and an array entry round
    alike; NumPy's vectorised power and Python's ** can differ in the last
    bit.
    """
    out = 1.0
    while m:
        if m & 1:
            out = out * b
        m >>= 1
        if m:
            b = b * b
    return out


def _basis_row_scalar(m: int, u: float) -> np.ndarray:
    """Scalar fast path of bernstein_basis_row, for one float u.

    The running product b^m * f_0 * f_1 * ... is one sequential cumprod over
    [b^m, f_0, ..., f_{m-1}], so every entry is rounded exactly as in the
    one-at-a-time recurrence. b is the larger of u and 1-u in magnitude, so it
    is at least 1/2 for finite u and never zero.
    """
    v = 1.0 - u
    flip = abs(u) > abs(v)
    a, b = (v, u) if flip else (u, v)
    i = np.arange(m, dtype=float)
    out = np.empty(m + 1)
    out[0] = _power(b, m)
    out[1:] = (m - i) / (i + 1.0) * (a / b)
    np.multiply.accumulate(out, out=out)
    return out[::-1].copy() if flip else out


def bernstein_basis_row(m: int, u) -> np.ndarray:
    """Values of the m+1 degree-m Bernstein basis functions at points u.

    Computed by the direction-switched multiplicative recurrence
    b_{i+1} = b_i * ((m-i)/(i+1)) * (u/(1-u)); every value is a product of
    exact ratios, so there is no cancellation and the relative error stays
    at O(m * eps) for any real u (including outside [0, 1]). Each row has
    the bits of _basis_row_scalar at its point, which serves a single point.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.size == 1:
        return _basis_row_scalar(m, float(u[0]))[None, :]
    v = 1.0 - u
    flip = np.abs(u) > np.abs(v)
    a, b = np.where(flip, v, u), np.where(flip, u, v)
    i = np.arange(m, dtype=float)
    # one column per point: the running products walk contiguous rows
    C = np.empty((m + 1, u.size))
    C[0] = _power(b, m)
    np.multiply(((m - i) / (i + 1.0))[:, None], a / b, out=C[1:])
    np.multiply.accumulate(C, axis=0, out=C)
    return np.where(flip, C[::-1], C).T


@dataclass(frozen=True)
class BernsteinPoly:
    """Immutable tensor-product Bernstein polynomial: grid[i, j] is the
    coefficient of the i-th degree-m basis function in x times the j-th
    degree-n one in y, both on box = (ax, bx, ay, by)."""

    grid: np.ndarray
    box: tuple[float, float, float, float]

    def __post_init__(self):
        g = np.array(self.grid, dtype=float)
        if g.ndim != 2:
            raise ValueError("bernstein grid must be 2-d")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "box", _check_box(self.box))

    def __call__(self, x, y):
        """Values at (x, y), scalars or broadcasting arrays; a float for
        scalar input."""
        ax, bx, ay, by = self.box
        u = (np.asarray(x, dtype=float) - ax) / (bx - ax)
        v = (np.asarray(y, dtype=float) - ay) / (by - ay)
        shape = np.broadcast_shapes(u.shape, v.shape)
        u = np.broadcast_to(u, shape).ravel()
        v = np.broadcast_to(v, shape).ravel()
        m, n = (k - 1 for k in self.grid.shape)
        Bu = bernstein_basis_row(m, u)
        Bv = bernstein_basis_row(n, v)
        vals = np.sum((Bu @ self.grid) * Bv, axis=1)
        if shape == ():
            return float(vals[0])
        return vals.reshape(shape)

    def derivative(self, axis: str, order: int = 1) -> "BernsteinPoly":
        """Exact partial derivative along 'x' or 'y', differentiated
        basis-natively (degree drops by one per order, no conversion)."""
        k = _axis_index(axis, order)
        width = self.box[2 * k + 1] - self.box[2 * k]
        g = self.grid
        for _ in range(order):
            m = g.shape[k] - 1
            # degree 0 along the axis: the derivative is 0, on a grid of g's shape
            g = m * np.diff(g, axis=k) / width if m else np.zeros_like(g)
        return BernsteinPoly(g, self.box)

    def float_jet(self):
        """The function (x, y) -> (R, R_x, R_y) on floats, R this polynomial:
        each value one row @ grid @ row product of basis rows
        (_basis_row_scalar), the gradient's on the derivative grids."""
        G, Gx, Gy = self.grid, self.derivative("x").grid, self.derivative("y").grid
        (m, n), mx, ny = (k - 1 for k in G.shape), Gx.shape[0] - 1, Gy.shape[1] - 1
        ax, bx, ay, by = self.box
        wx, wy = bx - ax, by - ay

        def jet(x, y):
            u = (x - ax) / wx
            v = (y - ay) / wy
            bu, bv = _basis_row_scalar(m, u), _basis_row_scalar(n, v)
            return (float(bu @ G @ bv), float(_basis_row_scalar(mx, u) @ Gx @ bv),
                    float(bu @ Gy @ _basis_row_scalar(ny, v)))

        return jet


class InsufficientDerivatives(Exception):
    """The sampled field does not provide derivatives up to the needed order."""


class CapExceeded(Exception):
    """Degree search hit the cap; carries the best error map achieved."""

    def __init__(self, cap, best_errors):
        super().__init__(f"no degree <= {cap} met the tolerance")
        self.cap = cap
        self.best_errors = best_errors


@dataclass
class SampledField:
    """Scalar function of two variables with the partial derivatives it supplies.

    ``value`` must accept numpy arrays. Derivative callables are supplied in
    ``derivs`` keyed by (i, j); asking for one that is not supplied raises
    InsufficientDerivatives. Nothing is differenced numerically.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    box: tuple[float, float, float, float]
    derivs: dict[tuple[int, int], Callable] = field(default_factory=dict)

    @property
    def r_max(self) -> int:
        """The highest order r up to which every derivative is supplied."""
        r = 0
        while all((i, r + 1 - i) in self.derivs for i in range(r + 2)):
            r += 1
        return r

    def derivative(self, i: int, j: int, x, y):
        if (i, j) in self.derivs:
            return self.derivs[(i, j)](x, y)
        if i + j == 0:
            return self.value(x, y)
        raise InsufficientDerivatives(f"derivative {(i, j)} is not supplied")


def bernstein_fit(f: SampledField, m: int, n: int, box=None) -> BernsteinPoly:
    """Bernstein polynomial of degree (m, n) for f on box.

    The coefficient grid is exactly f sampled at the affine images of the
    uniform nodes (i/m, j/n), which on [0,1]^2 is the classical operator

        sum_{i,j} f(i/m, j/n) C(m,i) C(n,j) x^i (1-x)^(m-i) y^j (1-y)^(n-j).
    """
    if m < 1 or n < 1:
        raise ValueError("degrees must be positive")
    box = tuple(box) if box is not None else tuple(f.box)
    ax, bx, ay, by = box
    xs = ax + (bx - ax) * np.arange(m + 1) / m
    ys = ay + (by - ay) * np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = np.asarray(f.value(X, Y), dtype=float)
    return BernsteinPoly(grid, box)


def mesh(box, density: int):
    """The density x density sampling grid of a box, as 'ij'-indexed (X, Y)."""
    ax, bx, ay, by = box
    return np.meshgrid(np.linspace(ax, bx, density), np.linspace(ay, by, density),
                       indexing="ij")


def jets(f, r: int, X, Y) -> dict[tuple[int, int], np.ndarray]:
    """Every partial derivative d^(i+j) f / dx^i dy^j with i + j <= r at (X, Y).

    Keys run by total order, then by i: (0, 0), (0, 1), (1, 0), (0, 2), ...
    A SampledField answers through its own ``derivative(i, j, X, Y)``; a
    Poly2 or BernsteinPoly takes each derivative once, from the one before it
    (x first, then y), which gives the same polynomials as nested calls.
    """
    keys = [(i, t - i) for t in range(r + 1) for i in range(t + 1)]
    if isinstance(f, SampledField):
        return {(i, j): np.asarray(f.derivative(i, j, X, Y), dtype=float) for i, j in keys}
    polys = {(0, 0): f}
    for i, j in keys[1:]:
        polys[(i, j)] = (polys[(i, j - 1)].derivative("y") if j
                         else polys[(i - 1, 0)].derivative("x"))
    return {k: p(X, Y) for k, p in polys.items()}


def _jet_errors(b: BernsteinPoly, r: int, X, Y, target) -> dict[tuple[int, int], float]:
    """max |d^k b - target[k]| over the grid for every |k| <= r."""
    return {k: float(np.max(np.abs(v - target[k]))) for k, v in jets(b, r, X, Y).items()}


def cr_error(
    f: SampledField,
    b: BernsteinPoly,
    box=None,
    r: int = 0,
    grid_density: int = DEFAULT_GRID_DENSITY,
) -> dict[tuple[int, int], float]:
    """Sampled max |d^k f - d^k b| for every multi-index |k| <= r.

    Errors are measured on a grid_density x grid_density grid of the box,
    not as a certified sup-norm.
    """
    if grid_density < 50:
        raise ValueError("grid_density must be >= 50")
    if f.r_max < r:
        raise InsufficientDerivatives(f"field provides r_max={f.r_max} < r={r}")
    X, Y = mesh(tuple(box) if box is not None else tuple(f.box), grid_density)
    return _jet_errors(b, r, X, Y, jets(f, r, X, Y))


def min_degree_for_tolerance(
    f: SampledField,
    box,
    r: int,
    eps: float,
    cap: int = 512,
    grid_density: int = DEFAULT_GRID_DENSITY,
    error_boxes=None,
    trace: list | None = None,
) -> tuple[int, int]:
    """Smallest diagonal degree m = n with every |k| <= r error below eps.

    Doubles m until the tolerance is met, then bisects down to the minimal
    passing degree. ``error_boxes`` optionally restricts where errors are
    measured (a list of sub-boxes; the max over all of them is used), which
    the splitting pipeline uses to focus on the dynamically relevant ring.
    ``trace`` collects (m, errors, fit) for every probed degree, in probe
    order; each degree is probed once, so its fit can be reused.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if f.r_max < r:
        raise InsufficientDerivatives(f"field provides r_max={f.r_max} < r={r}")
    boxes = list(error_boxes) if error_boxes is not None else [tuple(box)]

    # the field's jets do not change across probed degrees; sample them once
    # per error box
    cached = [(X, Y, jets(f, r, X, Y))
              for X, Y in (mesh(sub, grid_density) for sub in boxes)]

    def probe(m):
        b = bernstein_fit(f, m, m, box)
        errs: dict[tuple[int, int], float] = {}
        for X, Y, target in cached:
            for k, v in _jet_errors(b, r, X, Y, target).items():
                errs[k] = max(errs.get(k, 0.0), v)
        if trace is not None:
            trace.append((m, errs, b))
        return errs

    def ok(errs):
        return all(v < eps for v in errs.values())

    m, prev_failed = 1, 0
    best = None
    while True:
        errs = probe(m)
        best = errs if best is None or max(errs.values()) < max(best.values()) else best
        if ok(errs):
            break
        if m >= cap:
            raise CapExceeded(cap, best)
        prev_failed = m
        m = min(2 * m, cap)
    lo, hi = prev_failed, m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(probe(mid)):
            hi = mid
        else:
            lo = mid
    return hi, hi


def error_table_csv(rows, path) -> None:
    """Write error-vs-degree rows as CSV with columns m,n,k_i,k_j,max_error.

    rows: iterable of (m, n, errors_dict).
    """
    lines = ["m,n,k_i,k_j,max_error"]
    for m, n, errs in rows:
        for (i, j), v in sorted(errs.items()):
            lines.append(f"{m},{n},{i},{j},{v!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
