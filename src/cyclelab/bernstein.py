"""Tensor-product Bernstein approximation of sampled scalar fields.

Builds the two-variable Bernstein polynomial from function samples on a box
and measures how fast it converges, together with all partial derivatives up
to a requested order, on a sampling grid. The degree search realizes the
"for every tolerance there is a degree" quantifier as a doubling-then-bisection
search along the diagonal m = n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .poly2 import Poly2, derivative

# grid density is odd by default so symmetric boxes sample their center exactly
DEFAULT_GRID_DENSITY = 101
# central-difference step of first derivatives; second derivatives use 2e-4
_FD_STEP = 1e-5


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
    """Scalar function of two variables with partial derivatives up to r_max.

    ``value`` must accept numpy arrays. Analytic derivative callables can be
    supplied in ``derivs`` keyed by (i, j); anything missing is filled by
    central finite differences of ``value`` (step 1e-5 for first order, a
    larger balanced step for second order).
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    box: tuple[float, float, float, float]
    r_max: int = 2
    derivs: dict[tuple[int, int], Callable] = field(default_factory=dict)

    def derivative(self, i: int, j: int, x, y):
        if i + j > self.r_max:
            raise InsufficientDerivatives(
                f"derivative order {(i, j)} exceeds r_max={self.r_max}"
            )
        if (i, j) in self.derivs:
            return self.derivs[(i, j)](x, y)
        if i + j == 0:
            return self.value(x, y)
        return self._fd(i, j, x, y)

    def _fd(self, i, j, x, y):
        # second-order stencils; step balanced against roundoff per order
        h = _FD_STEP if i + j == 1 else 2e-4
        if i > 0:
            base = (lambda xx, yy: self._fd(i - 1, j, xx, yy)) if i + j > 1 else self.value
            if i + j == 2 and (i, j) == (2, 0):
                f0 = self.value(x, y)
                return (self.value(x + h, y) - 2 * f0 + self.value(x - h, y)) / h**2
            return (base(x + h, y) - base(x - h, y)) / (2 * h)
        if i + j == 2 and (i, j) == (0, 2):
            f0 = self.value(x, y)
            return (self.value(x, y + h) - 2 * f0 + self.value(x, y - h)) / h**2
        base = (lambda xx, yy: self._fd(i, j - 1, xx, yy)) if i + j > 1 else self.value
        return (base(x, y + h) - base(x, y - h)) / (2 * h)

    def check_consistency(self, rng=None, n_points: int = 20, tol: float = 1e-4) -> float:
        """Cross-check supplied derivatives against central differences.

        Returns the worst discrepancy over first-order derivatives at random
        interior points; raises if it exceeds tol.
        """
        rng = rng or np.random.default_rng(0)
        ax, bx, ay, by = self.box
        pad_x, pad_y = 0.05 * (bx - ax), 0.05 * (by - ay)
        x = rng.uniform(ax + pad_x, bx - pad_x, n_points)
        y = rng.uniform(ay + pad_y, by - pad_y, n_points)
        worst = 0.0
        for (i, j) in [(1, 0), (0, 1)]:
            if (i, j) not in self.derivs:
                continue
            a = np.asarray(self.derivs[(i, j)](x, y), dtype=float)
            b = np.asarray(self._fd(i, j, x, y), dtype=float)
            worst = max(worst, float(np.max(np.abs(a - b))))
        if worst > tol:
            raise InsufficientDerivatives(
                f"supplied derivatives disagree with finite differences by {worst:.2e}"
            )
        return worst


def bernstein_fit(f: SampledField, m: int, n: int, box=None) -> Poly2:
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
    return Poly2.bernstein(grid, box)


def mesh(box, density: int):
    """The density x density sampling grid of a box, as 'ij'-indexed (X, Y)."""
    ax, bx, ay, by = box
    return np.meshgrid(np.linspace(ax, bx, density), np.linspace(ay, by, density),
                       indexing="ij")


def jets(f, r: int, X, Y) -> dict[tuple[int, int], np.ndarray]:
    """Every partial derivative d^(i+j) f / dx^i dy^j with i + j <= r at (X, Y).

    Keys run by total order, then by i: (0, 0), (0, 1), (1, 0), (0, 2), ...
    A Poly2 takes each derivative once, from the one before it (x first,
    then y), which gives the same polynomials as nested ``derivative`` calls;
    a SampledField answers through its own ``derivative(i, j, X, Y)``.
    """
    keys = [(i, t - i) for t in range(r + 1) for i in range(t + 1)]
    if not isinstance(f, Poly2):
        return {(i, j): np.asarray(f.derivative(i, j, X, Y), dtype=float) for i, j in keys}
    polys = {(0, 0): f}
    for i, j in keys[1:]:
        polys[(i, j)] = (derivative(polys[(i, j - 1)], "y") if j
                         else derivative(polys[(i - 1, 0)], "x"))
    return {k: p(X, Y) for k, p in polys.items()}


def _jet_errors(b: Poly2, r: int, X, Y, target) -> dict[tuple[int, int], float]:
    """max |d^k b - target[k]| over the grid for every |k| <= r."""
    return {k: float(np.max(np.abs(v - target[k]))) for k, v in jets(b, r, X, Y).items()}


def cr_error(
    f: SampledField,
    b: Poly2,
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
