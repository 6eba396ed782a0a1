"""Bivariate real polynomials in monomial and Bernstein tensor-product bases.

The monomial form is a sparse exponent map {(i, j): coef}. The Bernstein form
is a dense (m+1, n+1) coefficient grid over an axis-aligned box; evaluation
uses the numerically stable one-dimensional basis recurrence (multiplicative,
no cancellation), so it remains valid slightly outside the box as well.

Conversion from Bernstein to monomial is exponentially ill-conditioned and is
capped at total degree 30; above the cap every consumer works basis-natively
(evaluation, differentiation, sums and products stay in the Bernstein basis).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

MONOMIAL_CONVERSION_CAP = 30

NEG_INF = float("-inf")


class ConversionOverflow(Exception):
    """Bernstein-to-monomial conversion requested above the degree cap."""


class DegenerateBox(Exception):
    """Box with a >= b or c >= d."""


def _clean(coeffs: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    out = {}
    for (i, j), c in coeffs.items():
        c = float(c)
        if c != 0.0:
            out[(int(i), int(j))] = c
    return out


def _check_box(box) -> tuple[float, float, float, float]:
    ax, bx, ay, by = (float(v) for v in box)
    if not (ax < bx and ay < by):
        raise DegenerateBox(f"degenerate box {box!r}")
    return ax, bx, ay, by


def _basis_row_scalar(m: int, u: float) -> np.ndarray:
    """Scalar fast path of the basis recurrence.

    The running product b^m * f_0 * f_1 * ... is one sequential cumprod over
    [b^m, f_0, ..., f_{m-1}], so every entry is rounded exactly as in the
    one-at-a-time recurrence.
    """
    v = 1.0 - u
    flip = abs(u) > abs(v)
    a, b = (v, u) if flip else (u, v)
    if b == 0.0:
        out = np.zeros(m + 1)
        out[0] = 1.0
    else:
        i = np.arange(m, dtype=float)
        out = np.empty(m + 1)
        out[0] = b**m
        out[1:] = (a / b) * (m - i) / (i + 1.0)
        np.multiply.accumulate(out, out=out)
    return out[::-1].copy() if flip else out


def bernstein_basis_row(m: int, u) -> np.ndarray:
    """Values of the m+1 degree-m Bernstein basis functions at points u.

    Computed by the direction-switched multiplicative recurrence
    b_{i+1} = b_i * ((m-i)/(i+1)) * (u/(1-u)); every value is a product of
    exact ratios, so there is no cancellation and the relative error stays
    at O(m * eps) for any real u (including outside [0, 1]).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n_pts = u.size
    if n_pts == 1:
        return _basis_row_scalar(m, float(u[0]))[None, :]
    B = np.empty((n_pts, m + 1))
    if m == 0:
        B[:] = 1.0
        return B
    v = 1.0 - u
    # forward sweep where |1-u| dominates, backward sweep otherwise
    fwd = np.abs(v) >= np.abs(u)
    for mask, flip in ((fwd, False), (~fwd, True)):
        if not mask.any():
            continue
        uu = u[mask] if not flip else v[mask]
        vv = v[mask] if not flip else u[mask]
        rows = np.empty((uu.size, m + 1))
        rows[:, 0] = vv**m
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(vv != 0.0, uu / np.where(vv == 0.0, 1.0, vv), 0.0)
        acc = rows[:, 0].copy()
        for i in range(m):
            acc = acc * ratio * ((m - i) / (i + 1.0))
            rows[:, i + 1] = acc
        # vv == 0 means all mass on the last basis function
        deg = np.nonzero(vv == 0.0)[0]
        if deg.size:
            rows[deg] = 0.0
            rows[deg, m] = 1.0
        if flip:
            rows = rows[:, ::-1]
        B[mask] = rows
    return B


def _binom_log(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n via cumulative sums (exact-ish for n <= few 1000)."""
    k = np.arange(1, n + 1)
    steps = np.log((n - k + 1.0) / k)
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out


@dataclass(frozen=True)
class Poly2:
    """Immutable bivariate polynomial, monomial or Bernstein form."""

    basis: str  # "monomial" | "bernstein"
    coeffs: dict[tuple[int, int], float] | None = None
    grid: np.ndarray | None = None
    box: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.basis == "monomial":
            object.__setattr__(self, "coeffs", _clean(self.coeffs or {}))
        elif self.basis == "bernstein":
            g = np.array(self.grid, dtype=float)
            if g.ndim != 2:
                raise ValueError("bernstein grid must be 2-d")
            g.setflags(write=False)
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "box", _check_box(self.box))
        else:
            raise ValueError(f"unknown basis {self.basis!r}")

    # ---------------------------------------------------------------- constructors
    @staticmethod
    def monomial(coeffs: Mapping[tuple[int, int], float]) -> "Poly2":
        return Poly2(basis="monomial", coeffs=dict(coeffs))

    @staticmethod
    def constant(c: float) -> "Poly2":
        return Poly2.monomial({(0, 0): float(c)})

    @staticmethod
    def zero() -> "Poly2":
        return Poly2.monomial({})

    @staticmethod
    def variable(name: str) -> "Poly2":
        if name == "x":
            return Poly2.monomial({(1, 0): 1.0})
        if name == "y":
            return Poly2.monomial({(0, 1): 1.0})
        raise ValueError(name)

    @staticmethod
    def bernstein(grid, box) -> "Poly2":
        return Poly2(basis="bernstein", grid=np.asarray(grid, dtype=float), box=tuple(box))

    # ---------------------------------------------------------------- properties
    @property
    def degree(self) -> float:
        """Total degree; -inf for the zero polynomial (monomial form)."""
        if self.basis == "monomial":
            if not self.coeffs:
                return NEG_INF
            return float(max(i + j for i, j in self.coeffs))
        m, n = self.grid.shape
        return float(m + n - 2)

    @property
    def bernstein_degrees(self) -> tuple[int, int]:
        if self.basis != "bernstein":
            raise ValueError("not in bernstein form")
        return self.grid.shape[0] - 1, self.grid.shape[1] - 1

    @cached_property
    def _dense(self) -> np.ndarray:
        """Dense (degx+1, degy+1) coefficient matrix for monomial evaluation."""
        if not self.coeffs:
            return np.zeros((1, 1))
        dx = max(i for i, _ in self.coeffs)
        dy = max(j for _, j in self.coeffs)
        C = np.zeros((dx + 1, dy + 1))
        for (i, j), c in self.coeffs.items():
            C[i, j] = c
        C.setflags(write=False)
        return C

    @cached_property
    def _horner_columns(self) -> list[list[float]]:
        """Columns of _dense as float lists, highest powers of x and y first."""
        return [[float(c) for c in col[::-1]] for col in self._dense.T[::-1]]

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.basis == "monomial":
            if tol == 0.0:
                return not self.coeffs
            return all(abs(c) <= tol for c in self.coeffs.values())
        return bool(np.all(np.abs(self.grid) <= tol))

    # ---------------------------------------------------------------- evaluation
    def __call__(self, x, y):
        return eval_poly(self, x, y)

    # equality of monomial forms is coefficient-map equality
    def same_coeffs(self, other: "Poly2", tol: float = 0.0) -> bool:
        a, b = self, other
        if a.basis != "monomial" or b.basis != "monomial":
            raise ValueError("coefficient comparison needs monomial forms")
        keys = set(a.coeffs) | set(b.coeffs)
        return all(abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)) <= tol for k in keys)

    def __repr__(self):
        if self.basis == "monomial":
            if not self.coeffs:
                return "Poly2<0>"
            terms = [f"{c:+g}*x^{i}*y^{j}" for (i, j), c in sorted(self.coeffs.items())]
            return "Poly2<" + " ".join(terms) + ">"
        m, n = self.bernstein_degrees
        return f"Poly2<bernstein ({m},{n}) on {self.box}>"


def eval_poly(p: Poly2, x, y):
    """Evaluate p at (x, y); accepts scalars or broadcasting arrays.

    Monomial forms run polyval2d's Horner scheme (each column in x, then the
    column values in y) operation for operation, so values are bit-identical
    to it; float inputs stay plain floats, which is what keeps a vector
    field's right-hand side cheap.
    """
    if p.basis == "monomial":
        if not (isinstance(x, float) and isinstance(y, float)):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        acc = None
        for col in p._horner_columns:
            h = col[0] + x * 0  # polyval's start: takes x's shape, keeps its nan/inf
            for c in col[1:]:
                h = c + h * x
            acc = h + y * 0 if acc is None else h + acc * y
        return acc
    ax, bx, ay, by = p.box
    u = (np.asarray(x, dtype=float) - ax) / (bx - ax)
    v = (np.asarray(y, dtype=float) - ay) / (by - ay)
    shape = np.broadcast_shapes(u.shape, v.shape)
    u = np.broadcast_to(u, shape).ravel()
    v = np.broadcast_to(v, shape).ravel()
    m, n = p.bernstein_degrees
    Bu = bernstein_basis_row(m, u)
    Bv = bernstein_basis_row(n, v)
    vals = np.sum((Bu @ p.grid) * Bv, axis=1)
    if shape == ():
        return float(vals[0])
    return vals.reshape(shape)


def _horner_lines(terms, acc: str, var: str) -> list[str]:
    """Horner over terms (highest power first, None for a zero) as statements
    that leave the value in acc; empty when every term is zero."""
    lines = []
    for c in terms:
        if c is not None:
            lines.append(f"{acc} = {c} + {acc}*{var}" if lines else f"{acc} = {c}")
        elif lines:
            lines.append(f"{acc} = {acc}*{var}")
    if lines and terms[-1] is None:
        lines.append(f"{acc} = {acc} + 0.0")
    return lines


def _horner_source(p: Poly2, out: str) -> list[str]:
    """Python statements that leave eval_poly(p, x, y) in the variable out,
    for a monomial p and float x, y.

    They unroll eval_poly's Horner loops operation for operation, leaving out
    only what is exact on finite inputs: polyval's ``+ x*0`` start and the
    additions of zero coefficients. c + h*x with c = 0 differs from h*x at
    most in the sign of a zero, which the next nonzero coefficient absorbs;
    where none follows, a final ``+ 0.0`` restores it. So the value is
    bit-identical to eval_poly's at every finite point.
    """
    lines, cols = [], []
    for k, col in enumerate(p._horner_columns):
        col_lines = _horner_lines([repr(c) if c else None for c in col], f"{out}{k}", "x")
        lines += col_lines
        cols.append(f"{out}{k}" if col_lines else None)
    return lines + (_horner_lines(cols, out, "y") or [f"{out} = 0.0"])


def derivative(p: Poly2, axis: str, order: int = 1) -> Poly2:
    """Exact partial derivative along 'x' or 'y'.

    Bernstein inputs are differentiated basis-natively (degree drops by one
    per order, no conversion), so no degree cap applies.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        return p
    if p.basis == "monomial":
        coeffs = p.coeffs
        for _ in range(order):
            nxt: dict[tuple[int, int], float] = {}
            for (i, j), c in coeffs.items():
                if axis == "x" and i > 0:
                    nxt[(i - 1, j)] = nxt.get((i - 1, j), 0.0) + c * i
                elif axis == "y" and j > 0:
                    nxt[(i, j - 1)] = nxt.get((i, j - 1), 0.0) + c * j
            coeffs = nxt
        return Poly2.monomial(coeffs)
    ax, bx, ay, by = p.box
    g = np.array(p.grid)
    for _ in range(order):
        if axis == "x":
            m = g.shape[0] - 1
            if m == 0:
                g = np.zeros((1, g.shape[1]))
            else:
                g = m * np.diff(g, axis=0) / (bx - ax)
        else:
            n = g.shape[1] - 1
            if n == 0:
                g = np.zeros((g.shape[0], 1))
            else:
                g = n * np.diff(g, axis=1) / (by - ay)
    return Poly2.bernstein(g, p.box)


def _elevate_1d(c: np.ndarray, r: int, axis: int) -> np.ndarray:
    """Raise the Bernstein degree along one axis by r (exact, stable)."""
    if r == 0:
        return c
    if axis == 1:
        return _elevate_1d(c.T, r, 0).T
    m = c.shape[0] - 1
    M = m + r
    logm = _binom_log(m)
    logr = _binom_log(r)
    logM = _binom_log(M)
    out = np.zeros((M + 1, c.shape[1]))
    for k in range(M + 1):
        j0, j1 = max(0, k - r), min(m, k)
        j = np.arange(j0, j1 + 1)
        w = np.exp(logm[j] + logr[k - j] - logM[k])
        out[k] = w @ c[j]
    return out


def _elevate_to(p: Poly2, m: int, n: int) -> Poly2:
    pm, pn = p.bernstein_degrees
    if pm > m or pn > n:
        raise ValueError("cannot lower bernstein degree by elevation")
    g = _elevate_1d(p.grid, m - pm, 0)
    g = _elevate_1d(g, n - pn, 1)
    return Poly2.bernstein(g, p.box)


def _convolve_direct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-d convolution as a sum of row-by-row 1-d direct convolutions."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i, row in enumerate(a):
        for k, other in enumerate(b):
            out[i + k] += np.convolve(row, other)
    return out


def _product_bernstein(p: Poly2, q: Poly2) -> Poly2:
    """Exact Bernstein-basis product via binomially weighted direct convolution.

    Each output coefficient is a convex combination of input products
    (Vandermonde identity), so the per-entry relative error is O(m^2 eps);
    FFT convolution is avoided because the weight dynamic range would mix
    scales across entries.
    """
    if p.box != q.box:
        q = reparametrize_box(q, p.box)
    m1, n1 = p.bernstein_degrees
    m2, n2 = q.bernstein_degrees
    wlogs = {}
    for d in {m1, n1, m2, n2, m1 + m2, n1 + n2}:
        wlogs[d] = _binom_log(d)
    wa = np.exp(wlogs[m1][:, None] + wlogs[n1][None, :])
    wb = np.exp(wlogs[m2][:, None] + wlogs[n2][None, :])
    cw = _convolve_direct(p.grid * wa, q.grid * wb)
    wc = np.exp(wlogs[m1 + m2][:, None] + wlogs[n1 + n2][None, :])
    return Poly2.bernstein(cw / wc, p.box)


def to_bernstein(p: Poly2, box, degrees: tuple[int, int] | None = None) -> Poly2:
    """Represent a monomial-form polynomial exactly in Bernstein form on box."""
    if p.basis == "bernstein":
        return p if p.box == tuple(box) else reparametrize_box(p, box)
    ax, bx, ay, by = _check_box(box)
    C = p._dense
    dx, dy = C.shape[0] - 1, C.shape[1] - 1
    if degrees is not None:
        dx, dy = max(dx, degrees[0]), max(dy, degrees[1])
        Cp = np.zeros((dx + 1, dy + 1))
        Cp[: C.shape[0], : C.shape[1]] = C
        C = Cp

    def axis_matrix(d, a, w):
        # x^j -> coefficients in u where x = a + w u, then power -> bernstein
        S = np.zeros((d + 1, d + 1))
        for j in range(d + 1):
            for k in range(j + 1):
                S[k, j] = _comb(j, k) * a ** (j - k) * w**k
        T = np.zeros((d + 1, d + 1))
        logd = _binom_log(d)
        for jj in range(d + 1):
            for k in range(jj + 1):
                T[jj, k] = np.exp(_binom_log(jj)[k] - logd[k]) if k <= jj else 0.0
        return T @ S

    Mx = axis_matrix(dx, ax, bx - ax)
    My = axis_matrix(dy, ay, by - ay)
    grid = Mx @ C @ My.T
    return Poly2.bernstein(grid, (ax, bx, ay, by))


def _comb(n, k):
    from math import comb

    return float(comb(n, k))


def to_monomial(p: Poly2) -> Poly2:
    """Convert to monomial form; capped at total degree 30 for Bernstein input."""
    if p.basis == "monomial":
        return p
    m, n = p.bernstein_degrees
    if m + n > MONOMIAL_CONVERSION_CAP:
        raise ConversionOverflow(
            f"bernstein ({m},{n}) exceeds the total-degree cap "
            f"{MONOMIAL_CONVERSION_CAP} for monomial conversion"
        )
    ax, bx, ay, by = p.box

    def axis_matrix(d, a, w):
        # bernstein -> power in u, then u = (x - a)/w -> power in x
        U = np.zeros((d + 1, d + 1))
        for i in range(d + 1):
            for k in range(i, d + 1):
                U[k, i] = (-1.0) ** (k - i) * _comb(d, k) * _comb(k, i)
        T = np.zeros((d + 1, d + 1))
        for k in range(d + 1):
            for j in range(k + 1):
                T[j, k] = _comb(k, j) * (-a) ** (k - j) / w**k
        return T @ U

    Mx = axis_matrix(m, ax, bx - ax)
    My = axis_matrix(n, ay, by - ay)
    C = Mx @ p.grid @ My.T
    coeffs = {
        (i, j): C[i, j]
        for i in range(C.shape[0])
        for j in range(C.shape[1])
        if C[i, j] != 0.0
    }
    return Poly2.monomial(coeffs)


def arith(p: Poly2, q: Poly2, op: str, c: float | None = None) -> Poly2:
    """Polynomial arithmetic: op in {'add', 'mul', 'scale'}.

    Mixed-basis operands are unified in the Bernstein basis (the stable
    conversion direction), keeping high-degree Bernstein operands usable.
    """
    if op == "scale":
        if c is None:
            raise ValueError("scale needs the scalar c")
        if p.basis == "monomial":
            return Poly2.monomial({k: v * c for k, v in p.coeffs.items()})
        return Poly2.bernstein(p.grid * c, p.box)
    if op not in ("add", "mul"):
        raise ValueError(f"unknown op {op!r}")

    if p.basis == "monomial" and q.basis == "monomial":
        if op == "add":
            out = dict(p.coeffs)
            for k, v in q.coeffs.items():
                out[k] = out.get(k, 0.0) + v
            return Poly2.monomial(out)
        out = {}
        for (i1, j1), c1 in p.coeffs.items():
            for (i2, j2), c2 in q.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0.0) + c1 * c2
        return Poly2.monomial(out)

    # unify in bernstein form
    if p.basis == "monomial":
        p = to_bernstein(p, q.box)
    if q.basis == "monomial":
        q = to_bernstein(q, p.box)
    if p.box != q.box:
        q = reparametrize_box(q, p.box)
    if op == "mul":
        return _product_bernstein(p, q)
    m = max(p.bernstein_degrees[0], q.bernstein_degrees[0])
    n = max(p.bernstein_degrees[1], q.bernstein_degrees[1])
    return Poly2.bernstein(
        _elevate_to(p, m, n).grid + _elevate_to(q, m, n).grid, p.box
    )


def add(p: Poly2, q: Poly2) -> Poly2:
    return arith(p, q, "add")


def mul(p: Poly2, q: Poly2) -> Poly2:
    return arith(p, q, "mul")


def scale(p: Poly2, c: float) -> Poly2:
    return arith(p, p, "scale", c)


def _decasteljau_split(c: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """de Casteljau triangle at t; returns (left, right) control nets.

    Valid for t outside [0, 1] too (affine blossoming extends the segment).
    """
    m = c.shape[0] - 1
    levels = [c.copy()]
    tri = c.copy()
    for _ in range(m):
        tri = (1.0 - t) * tri[:-1] + t * tri[1:]
        levels.append(tri.copy())
    left = np.stack([levels[i][0] for i in range(m + 1)])
    right = np.stack([levels[m - i][i] for i in range(m + 1)])
    return left, right


def _restrict_1d(c: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """Reexpress a [0,1] Bernstein segment over [t0, t1]."""
    if t0 == 1.0:
        raise DegenerateBox("cannot reparametrize across a zero-width map")
    _, right = _decasteljau_split(c, t0)
    s = (t1 - t0) / (1.0 - t0)
    left, _ = _decasteljau_split(right, s)
    return left


def reparametrize_box(p: Poly2, new_box) -> Poly2:
    """Reexpress a Bernstein-form polynomial over a different box.

    The polynomial is unchanged as a function; only the basis box moves.
    """
    if p.basis != "bernstein":
        raise ValueError("reparametrize_box needs a bernstein-form polynomial")
    nax, nbx, nay, nby = _check_box(new_box)
    ax, bx, ay, by = p.box
    t0x, t1x = (nax - ax) / (bx - ax), (nbx - ax) / (bx - ax)
    t0y, t1y = (nay - ay) / (by - ay), (nby - ay) / (by - ay)
    g = _restrict_1d(p.grid, t0x, t1x)
    g = _restrict_1d(g.T, t0y, t1y).T
    return Poly2.bernstein(g, (nax, nbx, nay, nby))


# ------------------------------------------------------------------ parsing
_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)?"
    r"(?P<vars>(\*?[xy](\^\d+)?)*)$"
)


def parse_poly(text: str) -> Poly2:
    """Parse a polynomial literal like ``-1*x^2*y^0 + 3*x*y - 2``.

    Grammar (whitespace-insensitive, unicode minus accepted)::

        poly   := term (('+' | '-') term)*
        term   := [coef '*']? factor ('*' factor)*  |  coef
        factor := ('x' | 'y') ['^' uint]
        coef   := float literal
    """
    s = text.replace("−", "-").replace(" ", "").replace("\t", "")
    if not s:
        raise ValueError("empty polynomial literal")
    # split into signed terms
    terms = []
    buf = ""
    for ch in s:
        if ch in "+-" and buf and buf[-1] not in "eE*^+-":
            terms.append(buf)
            buf = ch
        else:
            buf += ch
    terms.append(buf)
    coeffs: dict[tuple[int, int], float] = {}
    for term in terms:
        sign = 1.0
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        mobj = _TERM_RE.match(term)
        if not mobj or (not mobj.group("coef") and not mobj.group("vars")):
            raise ValueError(f"bad polynomial term {term!r} in {text!r}")
        coef = sign * float(mobj.group("coef")) if mobj.group("coef") else sign
        i = j = 0
        for var, exp in re.findall(r"([xy])(?:\^(\d+))?", mobj.group("vars") or ""):
            e = int(exp) if exp else 1
            if var == "x":
                i += e
            else:
                j += e
        coeffs[(i, j)] = coeffs.get((i, j), 0.0) + coef
    return Poly2.monomial(coeffs)
