"""Bivariate real polynomials in monomial form: a Poly2 is a sparse exponent
map {(i, j): coef}, evaluated by NumPy's polyval2d on its dense coefficient
matrix. Fitted polynomials in the Bernstein basis are bernstein.BernsteinPoly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

NEG_INF = float("-inf")


def _clean(coeffs: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    out = {}
    for (i, j), c in coeffs.items():
        c = float(c)
        if c != 0.0:
            out[(int(i), int(j))] = c
    return out


@dataclass(frozen=True)
class Poly2:
    """Immutable bivariate polynomial in monomial form."""

    coeffs: dict[tuple[int, int], float]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    # ---------------------------------------------------------------- constructors
    @staticmethod
    def monomial(coeffs: Mapping[tuple[int, int], float]) -> "Poly2":
        return Poly2(coeffs)

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

    # ---------------------------------------------------------------- properties
    @property
    def degree(self) -> float:
        """Total degree; -inf for the zero polynomial."""
        if not self.coeffs:
            return NEG_INF
        return float(max(i + j for i, j in self.coeffs))

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

    # ---------------------------------------------------------------- evaluation
    def __call__(self, x, y):
        return eval_poly(self, x, y)

    def __repr__(self):
        if not self.coeffs:
            return "Poly2<0>"
        terms = [f"{c:+g}*x^{i}*y^{j}" for (i, j), c in sorted(self.coeffs.items())]
        return "Poly2<" + " ".join(terms) + ">"

    def derivative(self, axis: str, order: int = 1) -> "Poly2":
        """Exact partial derivative along 'x' or 'y'."""
        _axis_index(axis, order)
        coeffs = self.coeffs
        for _ in range(order):
            nxt: dict[tuple[int, int], float] = {}
            for (i, j), c in coeffs.items():
                if axis == "x" and i > 0:
                    nxt[(i - 1, j)] = nxt.get((i - 1, j), 0.0) + c * i
                elif axis == "y" and j > 0:
                    nxt[(i, j - 1)] = nxt.get((i, j - 1), 0.0) + c * j
            coeffs = nxt
        return Poly2.monomial(coeffs)


def eval_poly(p: Poly2, x, y):
    """Evaluate p at (x, y); accepts scalars or broadcasting arrays.

    NumPy's polyval2d on the dense coefficient matrix (a Horner scheme: each
    column in x, then the column values in y); float inputs give an
    np.float64. A field's right-hand side runs the same scheme compiled into
    one expression on floats (_horner_source) and in place on lane arrays
    (field._lane_rhs).
    """
    # imported on first use: numpy.polynomial imported ahead of the rest
    # of the package raises the peak resident memory by about 0.45 MB
    # (NumPy 2.4, Python 3.11, Linux)
    from numpy.polynomial.polynomial import polyval2d

    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return polyval2d(x, y, p._dense)


# Python rejects an expression nested more than 200 parentheses deep, so a
# Horner expression is cut into statements at this depth
_MAX_NESTING = 64


def _horner_source(p: Poly2, out: str, names: str | None = None) -> list[str]:
    """Python statements that leave eval_poly(p, x, y) in the variable out,
    for a monomial p and float x, y. With a prefix ``names`` the nonzero
    coefficient of x^i y^j is the variable {names}{i}_{j} instead of its
    value, so one body serves every polynomial with p's nonzero monomials.

    polyval2d's Horner loops become one expression, operation for operation:
    each column's loop in x nests inside the loop in y over the columns. An
    expression _MAX_NESTING parentheses deep is assigned to a variable and
    continued from there, so only a polynomial of degree above 64 takes
    more than one statement. Left out is only what is exact on finite
    inputs: polyval's ``+ x*0`` start and the additions of zero
    coefficients. c + h*x with c = 0 differs from h*x at most in the sign
    of a zero, which the next nonzero coefficient absorbs; where none
    follows, a final ``+ 0.0`` restores it. So the value is bit-identical
    to eval_poly's at every finite point.
    """
    lines = []

    def horner(terms, var, name):
        # Horner over terms (highest power first; each an (expression,
        # nesting depth) pair, None for a zero) as (expression, depth), or
        # None when every term is zero
        expr = None
        for term in terms:
            if expr is None:
                if term is not None:
                    expr, depth = term
                continue
            if depth >= _MAX_NESTING:
                lines.append(f"{name} = {expr}")
                expr, depth = name, 0
            if term is None:
                expr, depth = f"({expr})*{var}", depth + 1
            else:
                expr, depth = f"{term[0]} + ({expr})*{var}", max(term[1], depth + 1)
        if expr is not None and terms[-1] is None:
            expr += " + 0.0"
        return None if expr is None else (expr, depth)

    dx, dy = (n - 1 for n in p._dense.shape)

    def coefficient(c, i, j):
        return None if not c else (repr(c) if names is None else f"{names}{i}_{j}", 0)

    cols = [horner([coefficient(c, dx - m, dy - k) for m, c in enumerate(col)], "x", f"{out}{k}")
            for k, col in enumerate(p._horner_columns)]
    value = horner(cols, "y", out)
    return lines + [f"{out} = {value[0] if value else 0.0}"]


def _axis_index(axis: str, order: int) -> int:
    """The index of 'x' (0) or 'y' (1), for a partial derivative of an order >= 0."""
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if order < 0:
        raise ValueError("order must be >= 0")
    return "xy".index(axis)


def add(p: Poly2, q: Poly2) -> Poly2:
    out = dict(p.coeffs)
    for k, v in q.coeffs.items():
        out[k] = out.get(k, 0.0) + v
    return Poly2.monomial(out)


def mul(p: Poly2, q: Poly2) -> Poly2:
    out = {}
    for (i1, j1), c1 in p.coeffs.items():
        for (i2, j2), c2 in q.coeffs.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0.0) + c1 * c2
    return Poly2.monomial(out)


def scale(p: Poly2, c: float) -> Poly2:
    return Poly2.monomial({k: v * c for k, v in p.coeffs.items()})


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
