"""Bivariate real polynomials in monomial form: a Poly2 is a sparse exponent
map {(i, j): coef}, evaluated by a Horner body compiled once per set of
nonzero monomials (_compiled) and bound to its coefficients. Fitted
polynomials in the Bernstein basis are bernstein.BernsteinPoly.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    def _terms(self) -> tuple[tuple[tuple[int, int], ...], list[float]]:
        """The nonzero monomials, sorted, and their coefficients in that
        order: the key of p's compiled body (_compiled) and what it binds."""
        monomials = tuple(sorted(self.coeffs))
        return monomials, [self.coeffs[e] for e in monomials]

    @cached_property
    def _horner(self):
        """(x, y) -> p(x, y): the body compiled for p's monomials, bound to
        p's coefficients."""
        monomials, coefficients = self._terms
        return _compiled((monomials,))(*coefficients)

    # ---------------------------------------------------------------- evaluation
    def __call__(self, x, y):
        """p at (x, y): an np.float64 for floats; for arrays or a mix, an
        array of the broadcast shape (an np.float64 for shape ()), also for
        a constant or zero p. At every finite point the bits are those of
        the dense Horner scheme on p's coefficient matrix (_horner_source)."""
        if isinstance(x, float) and isinstance(y, float):
            return np.float64(self._horner(float(x), float(y)))
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        value = self._horner(x, y)
        # a constant's body reads neither x nor y
        return value if self.degree > 0 else np.full(x.shape, value)[()]

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


# Python rejects an expression nested more than 200 parentheses deep, so a
# Horner expression is cut into statements at this depth
_MAX_NESTING = 64


def _horner_source(monomials, out: str, names: str) -> list[str]:
    """Python statements that leave in the variable out the value at (x, y)
    of the polynomial with the nonzero monomials x^i y^j in monomials, whose
    coefficient of x^i y^j is the variable {names}{i}_{j}; x and y are floats
    or arrays of one shape.

    The dense Horner scheme on the coefficient matrix, as NumPy's 2-D
    polynomial evaluation runs it (the reference in tests/oracles.py), in
    one expression, operation for operation: each column's loop in x nests
    inside the loop in y over the columns. An expression _MAX_NESTING
    parentheses deep is assigned to a variable and continued from there, so
    only a polynomial of degree above 64 takes more than one statement. Left
    out is only what is exact on finite inputs: polyval's ``+ x*0`` start
    and the additions of zero coefficients. c + h*x with c = 0 differs from
    h*x at most in the sign of a zero, which the next nonzero coefficient
    absorbs; where none follows, a final ``+ 0.0`` restores it. So the value
    has the dense scheme's bits at every finite point; at an infinite one,
    where polyval's start x*0 is NaN, it may not.
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

    nonzero = set(monomials)
    dx = max((i for i, _ in nonzero), default=0)
    dy = max((j for _, j in nonzero), default=0)
    cols = [horner([(f"{names}{i}_{j}", 0) if (i, j) in nonzero else None
                    for i in range(dx, -1, -1)], "x", f"{out}{dy - j}")
            for j in range(dy, -1, -1)]
    value = horner(cols, "y", out)
    return lines + [f"{out} = {value[0] if value else 0.0}"]


@lru_cache(maxsize=64)
def _compiled(key):
    """The factory (coefficients) -> f of the polynomials with the nonzero
    monomials key, one sorted tuple of monomials per component:
    f(x, y) gives each component's _horner_source value (one value, or a
    tuple), with the coefficients, in key order, bound as defaults.

    The one place that compiles a polynomial: every Poly2 value and every
    PolyVectorField.rhs() runs one of these bodies, compiled once per
    process for its monomials. Defaults are read as locals, so a field's RHS
    call costs 3–6% more than one with the coefficients as literals (0.67
    against 0.66 µs on CK(3), 1.44 against 1.35 µs on a full degree-7
    field; closure cells would cost 14%). In exchange a new field binds its
    body in about 4 µs, where a literal body took about 0.37 ms to compile,
    and a Poly2 value on floats takes 0.66 µs in place of about 20 µs for
    the dense evaluation (2-vCPU Xeon VM, Python 3.11, NumPy 2.4).
    """
    names = [f"c{n}_{i}_{j}" for n, monomials in enumerate(key) for i, j in monomials]
    body = [line for n, monomials in enumerate(key)
            for line in _horner_source(monomials, f"v{n}", f"c{n}_")]
    namespace: dict = {}
    exec(f"def make({', '.join(names)}):\n"
         f"    def f({', '.join(['x', 'y'] + [f'{n}={n}' for n in names])}):\n"
         + "".join(f"        {line}\n" for line in body)
         + f"        return {', '.join(f'v{n}' for n in range(len(key)))}\n"
         "    return f\n", namespace)
    return namespace["make"]


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
