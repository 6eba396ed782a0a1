"""Planar polynomial vector fields and their perturbation families.

A field is a pair (P, Q) of bivariate polynomials. The two structured
perturbations studied here are the rotated family

    (P - lam*eps*Q, Q + lam*eps*P)

which turns the field pointwise without moving its zeros, and the
gradient-collapse family

    (P + lam*R*dR/dx, Q + lam*R*dR/dy)

which adds lam/2 times the gradient of R^2; when R vanishes on a periodic
orbit the orbit survives and its characteristic exponent picks up
lam * integral(|grad R|^2).

The Whitney-style distance used throughout is the sampled max over a compact
box of all partial-derivative differences up to a given order, with the
Euclidean norm on vector values.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .poly2 import (Poly2, _basis_row_scalar, _horner_source, add, derivative, mul,
                    parse_poly, scale)


@dataclass(frozen=True)
class PolyVectorField:
    P: Poly2
    Q: Poly2

    @property
    def degree(self) -> float:
        return max(self.P.degree, self.Q.degree)

    def __call__(self, x, y):
        return self.P(x, y), self.Q(x, y)

    def rhs(self):
        """The field as one function (x, y) -> (P(x, y), Q(x, y)) on floats.

        Built once per field. Monomial fields get generated straight-line
        code whose values are bit-identical to eval_poly's; Bernstein fields
        on one box share their basis rows between the two components.
        """
        return self._evaluator

    @cached_property
    def _evaluator(self):
        P, Q = self.P, self.Q
        if P.basis == Q.basis == "monomial":
            body = _horner_source(P, "p") + _horner_source(Q, "q") + ["return p, q"]
            namespace = {"inf": math.inf, "nan": math.nan}
            exec("def rhs(x, y):\n" + "".join(f"    {line}\n" for line in body), namespace)
            return namespace["rhs"]
        if P.basis == Q.basis == "bernstein" and P.box == Q.box:
            ax, bx, ay, by = P.box
            wx, wy = bx - ax, by - ay
            gp, gq = P.grid, Q.grid
            mx, nx = gp.shape[0] - 1, gp.shape[1] - 1
            mq, nq = gq.shape[0] - 1, gq.shape[1] - 1

            def rhs(x, y):
                u = (x - ax) / wx
                v = (y - ay) / wy
                bu = _basis_row_scalar(mx, u)
                bv = _basis_row_scalar(nx, v)
                if (mq, nq) == (mx, nx):
                    bu2, bv2 = bu, bv
                else:
                    bu2 = _basis_row_scalar(mq, u)
                    bv2 = _basis_row_scalar(nq, v)
                return float(bu @ gp @ bv), float(bu2 @ gq @ bv2)

            return rhs
        return lambda x, y: (P(x, y), Q(x, y))

    def jacobian(self) -> tuple[Poly2, Poly2, Poly2, Poly2]:
        return (
            derivative(self.P, "x"),
            derivative(self.P, "y"),
            derivative(self.Q, "x"),
            derivative(self.Q, "y"),
        )


def divergence(X: PolyVectorField) -> Poly2:
    """dP/dx + dQ/dy, exact."""
    return add(derivative(X.P, "x"), derivative(X.Q, "y"))


def perp(X: PolyVectorField) -> PolyVectorField:
    """Quarter-turn of the field: (-Q, P)."""
    return PolyVectorField(scale(X.Q, -1.0), X.P)


def rotate_family(X: PolyVectorField, lam: float, eps: float = 1.0) -> PolyVectorField:
    """Rotated family (P - lam*eps*Q, Q + lam*eps*P).

    eps fixes the neighborhood radius and lam in (-1, 1) is the path
    parameter; only the product lam*eps enters the dynamics. Keeping them
    separate avoids double-scaling mistakes in sweeps.
    """
    mu = lam * eps
    return PolyVectorField(
        add(X.P, scale(X.Q, -mu)),
        add(X.Q, scale(X.P, mu)),
    )


def gradient_collapse_family(X: PolyVectorField, R: Poly2, lam: float) -> PolyVectorField:
    """Family (P + lam*R*Rx, Q + lam*R*Ry); R may be monomial or Bernstein."""
    Rx = derivative(R, "x")
    Ry = derivative(R, "y")
    return PolyVectorField(
        add(X.P, scale(mul(R, Rx), lam)),
        add(X.Q, scale(mul(R, Ry), lam)),
    )


def _deriv_values(p: Poly2, i: int, j: int, X, Y):
    return derivative(derivative(p, "x", i), "y", j)(X, Y)


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
    ax, bx, ay, by = box
    xs = np.linspace(ax, bx, grid_density)
    ys = np.linspace(ay, by, grid_density)
    GX, GY = np.meshgrid(xs, ys, indexing="ij")
    worst = 0.0
    for total in range(r + 1):
        for i in range(total + 1):
            j = total - i
            dp = _deriv_values(X.P, i, j, GX, GY) - _deriv_values(Y.P, i, j, GX, GY)
            dq = _deriv_values(X.Q, i, j, GX, GY) - _deriv_values(Y.Q, i, j, GX, GY)
            worst = max(worst, float(np.max(np.hypot(dp, dq))))
    return worst


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


def registry_names() -> Iterable[str]:
    return ("CK(1)", "CK(2)", "CK(3)", "vanderpol(1.0)")
