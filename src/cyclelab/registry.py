"""Canonical systems and smooth test functions used across experiments.

The CK(k) family is the standard witness for a multiplicity-k cycle on the
unit circle; van der Pol supplies a generic hyperbolic cycle away from any
algebraic normal form. None of these come with any claim beyond their polar
reductions, which the test suite uses as independent oracles.
"""
from __future__ import annotations

import numpy as np

from .bernstein import SampledField
from .poly2 import Poly2, parse_poly

__all__ = [
    "exact_vanishing_poly", "default_section_base",
    "canonical_function", "CANONICAL_FUNCTIONS",
]


def exact_vanishing_poly(name: str) -> Poly2 | None:
    """Exact polynomial vanishing on the system's known cycle, if any."""
    if isinstance(name, str) and name.strip().startswith("CK("):
        return parse_poly("1 - x^2 - y^2")
    return None


def default_section_base(name: str):
    if isinstance(name, str) and name.strip().startswith("CK("):
        return (1.0, 0.0)
    if isinstance(name, str) and name.strip().startswith("vanderpol"):
        return (2.0, 0.0)
    return None


def _paraboloid(box):
    return SampledField(
        value=lambda x, y: 1.0 - np.asarray(x, float) ** 2 - np.asarray(y, float) ** 2,
        box=box,
        derivs={
            (1, 0): lambda x, y: -2.0 * np.asarray(x, float) + 0.0 * np.asarray(y, float),
            (0, 1): lambda x, y: -2.0 * np.asarray(y, float) + 0.0 * np.asarray(x, float),
            (2, 0): lambda x, y: -2.0 + 0.0 * np.asarray(x, float) * np.asarray(y, float),
            (1, 1): lambda x, y: 0.0 * np.asarray(x, float) * np.asarray(y, float),
            (0, 2): lambda x, y: -2.0 + 0.0 * np.asarray(x, float) * np.asarray(y, float),
        },
    )


def _gauss(box):
    def g(x, y):
        x = np.asarray(x, float); y = np.asarray(y, float)
        return np.exp(-(x * x + y * y) / 2.0)

    return SampledField(
        value=g, box=box,
        derivs={
            (1, 0): lambda x, y: -np.asarray(x, float) * g(x, y),
            (0, 1): lambda x, y: -np.asarray(y, float) * g(x, y),
            (2, 0): lambda x, y: (np.asarray(x, float) ** 2 - 1.0) * g(x, y),
            (1, 1): lambda x, y: np.asarray(x, float) * np.asarray(y, float) * g(x, y),
            (0, 2): lambda x, y: (np.asarray(y, float) ** 2 - 1.0) * g(x, y),
        },
    )


def _wave(box):
    def f(x, y):
        return np.sin(np.asarray(x, float)) * np.exp(np.asarray(y, float) / 2.0)

    return SampledField(
        value=f, box=box,
        derivs={
            (1, 0): lambda x, y: np.cos(np.asarray(x, float)) * np.exp(np.asarray(y, float) / 2.0),
            (0, 1): lambda x, y: 0.5 * f(x, y),
            (2, 0): lambda x, y: -f(x, y),
            (1, 1): lambda x, y: 0.5 * np.cos(np.asarray(x, float)) * np.exp(np.asarray(y, float) / 2.0),
            (0, 2): lambda x, y: 0.25 * f(x, y),
        },
    )


CANONICAL_FUNCTIONS = {"paraboloid": _paraboloid, "gauss": _gauss, "wave": _wave}


def canonical_function(name: str, box) -> SampledField:
    try:
        return CANONICAL_FUNCTIONS[name](tuple(box))
    except KeyError:
        raise ValueError(f"unknown test function {name!r}") from None
