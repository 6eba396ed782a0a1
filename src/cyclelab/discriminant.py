"""Univariate discriminants, Sturm root counts, and displacement-map fits.

The discriminant convention is fixed throughout as

    Delta(p) = (-1)^(d(d-1)/2) * Res(p, p')

with the resultant computed as a Sylvester-matrix determinant (LU with
partial pivoting). Under this convention the sign law for squarefree real
polynomials is

    sign(Delta) = (-1)^((d - r)/2),   r = number of distinct real roots,

i.e. (d - r)/2 counts complex-conjugate pairs. Note that some references
state the odd-degree congruence rules for the unsigned resultant instead;
with the present convention the admissible counts for odd d are r = d (mod 4)
when Delta > 0 and r = d - 2 (mod 4) when Delta < 0 (witness: x^3 - x has
Delta = 4 and three real roots). The sign law here is validated against the
Sturm census on large random sweeps. The census (Sturm's theorem; Basu,
Pollack & Roy, Algorithms in Real Algebraic Geometry, ch. 2) runs on plain
floats: its remainders take NumPy polydiv's operations in its order, so
they have its bits, NaN and inf included, without its cost per call on a
handful of coefficients, and its signs follow np.sign's rules.

The monic degree-d polynomial fitted to displacement samples plays the role
of the cycle-structure factor of the displacement map: dividing the
least-squares fit by its leading coefficient removes the strictly positive
smooth unit, and its roots track the section fixed points.

The q2 search does its per-field work in passes over all fields at once,
each with the bits of the one-field path: every field's jitter is drawn in
one call and added to X's coefficients as one array, every field's orbits
run as one lockstep call (cycles.displacements), and every returned row is
fitted with one scale and one Vandermonde matrix (_monic_fits, the fit of
fit_displacement_poly).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cycles as _cycles
from . import flow as _flow
from .field import PolyVectorField
from .poly2 import Poly2


class DegreeTooSmall(Exception):
    """Discriminant needs degree >= 2."""


class ZeroDiscriminant(Exception):
    """Congruence law applies only to squarefree polynomials (Delta != 0)."""


class LeadingCoefficientVanishes(Exception):
    """Fit leading coefficient not significant; wrong degree or window."""


@dataclass(frozen=True)
class MonicPoly:
    """x^d + a_{d-1} x^{d-1} + ... + a_0; coefficients exclude the leading 1."""

    coeffs: tuple[float, ...]  # (a_0, ..., a_{d-1})

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) < 1:
            raise ValueError("degree must be >= 1")
        if not all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full_coeffs(self) -> np.ndarray:
        """Ascending coefficients including the leading 1."""
        return np.array(list(self.coeffs) + [1.0])

    def derivative_coeffs(self) -> np.ndarray:
        c = self.full_coeffs()
        return c[1:] * np.arange(1, len(c))


def _sylvester(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sylvester matrix of polynomials given by ascending coefficients."""
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    S = np.zeros((n, n))
    for row in range(dq):
        S[row, row: row + dp + 1] = p[::-1]
    for row in range(dp):
        S[dq + row, row: row + dq + 1] = q[::-1]
    return S


def resultant(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.linalg.det(_sylvester(p, q)))


def discriminant(p: MonicPoly) -> float:
    """Delta = (-1)^(d(d-1)/2) Res(p, p'); for monic p no leading division."""
    d = p.degree
    if d < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    res = resultant(p.full_coeffs(), p.derivative_coeffs())
    sign = -1.0 if (d * (d - 1) // 2) % 2 else 1.0
    return sign * res


def _max_abs(c) -> float:
    """np.max(np.abs(c)) of floats: NaN when c holds a NaN."""
    return max(map(abs, c)) if all(v == v for v in c) else math.nan


def _trim(c: list) -> list:
    """c without its trailing zeros, but at least its first entry
    (numpy.polynomial.polyutils.trimseq)."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _remainder(a: list, b: list) -> list:
    """The remainder of a by b, ascending coefficients, with the operations
    of numpy.polynomial.polynomial.polydiv in its order, on floats."""
    a, b = _trim(a), _trim(b)
    n = len(b) - 1
    if len(a) <= n:
        return a
    if n == 0:
        return [a[0] * 0]
    lead = b[-1]
    b = [v / lead for v in b[:-1]]
    for i in range(len(a) - n - 1, -1, -1):
        q = a[i + n]
        for k in range(n):
            a[i + k] = a[i + k] - b[k] * q
    return _trim(a[:n])


def _sturm_chain(p: MonicPoly) -> list[list[float]]:
    """Euclidean remainder chain as lists of floats, ascending; remainders,
    NumPy polydiv's bit for bit (_remainder), normalized to unit max
    coefficient (positive scaling preserves sign counts)."""
    c = [*p.coeffs, 1.0]
    dp = [v * k for k, v in enumerate(c) if k]
    m = _max_abs(dp)  # at least p's degree: p' leads with it
    chain = [c, [v / m for v in dp]]
    eps = 1e-13
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        scale = max(_max_abs(a), 1.0)
        rem = _remainder(a, b)
        # trim numerically-zero leading coefficients
        while len(rem) > 1 and abs(rem[-1]) < eps * scale:
            rem = rem[:-1]
        if len(rem) == 1 and abs(rem[0]) < eps * scale:
            break  # nonconstant gcd: p has a repeated root
        m = _max_abs(rem)
        # rem is all zeros only when scale is NaN, and 0/0 is NaN in NumPy
        chain.append([-v / m for v in rem] if m else [math.nan] * len(rem))
    return chain


def _sign_variations(values) -> int:
    """Sign changes along values by np.sign's rules: zeros skipped, and a
    NaN kept as a sign that changes against neither neighbour."""
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a < 0 < b or b < 0 < a)


def real_root_census(p: MonicPoly) -> int:
    """Number of distinct real roots via the Sturm chain at -inf / +inf.

    Signs at the infinities come from leading coefficients exactly; multiple
    roots are counted once (the chain terminates at the gcd).
    """
    chain = _sturm_chain(p)
    at_pinf = [c[-1] for c in chain]
    at_minf = [c[-1] * (-1.0) ** (len(c) - 1) for c in chain]
    return _sign_variations(at_minf) - _sign_variations(at_pinf)


def root_count_congruence(d: int, delta_sign: int) -> tuple[int, ...]:
    """Admissible distinct-real-root counts for a squarefree degree-d poly.

    Implements the oracle-validated law sign(Delta) = (-1)^((d-r)/2): the
    returned counts are those r in {d, d-2, ...} whose complex-pair count
    matches the sign. delta_sign must be +1 or -1 (a vanishing discriminant
    means a repeated root, where the law does not apply).
    """
    if delta_sign not in (+1, -1):
        raise ZeroDiscriminant("delta_sign must be +1 or -1 (squarefree case only)")
    if d < 1:
        raise ValueError("degree must be >= 1")
    out = []
    r = d
    while r >= 0:
        pairs = (d - r) // 2
        if (-1) ** pairs == delta_sign:
            out.append(r)
        r -= 2
    return tuple(out)


def _guarded_fits(xi, rows, degree: int, fit_degree: int | None):
    """Scaled least-squares fits of rows of displacement values at the
    sample points xi, in xi/h, h = max |xi|, of degree fit_degree (default
    degree + 3, at least degree, at most one less than the sample count):
    h and each row's (coefficients, residual). The rows share their
    points, so one h and one Vandermonde matrix serve them all."""
    if len(xi) < 4 * degree + 1:
        raise ValueError(f"need at least {4 * degree + 1} samples for degree {degree}")
    if fit_degree is None:
        fit_degree = degree + 3
    fit_degree = min(max(fit_degree, degree), len(xi) - 1)
    h = float(np.max(np.abs(xi)))
    if h == 0:
        raise ValueError("degenerate sample window")
    V = np.vander(xi / h, fit_degree + 1, increasing=True)
    return h, [_cycles._scaled_fit(V, values) for values in rows]


def _monic_fits(xi, rows, degree: int, fit_degree: int | None = None) -> list:
    """fit_displacement_poly of each row of displacement values at the
    sample points xi: its MonicPoly, or the LeadingCoefficientVanishes it
    would raise."""
    h, fits = _guarded_fits(xi, rows, degree, fit_degree)
    powers = h ** np.arange(degree + 1)
    out = []
    for scaled, residual in fits:
        lead_scaled = scaled[degree]
        if abs(lead_scaled) <= 1e3 * residual or lead_scaled == 0.0:
            out.append(LeadingCoefficientVanishes(
                f"degree-{degree} coefficient {lead_scaled:.3g} below 1e3 * residual "
                f"{residual:.3g}"))
            continue
        coef = scaled[: degree + 1] / powers
        out.append(MonicPoly(tuple((coef / coef[degree])[:degree])))
    return out


def fit_displacement_poly(samples, degree: int, fit_degree: int | None = None) -> MonicPoly:
    """Monic degree-d polynomial extracted from displacement samples (xi, d(xi)).

    The displacement map factors as a strictly positive smooth unit times the
    monic degree-d structure polynomial, so the samples carry real content
    above order d. The least-squares model therefore fits degree
    fit_degree = d + 3 by default (guard coefficients absorb the unit's
    tail instead of polluting the residual) and the monic normalization,
    dividing the orders <= d by the degree-d coefficient, is the surrogate
    for removing the unit. The result is invariant under positive rescaling
    of the samples. The degree-d coefficient must exceed 1e3 times the fit
    residual, else LeadingCoefficientVanishes (window too small, or the
    assumed degree is wrong and the multiplicity estimate should be redone).
    The fit is _monic_fits', which q2_search runs on all its rows at once.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must be (xi, value) pairs")
    fit, = _monic_fits(pts[:, 0], [pts[:, 1]], degree, fit_degree)
    if isinstance(fit, LeadingCoefficientVanishes):
        raise fit
    return fit


def _nodes(d: int, window: float, center: float = 0.0, n: int | None = None,
           skip_failures: bool = False) -> np.ndarray:
    """displacement_samples' Chebyshev nodes."""
    n = n or (4 * d + 1)
    if skip_failures:
        n = max(n, 6 * d + 3)
    return _cycles._chebyshev_nodes(center, window, n)


def displacement_samples(X, section, d: int, window: float, center: float = 0.0,
                         n: int | None = None, tol=_flow.DEFAULT_TOL,
                         skip_failures: bool = False):
    """Displacement sampled at Chebyshev nodes spanning [center-w, center+w].

    With skip_failures=True, nodes whose orbit escapes before returning are
    dropped (families that remove the cycle blow up on one side); the fit
    machinery downstream checks it still has enough points.
    """
    out = []
    for xi in _nodes(d, window, center, n, skip_failures):
        try:
            out.append((xi, _cycles.displacement(X, section, xi, tol=tol)))
        except _flow.OrbitFailure:
            if not skip_failures:
                raise
    return out


@dataclass
class Q2Sample:
    index: int
    phi: float | None
    n_real_roots: int | None
    error: str | None = None


@dataclass
class Q2Report:
    radius: float
    n_samples: int
    seed: int
    samples: list[Q2Sample]
    best_index: int | None
    best_phi: float | None
    histogram: dict[int, int]

    def to_csv(self, path):
        """One row per sample; error is the failure's class name, empty on success."""
        lines = ["seed_index,phi,n_real_roots,radius,error"]
        for s in self.samples:
            phi_s = "" if s.phi is None else repr(s.phi)
            nroots = "" if s.n_real_roots is None else str(s.n_real_roots)
            lines.append(f"{s.index},{phi_s},{nroots},{self.radius!r},{s.error or ''}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


@lru_cache(maxsize=16)
def _triangle(degree: int) -> tuple:
    """The monomials x^i y^j with i + j <= degree, sorted."""
    return tuple((i, j) for i in range(degree + 1) for j in range(degree + 1 - i))


def _perturb_coeffs(X, rng, radius):
    """X with each coefficient of x^i y^j, i + j up to its component's
    degree, moved by a uniform draw in [-radius, radius]: P's monomials,
    then Q's, each in sorted order, take the draws in turn. One draw of n
    values gives what n draws of one value give, in order, so both
    components' draws come from one call and are added to X's coefficients
    on the two triangles as one array. A coefficient that ends at exactly
    0.0 is dropped, as Poly2 drops it (at radius 0 every monomial X lacks),
    so the fields keep X's monomials."""
    triangles = [_triangle(int(max(p.degree, 0))) for p in (X.P, X.Q)]
    coefficients = [p.coeffs.get(e, 0.0) for p, monomials in zip((X.P, X.Q), triangles)
                    for e in monomials]
    moved = (np.array(coefficients)
             + rng.uniform(-radius, radius, size=len(coefficients))).tolist()
    n = len(triangles[0])
    return PolyVectorField(Poly2._from_sorted(triangles[0], moved[:n]),
                           Poly2._from_sorted(triangles[1], moved[n:]))


def q2_search(X, section, d: int, radius: float, n_samples: int, seed: int,
              window: float = 0.025, tol=_flow.DEFAULT_TOL) -> Q2Report:
    """Randomized search for a perturbation with negative displacement-fit
    discriminant.

    Draws n_samples fields whose monomial coefficients (all exponent pairs up
    to the component degree, both components) are jittered uniformly within
    the given radius -- closeness in the coefficients topology -- computes the
    degree-d fit discriminant for each, and reports the minimum together
    with the histogram of distinct-real-root counts. Deterministic under seed;
    per-sample failures are recorded by their class name and skipped.

    Each field's jitter is drawn once, in one call of its own generator,
    and added as one array (_perturb_coeffs). The displacement orbits of all
    fields run together (cycles.displacements): each group of fields that
    share their monomials is signed once at the section base, and a field
    binds its own rhs() only when one of its lanes leaves the lockstep
    driver.
    All returned rows are fitted at once: the rows share their nodes, so one
    scale and one Vandermonde matrix serve them (_monic_fits). Every sample
    has the bits of fit_displacement_poly on that field's
    displacement_samples.
    """
    fields = [_perturb_coeffs(X, np.random.default_rng([seed, i]), radius)
              for i in range(n_samples)]
    nodes = _nodes(d, window)
    rows = _cycles.displacements(fields, section, nodes, tol=tol)
    # a row ends with the failure displacement_samples would raise, if any;
    # where no row returned, nothing is fitted and so nothing checks the nodes
    returned = [row for row in rows if not isinstance(row[-1], _flow.OrbitFailure)]
    fits = iter(_monic_fits(nodes, returned, d) if returned else ())
    samples = []
    for i, row in enumerate(rows):
        fit = row[-1] if isinstance(row[-1], _flow.OrbitFailure) else next(fits)
        if isinstance(fit, Exception):
            samples.append(Q2Sample(i, None, None, error=type(fit).__name__))
        else:
            samples.append(Q2Sample(i, discriminant(fit), real_root_census(fit)))
    histogram: dict[int, int] = {}
    best_index, best_phi = None, None
    for s in samples:
        if s.error:
            continue
        histogram[s.n_real_roots] = histogram.get(s.n_real_roots, 0) + 1
        if best_phi is None or s.phi < best_phi:
            best_index, best_phi = s.index, s.phi
    return Q2Report(
        radius=radius, n_samples=n_samples, seed=seed, samples=samples,
        best_index=best_index, best_phi=best_phi, histogram=histogram,
    )
