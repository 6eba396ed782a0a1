"""Census of the canonical circular systems.

The CK(k) family

    x' = -y + x (1 - x^2 - y^2)^k,   y' = x + y (1 - x^2 - y^2)^k

carries the unit circle as a limit cycle of multiplicity k. This script
locates the cycle from a transversal section, estimates its multiplicity
from a windowed displacement fit, computes the characteristic exponent
(the integral of the divergence over one period) and cross-checks the
multiplier identity exp(exponent) = return-map derivative, the latter read
off the multiplicity fit as pi'(xi*) = 1 + c_1 (c_1 estimates d'(xi*)). The
two agree to about 1e-10 on the hyperbolic CK(1) cycle; at a non-hyperbolic
cycle c_1 is near 0 and carries the fit's truncation error.
"""
import numpy as np

from cyclelab import cycles as cy
from cyclelab.field import ck_system, vanderpol

for k in (1, 2, 3):
    X = ck_system(k)
    section = cy.section_for_field(X, (1.0, 0.0))
    census = cy.find_cycles(X, section, (-0.5, 0.5), 25)
    print(f"CK({k}): {len(census)} cycle(s)")
    for c in census:
        est = cy.multiplicity(X, c)
        mult = 1.0 + est.coefficients[1]
        print(f"  xi* = {c.xi_star:+.3e}  radius = {c.mean_radius:.9f}  "
              f"period = {c.period:.9f}")
        print(f"  exponent = {c.exponent:+.3e}   multiplicity d = {est.d} "
              f"(window h = {est.h})")
        print(f"  multiplier identity: exp(K) = {np.exp(c.exponent):.9e}  "
              f"1 + c_1 = {mult:.9e}")
    print()

# a generic hyperbolic cycle away from any circular normal form
vdp = vanderpol(1.0)
section = cy.section_for_field(vdp, (2.0, 0.0))
census = cy.find_cycles(vdp, section, (-0.5, 0.5), 21)
for c in census:
    print(f"van der Pol mu=1: radius proxy {c.mean_radius:.6f}, "
          f"period {c.period:.6f}, exponent {c.exponent:+.6f} (hyperbolic, stable)")
