"""Census of the canonical circular systems.

The CK(k) family

    x' = -y + x (1 - x^2 - y^2)^k,   y' = x + y (1 - x^2 - y^2)^k

carries the unit circle as a limit cycle of multiplicity k. This script
locates the cycle from a transversal section, estimates its multiplicity
from a windowed displacement fit, computes the characteristic exponent
(the integral of the divergence over one period) and, at a hyperbolic
cycle (d = 1), cross-checks the multiplier identity exp(exponent) =
return-map derivative, the latter read off the multiplicity fit as
pi'(xi*) = 1 + c_1 (c_1 estimates d'(xi*)); the two agree to about 1e-10 on
CK(1). At d > 1 the fit found c_1 below its significance threshold, so c_1
carries the fit's truncation error and gives no derivative estimate.
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
        print(f"  xi* = {c.xi_star:+.3e}  radius = {c.mean_radius:.9f}  "
              f"period = {c.period:.9f}")
        print(f"  exponent = {c.exponent:+.3e}   multiplicity d = {est.d} "
              f"(window h = {est.h})")
        if est.d == 1:
            print(f"  multiplier identity: exp(K) = {np.exp(c.exponent):.9e}  "
                  f"1 + c_1 = {1.0 + est.coefficients[1]:.9e}")
        else:
            print("  multiplier identity not checked: c_1 is below the fit's "
                  "significance threshold, so it gives no derivative estimate")
    print()

# a generic hyperbolic cycle away from any circular normal form
vdp = vanderpol(1.0)
section = cy.section_for_field(vdp, (2.0, 0.0))
census = cy.find_cycles(vdp, section, (-0.5, 0.5), 21)
for c in census:
    print(f"van der Pol mu=1: radius proxy {c.mean_radius:.6f}, "
          f"period {c.period:.6f}, exponent {c.exponent:+.6f} (hyperbolic, stable)")
