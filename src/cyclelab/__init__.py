"""cyclelab: a numerical laboratory for limit-cycle splitting in planar
polynomial vector fields.

Core building blocks: bivariate monomial polynomials (poly2), tensor
Bernstein polynomials and Bernstein approximation with derivative control
(bernstein), vector fields and perturbation families (field), adaptive
integration with section events (flow), return/displacement-map analysis
(cycles), trapping annuli (annulus), discriminant and root-census machinery
(discriminant), and the experiment harness (lab, cli).
"""

__version__ = "0.1.0"

from .poly2 import Poly2, parse_poly                                    # noqa: F401,E402
from .field import (                                                    # noqa: F401,E402
    PolyVectorField, CollapseField, ck_system, vanderpol, parse_field,
    divergence, rotate_family, gradient_collapse_family, cr_distance,
)
from .bernstein import (                                                # noqa: F401,E402
    BernsteinPoly, SampledField, bernstein_fit, cr_error, min_degree_for_tolerance,
)
from .flow import Orbit, integrate, next_section_crossing               # noqa: F401,E402
from .cycles import (                                                   # noqa: F401,E402
    Section, LimitCycle, section_for_field, return_map, displacement,
    find_cycles, multiplicity, characteristic_exponent,
    divergence_integral_terms, perko_derivative,
    theorem1_splitting, build_cycle,
)
from .annulus import Annulus, build_trapping_annulus, verify_annulus    # noqa: F401,E402
# the discriminant *function* lives one level down (cyclelab.discriminant is
# the submodule): from cyclelab.discriminant import discriminant
from .discriminant import (                                             # noqa: F401,E402
    MonicPoly, real_root_census, root_count_congruence, fit_displacement_poly, q2_search,
)
from .lab import (                                                      # noqa: F401,E402
    ExperimentConfig, Report, build_numeric_F, run_pipeline,
)
