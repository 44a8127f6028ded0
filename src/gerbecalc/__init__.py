"""Discrete engine for abelian bundle and gerbe cocycles.

Cochain data lives on the overlaps of a cover of a triangulated manifold,
graded by form degree and overlap depth.  The total coboundary combines the
index-deletion coboundary with a sign-twisted cellwise coboundary; its
cocycles encode bundles (level 0), gerbes (level 1), and the neighbouring
levels, with gauge equivalence decided by a sparse minimum-norm witness solve
and topological charges computed as exact telescoping sums.
"""

from .bicomplex import (
    BigradedCochain,
    GaugePotential,
    TotalCochain,
    big_d,
    cech_delta,
    dbar,
    permutation_sign,
    wrap,
)
from .builders import (
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    build_trivial,
    circle_complex,
    gerbopole_equator_pair,
    join_sphere3,
    two_cone_sphere,
)
from .cover import (
    Cover,
    GoodCoverReport,
    OverlapDiagnostic,
    betti_numbers,
    check_good_cover,
    integer_rank,
)
from .deligne import (
    DEFAULT_EQUIVALENCE_TOL,
    DEFAULT_VALIDATION_TOL,
    EquivalenceResult,
    GerbeDatum,
    ResidualPeak,
    ValidationReport,
    charge,
    curvature,
    gauge_equivalent,
    gauge_shift,
    higher_gauge_shift,
    validate_cocycle,
)
from .errors import (
    FormatError,
    GerbecalcError,
    InvalidInputError,
    NumericError,
    StructuralError,
)
from .rng import Lcg64
from .serialize import datum_from_dict, datum_to_dict, load_datum, save_datum
from .simplicial import (
    Chain,
    Cochain,
    SimplicialComplex,
    boundary_matrix,
    chain_boundary,
    exterior_derivative,
    fundamental_cycle,
    integrate,
)

__version__ = "0.1.0"
