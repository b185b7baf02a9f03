"""Numerical verification engine for indefinite locally conformal Kahler
geometry: model charts, connections, foliations, lightlike transversals,
CR layers, and pointwise checks of the theorem-level identities."""

from .charts import (
    ChartDomainError,
    MetricChart,
    apply_j,
    christoffel,
    conformal_connection_shift,
    covariant_derivative,
    exterior_derivative_1form,
    exterior_derivative_2form,
    hol_from_real_coords,
    kahler_form,
    koszul_christoffel,
    lie_bracket,
    real_coords,
    real_vector,
)
from .cr import (
    cayley_cr_residual,
    chart_radius,
    cr_fibre,
    leaf_chart_image_check,
    leaf_extension_hypothesis,
    leaf_label,
    levi_distribution,
    levi_flat_detector,
    levi_form,
    same_leaf,
    siegel_levi_matrix,
    siegel_levi_signature,
    tangential_cr_residual,
)
from .foliations import (
    complex_submanifold_mean_curvature,
    first_foliation_fibre,
    gauss_weingarten,
    h_P_residual,
    integrability_residual,
    isotropic_transversal_pair,
    lightlike_transversal,
    second_foliation_fibre,
)
from .lck import (
    LCKStructure,
    LeeData,
    lee_data,
    nabla_J_defect,
    parallel_lee_residual,
    weyl_connection,
)
from .models import (
    HopfModel,
    b_form,
    cayley,
    deck_equivalent,
    eps_signs,
    fibration_split,
    flat_chart,
    gab_invariance_residual,
    hopf_chart,
    hopf_diffeo,
    hopf_diffeo_inv,
    retraction,
    submersion_isometry_residual,
    synthetic_null_structure,
    torus_pullback_isometry_residual,
    tricerri_chart,
)
from .report import RunConfig, SuiteResult, VerificationReport, to_csv, to_json
from .semieuclid import (
    SemiEuclideanForm,
    independent_rows,
    inner,
    orthogonal_complement,
    restricted_gram,
    same_span,
    signature_of,
)
from .suites import SUITES, run_config

__version__ = "0.1.0"
