"""Differential geometry of surfaces immersed in three-dimensional normed spaces.

The library computes the Birkhoff–Gauss normal field, Minkowski curvatures,
Dupin metrics, and affine/Minkowski distance functions for smooth surfaces in
an admissible normed space, plus Blaschke-structure and planar (Ermakov–Pinney)
diagnostics. `minksurf.cli` exposes the property-check driver.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ComplexEigenvalues,
    ConfigError,
    DegenerateH,
    DegenerateJet,
    DegeneratePairing,
    EvaluationFailure,
    InvalidParameter,
    MinksurfError,
    MissingDualJets,
    NewtonDivergence,
    NonConvexCurve,
    NonElliptic,
    NonSmoothPoint,
    NotCritical,
    NotSPD,
    NumericalFailure,
    OddSampleCount,
    OutOfDomain,
    SingularMetric,
    SingularRestriction,
    ZeroDirection,
)
from .numerics import DEFAULT_CONFIG, NumericsConfig
from .norms import (
    NormModel,
    ScalarJet,
    custom_norm,
    ellipsoid_norm,
    euclidean_norm,
    lp_norm,
    norm_from_spec,
    tangent_basis,
)
from .surfaces import (
    SurfaceJet,
    SurfacePatch,
    catenoid,
    ellipsoid,
    euclidean_sphere,
    evaluate_jet,
    evaluate_jets,
    flip_orientation,
    graph,
    grid_points,
    minkowski_sphere,
    reparametrize_linear,
    saddle,
    scale_surface,
    surface_from_spec,
    torus,
)
from .geometry import (
    GeometryBatch,
    PointGeometry,
    asymptotic_directions,
    dupin_indicatrix,
    dupin_orthogonal_pair_sum,
    gaussian_by_determinants,
    geometry_batch,
    mean_by_indicatrix_average,
    normal_curvature,
    normal_curvature_via_dupin,
    point_geometry,
    weingarten_eigen_raw,
)
from .distances import (
    DistanceData,
    affine_distance,
    decomposition_residual,
    distance_data,
    hess_b_at_critical,
    hess_b_matrix,
    is_critical,
    minkowski_distance,
    minkowski_distance_field,
    nabla_laplacian_rho,
    nabla_laplacian_rho_details,
    sphere_characterization_check,
    tangent_plane_distance,
    tangent_plane_distance_field,
)
from .blaschke import (
    BlaschkeSample,
    affine_normal,
    blaschke_residual,
    blaschke_sample,
    ellipse_support,
    euclidean_gaussian,
    planar_support_check,
    spectral_second_derivative,
    support_from_csv,
)

__all__ = [
    "__version__",
    # numerics
    "NumericsConfig", "DEFAULT_CONFIG",
    # norms
    "NormModel", "ScalarJet", "euclidean_norm", "ellipsoid_norm", "lp_norm",
    "custom_norm", "norm_from_spec", "tangent_basis",
    # surfaces
    "SurfaceJet", "SurfacePatch", "euclidean_sphere", "ellipsoid", "graph",
    "saddle", "torus", "catenoid", "minkowski_sphere", "evaluate_jet", "evaluate_jets",
    "flip_orientation", "reparametrize_linear", "scale_surface", "grid_points",
    "surface_from_spec",
    # geometry
    "PointGeometry", "point_geometry", "GeometryBatch", "geometry_batch", "normal_curvature",
    "normal_curvature_via_dupin", "dupin_indicatrix",
    "mean_by_indicatrix_average", "dupin_orthogonal_pair_sum",
    "asymptotic_directions", "gaussian_by_determinants", "weingarten_eigen_raw",
    # distances
    "DistanceData", "tangent_plane_distance", "tangent_plane_distance_field",
    "minkowski_distance", "minkowski_distance_field", "is_critical",
    "hess_b_at_critical", "hess_b_matrix", "affine_distance",
    "decomposition_residual", "nabla_laplacian_rho",
    "nabla_laplacian_rho_details", "distance_data",
    "sphere_characterization_check",
    # blaschke
    "BlaschkeSample", "blaschke_residual", "blaschke_sample", "affine_normal",
    "euclidean_gaussian", "planar_support_check", "ellipse_support",
    "spectral_second_derivative", "support_from_csv",
    # errors
    "MinksurfError", "NonSmoothPoint", "InvalidParameter", "MissingDualJets",
    "NewtonDivergence", "SingularRestriction", "OutOfDomain", "DegenerateJet",
    "ComplexEigenvalues", "ZeroDirection", "SingularMetric",
    "DegeneratePairing", "NotCritical", "DegenerateH", "NonElliptic",
    "NonConvexCurve", "NotSPD", "OddSampleCount", "EvaluationFailure",
    "ConfigError", "NumericalFailure",
]
