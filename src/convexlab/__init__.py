"""Noncongruent convex body pairs with matching section, slab, and
projection intrinsic volumes, plus the numerical machinery to check it.
"""

import os as _os

# BLAS pools read these at first numpy import, so pin them before any
# submodule pulls numpy in.  An explicit CONVEXLAB_THREADS overrides values
# already exported.  Results are thread-count independent either way; this
# only keeps CPU usage predictable.
_threads = _os.environ.get("CONVEXLAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ[_var] = _threads

from .bodies import (
    BUMP_PEAK,
    BodyError,
    ConvexBodyOracle,
    PolytopeConstruction,
    ProfileValidation,
    RevolutionBodySpec,
    ball_oracle,
    build_polytope_pair,
    bump,
    make_revolution_spec,
    oracle_of,
    profile,
    revolution_radial,
    revolution_support,
    validate_revolution_spec,
)
from .experiments import (
    PAIR_NAMES,
    BodyPair,
    ExperimentError,
    ExperimentReport,
    NoncongruenceCertificate,
    SampleTable,
    certify_report,
    convergence_experiment,
    kubota_intrinsic_volume,
    lemma1_check,
    make_pair,
    noncongruence_certificates,
    projections_experiment,
    sections_experiment,
    slab_experiment,
)
from .grassmann import (
    RngStream,
    Subspace,
    embed,
    kappa,
    sample_haar_bases,
    sample_haar_subspace,
    sample_sphere,
)
from .intrinsic import (
    EstimateError,
    IVEstimate,
    ball_intrinsic_volume,
    boundary_polyline,
    flag_coefficient,
    planar_metrics_from_oracle,
    steiner_disc_area,
    volume_radial,
)
from .polykernel import (
    HPolytope,
    Polygon,
    PolytopeError,
    VRep,
    convex_hull_2d,
    enumerate_vertices,
    poly3_intrinsic_volumes,
    polygon_metrics,
    polytope_radial,
    projection_polygon,
    section_hpolytope,
    section_polygon,
)
from .report import (
    canonical_json,
    report_to_dict,
    write_report_json,
    write_samples_csv,
    write_suite_csv,
)
from .transforms import (
    SlabSpec,
    max_slab_halfwidth,
    section_oracle,
    slab_oracle,
    translate_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BUMP_PEAK", "BodyError", "BodyPair", "ConvexBodyOracle", "EstimateError",
    "ExperimentError", "ExperimentReport", "HPolytope", "IVEstimate",
    "NoncongruenceCertificate", "PAIR_NAMES", "Polygon",
    "PolytopeConstruction", "PolytopeError", "ProfileValidation",
    "RevolutionBodySpec", "RngStream", "SampleTable", "SlabSpec", "Subspace",
    "VRep", "ball_intrinsic_volume", "ball_oracle",
    "boundary_polyline", "build_polytope_pair", "bump",
    "canonical_json", "certify_report", "convergence_experiment",
    "convex_hull_2d", "embed", "enumerate_vertices", "flag_coefficient",
    "kappa", "kubota_intrinsic_volume", "lemma1_check",
    "make_pair", "make_revolution_spec", "max_slab_halfwidth",
    "noncongruence_certificates", "oracle_of",
    "planar_metrics_from_oracle", "poly3_intrinsic_volumes",
    "polygon_metrics", "polytope_radial", "profile", "projection_polygon",
    "projections_experiment", "report_to_dict",
    "revolution_radial", "revolution_support", "sample_haar_bases",
    "sample_haar_subspace", "sample_sphere", "section_hpolytope",
    "section_oracle", "section_polygon", "sections_experiment",
    "slab_experiment", "slab_oracle",
    "steiner_disc_area", "translate_oracle",
    "validate_revolution_spec", "volume_radial",
    "write_report_json", "write_samples_csv", "write_suite_csv",
]
