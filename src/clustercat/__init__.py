"""Exact combinatorics of cluster categories of Dynkin types A and D.

Layers, bottom up: dynkin (AR quiver of mod kQ by knitting), reps
(independent representation-theoretic oracle), cluster (the cluster category
and its mesh Hom engine), tilting (cluster-tilting objects and mutation),
algebra (cluster-tilted endomorphism algebras and their modules), hammocks
(factorization supports and projective dimension), render/cli (output).
"""

from .algebra import (
    AlgebraModule,
    ClusterTiltedAlgebra,
    PdClass,
    build_algebra,
    module_of,
    pd_class,
)
from .cluster import ClusterCategory, MeshConsistencyError
from .dynkin import (
    InputError,
    QuiverDescriptor,
    build_quiver,
    euler_form,
    knit,
    positive_roots,
)
from .hammocks import (
    HammockSet,
    Shape,
    TheoremReport,
    UnclassifiableShapeError,
    factorization_ideal_nonzero,
    hij,
    hij_closed_form,
    left_hammock,
    right_hammock,
    sectional_path,
    verify_main_theorem,
)
from .render import RenderSpec, ar_layout, export_json
from .tilting import (
    MutationError,
    TiltingObject,
    enumerate_tiltings,
    first_ext_violation,
    initial_tilting,
    is_cluster_tilting,
    mutate,
    mutation_walk,
    sample_tiltings,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraModule",
    "ClusterCategory",
    "ClusterTiltedAlgebra",
    "HammockSet",
    "InputError",
    "MeshConsistencyError",
    "MutationError",
    "PdClass",
    "QuiverDescriptor",
    "RenderSpec",
    "Shape",
    "TheoremReport",
    "TiltingObject",
    "UnclassifiableShapeError",
    "ar_layout",
    "build_algebra",
    "build_quiver",
    "enumerate_tiltings",
    "euler_form",
    "export_json",
    "factorization_ideal_nonzero",
    "first_ext_violation",
    "hij",
    "hij_closed_form",
    "initial_tilting",
    "is_cluster_tilting",
    "knit",
    "left_hammock",
    "module_of",
    "mutate",
    "mutation_walk",
    "pd_class",
    "positive_roots",
    "right_hammock",
    "sample_tiltings",
    "sectional_path",
    "verify_main_theorem",
]
