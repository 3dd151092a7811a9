"""Exact computations with Fischer spaces, Matsuo algebras over Q(eta), and
axial subalgebras of Monster type (2*eta, eta)."""

from .scalars import (
    ETA,
    HALF_ETA,
    EtaPoly,
    EtaScalar,
    PoleError,
    Rational,
    field_op,
    parse_scalar,
    poly_gcd,
    rational_roots,
    square_free_part,
)
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    GroupTableError,
    automorphism_by_images,
    builtin_group,
    element_order,
    load_cayley_table,
    validate_orders,
)
from .fischer import (
    Diagram,
    FischerSpace,
    Point,
    build_named_space,
    build_wreath_space,
    canonical_diagram,
    diagram_of,
    is_space_automorphism,
    make_point,
    parse_space_spec,
    subspace,
    third_point,
)
from .algebra import (
    AlgebraVector,
    GramData,
    axis_product,
    critical_values,
    gram,
    radical_dim,
    vec_product,
)
from .closure import (
    EchelonBasis,
    ScalarMode,
    Subalgebra,
    UnsafeEtaError,
    close,
    consistency_check,
    is_direct_sum,
    specialized_dimension,
)
from .axial import (
    AdjointNotDiagonalizableError,
    EigenDecomposition,
    FusionLaw,
    FusionReport,
    MiyamotoMap,
    check_fusion,
    check_primitive,
    eigen_decompose,
    jordan_law,
    miyamoto_algebra_map,
    miyamoto_point_map,
    monster_law,
    tau_composition_identity,
)
from .flips import (
    FLIP_FAMILIES,
    FlipInvolution,
    OrbitDecomposition,
    classify_orbits,
    fixed_subalgebra_basis,
    flip_report,
    flip_subalgebra,
    standard_flip,
)
from .classify import (
    ClassificationReport,
    TypeDConfig,
    classify,
    enumerate_configs,
)

__version__ = "0.1.0"
