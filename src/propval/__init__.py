"""Truth-value assignment for quantum propositions as linear-system solvability.

A proposition about a quantum system is a projector on its state space.
Whether a pure state makes the proposition true, false, or neither
reduces to consistency of two linear systems built from the projector's
range and kernel bases.  This package implements those checks with
per-operation instrumentation, so the asymmetry of their costs (linear
versus cubic in the dimension) is measurable, along with the work/span
cost algebra that would erase the asymmetry on a
greater-than-unit-efficiency parallel machine, and the non-distributive
subspace-lattice semantics of compound propositions.
"""

from .costmodel import (
    Conjecture1Report,
    CostProfile,
    CostSample,
    GrowthFit,
    InsufficientSamples,
    InvalidBounds,
    ModelKind,
    PathKind,
    benchmark_paths,
    classical_cost,
    conjecture1_report,
    fit_growth,
    quantum_cost,
    samples_to_csv,
)
from .fixtures import (
    DegenerateDraw,
    FixtureSet,
    TargetKind,
    export_fixture,
    fixture_by_name,
    qubit_fixture,
    random_instance,
    spin52_fixture,
)
from .linalg import (
    BasisKind,
    DimensionMismatch,
    EchelonFactor,
    FullRankProjector,
    MalformedMatrixFile,
    NonFiniteEntry,
    NotHermitian,
    NotIdempotent,
    NotSquare,
    NotUnitNorm,
    Projector,
    StateVector,
    Subspace,
    ZeroProjector,
    decompose,
    independent_columns,
    kernel_basis,
    load_matrix,
    load_state,
    matrix_rank,
    null_space_basis,
    projector_from_state,
    range_basis,
    save_matrix,
    subspace_factor,
    validate_projector,
)
from .membership import (
    AugmentedMatrix,
    MembershipResult,
    ZeroColumn,
    kernel_membership_iterative,
    kernel_membership_matrix,
    membership_of,
    range_membership,
    residual_oracle,
    subspace_membership,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    InvalidTolerance,
    OpCounter,
    PropvalError,
    TolerancePolicy,
)
from .valuation import (
    CommutingOperators,
    NondistributivityReport,
    PhiNotInRange,
    TruthValue,
    TruthVerdict,
    demo_nondistributivity,
    join,
    meet,
    span_equal,
    valuate,
    valuate_ql,
)

__version__ = "0.1.0"
