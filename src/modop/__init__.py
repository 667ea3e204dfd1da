"""Operator classification over finite-dimensional block C*-algebras.

Free modules over A = M_{n_1} + ... + M_{n_k}, adjointable maps between
them, and quantitative certificates: Fredholm/Weyl index bookkeeping in
K0, Drazin core-nilpotent splittings, subspace-angle geometry of closed
sums, and oblique (Banach-style) regular-operator calculus.
"""

from .algebra import AlgebraElement, AlgebraShape
from .banach import (
    BanachWitness,
    ObliqueDecomposition,
    PerturbationRecord,
    ProductRecord,
    RegularOperator,
    banach_perturbation,
    banach_product,
    defect_witness,
    generalized_weyl_banach,
    make_regular,
    make_regular_orthogonal,
    oblique_decomposition,
)
from .drazin import (
    CommutingBrowderReport,
    CriterionReport,
    DrazinReport,
    DualityReport,
    commuting_browder_check,
    commuting_drazin_criterion,
    drazin_dual_check,
    drazin_inverse,
)
from .errors import (
    DataError,
    IdentityViolation,
    IllConditionedError,
    ModopError,
    StructureError,
    UnmetHypothesisError,
)
from .fredholm import (
    BFredholmReport,
    ChainReport,
    ExactSequenceReport,
    FredholmReport,
    ProductChainReport,
    WitnessPair,
    b_fredholm_commuting_check,
    b_fredholm_report,
    exact_sequence,
    fredholm_report,
    product_chain,
    weyl_defect_witness,
    weyl_perturbation_chain,
)
from .geometry import (
    CompositionReport,
    GeometryReport,
    bouldin_criterion,
    closed_sum_report,
    dixmier_angle,
    min_modulus_restricted,
)
from .linmap import AdjointableMap, BrowderWitness
from .modules import K0Class, ModuleVector, Submodule, inner_product
from .probes import (
    FamilyDiagnostic,
    family_table,
    left_multiplier_family,
    multiplier_family,
    nonclosed_square_family,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

__version__ = "0.1.0"
