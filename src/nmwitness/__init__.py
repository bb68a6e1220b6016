"""Small-time Choi states of Lindblad dynamics and non-Markovianity witnesses.

The package builds the Choi state of a short evolution step I + eps * L for a
Lindblad-type generator L, classifies it as divisible (Markovian) or not by
its spectrum, and constructs linear witnesses two ways: spectral projectors
onto negative eigenspaces, and the hyperplane through the nearest divisible
Choi state found by convex projection. Probe routines sample the convex
geometry of the divisible set.
"""

__version__ = "0.1.0"

from .linalg import (
    HermiticityError,
    ShapeError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    gell_mann_basis,
    hermitian_eig,
    hs_inner,
    hs_norm,
    matrix_exp,
)
from .rates import (
    ConstantRate,
    ExpressionRate,
    Rate,
    RateEvalError,
    RateParseError,
    TableRate,
    as_rate,
    parse,
)
from .channels import (
    LindbladGenerator,
    SuperOperator,
    builtin_dephasing,
    builtin_pauli,
    exact_channel,
    first_order_channel,
    gksl_superoperator,
)
from .choi import (
    ChoiMatrix,
    MarkovianTargetError,
    NMClassification,
    ScanReport,
    choi_of_channel,
    choi_of_generator,
    classify,
    max_entangled_state,
    require_non_markovian,
    scan,
)
from .witness import (
    MarkovianFamily,
    NearestMCSResult,
    UniquenessResult,
    VerificationResult,
    WitnessOperator,
    expectation,
    fixed_basis_family,
    nearest_mcs_fixed_basis,
    nearest_mcs_full_gksl,
    pauli_family,
    sample_markovian_chois,
    spectral_witnesses,
    theorem3_witness,
    uniqueness_check,
    verify_witness,
)
from .geometry import (
    ProbeReport,
    convexity_probe,
    extreme_point_probe,
    hs_norm_probe,
    separation_demo,
)

__all__ = [name for name in dir() if not name.startswith("_")]
