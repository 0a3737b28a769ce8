"""Schur-parameter coordinates for PSD matrices, states and channels."""

from .channels import (
    ChoiMatrix,
    KrausSet,
    LinearMap,
    QubitChannelNF,
    adjoint,
    apply,
    capacity_D,
    choi_from_map,
    choi_tensor,
    depolarizing_channel,
    identity_channel,
    is_completely_positive,
    is_trace_preserving,
    is_unital,
    kraus_from_choi,
    map_from_choi,
    qubit_nf_choi,
    qubit_nf_params,
)
from .displacement import displacement_inverse
from .linalg import (
    DEFAULT_TOL,
    ConsistencyError,
    NotPSDError,
    is_hermitian,
    kron,
    maxnorm,
    reference_cholesky,
    reference_determinant,
    reference_eigenvalues,
)
from .params import (
    SchurParams,
    cholesky_factor,
    det_from_params,
    forward,
    inverse,
    is_psd_via_params,
)
from .states import (
    DensityState,
    bell_state,
    entropy_E,
    entropy_E0,
    is_pure,
    is_separable_params,
    is_separable_ppt,
    partial_transpose,
    pure_vector,
    state_from_coeffs,
    state_from_matrix,
    tensor_params,
    werner_state,
)

__version__ = "0.1.0"
