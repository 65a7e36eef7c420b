"""Sparse spike recovery via eigenmatrix and regularized eigenmatrix methods."""

from .eigenmatrix import (
    MethodConfig,
    PreparedSystem,
    RecoveryResult,
    Variant,
    build_eigenmatrix,
    esprit_extract,
    krylov_original,
    krylov_regularized,
    recover,
    recover_weights,
)
from .kernels import (
    CollocationNodes,
    Domain,
    KernelDescriptor,
    Kind,
    Observations,
    SampleSet,
    SpikeSignal,
    UNIT_DISK,
    add_noise,
    build_collocation_system,
    eval_kernel,
    generate_samples,
    synthesize,
)
from .metrics import ErrorPair, match_and_error
from .regularization import (
    SvdFactors,
    TikhonovSolution,
    compute_svd,
    lcurve_select,
    tikhonov_solve,
    truncated_pinv_apply,
)
from .experiments import (
    ExperimentPreset,
    RunRecord,
    check_sweep,
    emit_report,
    load_preset,
    make_method,
    run_one,
    run_sweep,
)

__version__ = "0.1.0"
