"""Exception and warning types shared across the toolkit."""


class SpikerecError(Exception):
    """Base class of the numerical failures: a run that raises one is a failed
    record at the `stage` that `recover` sets.  Bad input raises ValueError."""

    stage = None


class DomainError(SpikerecError):
    """Kernel evaluated at a point where it is undefined (e.g. a pole)."""


class DegenerateColumn(SpikerecError):
    """A collocation column of G is identically zero and cannot be normalized."""


class UnknownPreset(ValueError):
    """Experiment preset identifier is not one of the known five."""


class AllTruncated(SpikerecError):
    """The pseudo-inverse threshold removed every singular value."""


class ConvergenceFailure(SpikerecError):
    """The underlying SVD routine failed to converge."""


class RankDeficient(SpikerecError):
    """Too low a numerical rank: a zero matrix, Krylov A below n_x, L-curve factors below 2."""


class NonFinite(SpikerecError):
    """A matrix or vector that a step reads holds a NaN or infinite entry."""


class FlatCurveWarning(UserWarning):
    """L-curve curvature had no interior maximum; endpoint gamma returned."""


class IllConditionedShiftWarning(UserWarning):
    """The ESPRIT shift sub-matrix V_minus is badly conditioned."""
