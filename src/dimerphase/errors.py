"""Exception types raised by the dimerphase package.

Every failure mode callers are expected to handle gets its own class so that
scan drivers can distinguish "bad input" from "the computation walked off a
branch" without string matching.
"""


class DimerPhaseError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(DimerPhaseError):
    """Amplitude pair is not normalized, or an energy/state pair is inconsistent."""


class NearSingularLoopError(DimerPhaseError):
    """1 - sin(theta)*s fell below the quadrature guard somewhere on the loop."""


class SingularLimitError(DimerPhaseError):
    """Unit-overlap integrand hit its 1 - sin(theta) singularity on the loop."""


class LoopTooCoarseError(DimerPhaseError):
    """Consecutive loop samples overlap too weakly to track a state reliably."""


class BranchLostError(DimerPhaseError):
    """Branch continuation found no candidate resembling the tracked state."""


class AtDegeneracyError(DimerPhaseError):
    """Requested frame or loop touches the degeneracy point itself."""


class AmbiguousRegimeError(DimerPhaseError):
    """Limit-case formula requested exactly on the boundary between regimes."""


class StepSizeError(DimerPhaseError):
    """Integrator norm drift exceeded its bound; the time step is too large."""


class ModelDegenerateError(DimerPhaseError):
    """Model has too few stationary states for the requested diagnostic."""
