"""Exception hierarchy.

``CertificationError`` and its subclasses signal that a numerical
certificate failed (CLI exit code 2); ``ModelFileError`` signals malformed
input (CLI exit code 1).  Every certification subclass carries the name of
the violated invariant in ``invariant``.
"""


class ModelFileError(ValueError):
    """A model file or a command-line value is malformed: unparsable,
    inconsistent in shape, non-finite or out of range."""


class CertificationError(ValueError):
    """A numerical invariant required by the construction does not hold."""

    invariant = "certification"

    def __init__(self, message=""):
        super().__init__(f"{self.invariant}: {message}" if message else self.invariant)


class NonSquareError(CertificationError):
    invariant = "NonSquare"


class DefectiveCompanionError(CertificationError):
    invariant = "DefectiveCompanion"


class DuplicateLatentRootError(CertificationError):
    invariant = "DuplicateLatentRoot"


class SingularGroupError(CertificationError):
    invariant = "SingularGroup"


class IncompleteSetError(CertificationError):
    invariant = "IncompleteSet"


class SolventResidualError(CertificationError):
    invariant = "SolventResidual"


class SharpIdentityError(CertificationError):
    """The state space B* does not solve A# B* = B# to rounding accuracy."""

    invariant = "SharpIdentity"


class SingularVandermondeError(CertificationError):
    invariant = "SingularVandermonde"


class NotIrreducibleError(CertificationError):
    invariant = "NotIrreducible"


class PoleHitError(CertificationError):
    invariant = "PoleHit"


class NotStationaryError(CertificationError):
    invariant = "NotStationary"


class SylvesterSingularError(CertificationError):
    invariant = "SylvesterSingular"


class ImaginaryLeakError(CertificationError):
    invariant = "ImaginaryLeak"


class AliasedSamplingError(CertificationError):
    invariant = "AliasedSampling"


class NotPDError(CertificationError):
    invariant = "NotPD"


class NoConvergenceError(CertificationError):
    invariant = "NoConvergence"


class CholeskyFailError(CertificationError):
    """A covariance to be factored is not PSD to rounding (``mcarma.psd_factor``
    takes its symmetric square root; no Cholesky is left), or a simulated path
    has non-finite entries.  The name is kept for callers."""

    invariant = "CholeskyFail"


class TooShortError(CertificationError):
    invariant = "TooShort"
