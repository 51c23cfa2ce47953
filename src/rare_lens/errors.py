"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, GateError -> 3,
PairingError (and its ChecksumError subclass) -> 4. ArtifactError never
reaches it: the pipeline rebuilds the stage whose artifact raised it.
"""


class RareLensError(Exception):
    """Base class for all package errors."""


class ShapeError(RareLensError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateVectorError(RareLensError, ValueError):
    """A vector with zero norm was passed where a direction is required."""


class ContractError(RareLensError, ValueError):
    """A documented precondition of an operation was violated."""


class NotFittedError(RareLensError, RuntimeError):
    """An estimator method that needs fit() was called before fit()."""


class ConfigError(RareLensError, ValueError):
    """Invalid or unknown configuration input."""


class GateError(RareLensError, RuntimeError):
    """A stage quality gate (fixture gate, prototype gate) was not met."""


class PairingError(RareLensError, RuntimeError):
    """Artifacts from different training runs were combined."""


class ChecksumError(PairingError):
    """A stored checksum does not match the file contents."""


class ArtifactError(RareLensError, ValueError):
    """A stored JSON artifact parses but lacks what its reader needs."""
