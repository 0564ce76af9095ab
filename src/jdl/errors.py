"""Exception types shared across the package.

Most are thin ValueError/RuntimeError subclasses so callers can catch either
the specific condition or the broad builtin category.
"""


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class NotScalar(ValueError):
    """Backward was started from a non-scalar tensor."""


class GraphConsumed(RuntimeError):
    """Backward reached graph nodes that an earlier backward already ran."""


class InvalidRange(ValueError):
    """Noise schedule parameters outside their legal range."""


class TimestepOutOfRange(ValueError):
    """Diffusion timestep that is not an integer in [1, T], or timesteps that
    do not match the batch."""


class OddDim(ValueError):
    """Sinusoidal embedding dimension must be even."""


class EmptyLabeledBatch(ValueError):
    """Classification loss called with no labeled samples."""


class ConfigInvalid(ValueError):
    """Experiment configuration failed validation."""


class BadClassIndex(ValueError):
    """Guidance target class outside [0, K)."""


class BadSubsequence(ValueError):
    """DDIM timestep subsequence violates its invariants."""


class GeometryInfeasible(ValueError):
    """Requested phantom lesion cannot fit inside its region."""


class InvalidPrior(ValueError):
    """Class prior outside [0, 1]."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


class CheckpointMismatch(RuntimeError):
    """Checkpoint tensors do not match the model being loaded."""


class IoError(RuntimeError):
    """An image cannot be written as a PGM file."""
