"""Exception types shared across the package, and the ``is_count`` and
``is_real`` rules for settings.

Most are thin ValueError/RuntimeError subclasses so callers can catch either
the specific condition or the broad builtin category. A bad setting or
argument raises ``ConfigInvalid``, a bad timestep ``TimestepOutOfRange``.
"""

from numbers import Integral, Real


def is_count(v) -> bool:
    """A Python or numpy integer, and not a ``bool`` passing as 0 or 1."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """A Python or numpy real number, and not a ``bool`` passing as 0.0 or
    1.0."""
    return isinstance(v, Real) and not isinstance(v, bool)


class ShapeMismatch(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class NotScalar(ValueError):
    """Backward was started from a non-scalar tensor."""


class GraphConsumed(RuntimeError):
    """Backward reached graph nodes that an earlier backward already ran."""


class TimestepOutOfRange(ValueError):
    """Diffusion timestep that is not an integer in [1, T], or timesteps that
    do not match the batch."""


class EmptyLabeledBatch(ValueError):
    """Classification loss called with no labeled samples."""


class ConfigInvalid(ValueError):
    """A setting or argument outside its legal set; the message names it."""


class GeometryInfeasible(ValueError):
    """Requested phantom lesion cannot fit inside its region."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


class CheckpointMismatch(RuntimeError):
    """Checkpoint tensors do not match the model being loaded."""


class IoError(RuntimeError):
    """An image cannot be written as a PGM file."""
