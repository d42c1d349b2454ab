"""Exception types shared across the library."""


class PointdiffError(Exception):
    """Base class for all library errors."""


class InvalidArgument(PointdiffError):
    """A precondition on an operation's arguments was violated."""


class ShapeError(PointdiffError):
    """Tensor/array shapes are incompatible for the requested operation."""

    @classmethod
    def mismatch(cls, op, shape_a, shape_b):
        return cls(f"{op}: incompatible shapes {tuple(shape_a)} vs {tuple(shape_b)}")


class ParseError(PointdiffError):
    """A point-cloud file failed to parse; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedVersion(PointdiffError):
    """Checkpoint format version not understood by this build."""


class CorruptCheckpoint(PointdiffError):
    """Checkpoint payload failed integrity or shape validation."""


class CorruptBlob(PointdiffError):
    """Compressed blob failed integrity validation."""


class NonFiniteSample(PointdiffError):
    """A reverse-diffusion step produced a NaN or an infinity."""
