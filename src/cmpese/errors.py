"""Exception types shared across the package."""


class CmpeSeError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(ValueError, CmpeSeError):
    """Tensor shapes are incompatible for an operation.

    Carries enough structure to name the offending axis in the message.
    """

    def __init__(self, op, message, axis=None):
        self.op = op
        self.axis = axis
        prefix = f"{op}: " if op else ""
        if axis is not None:
            prefix += f"(axis {axis}) "
        super().__init__(prefix + message)


class ConfigError(ValueError, CmpeSeError):
    """A configuration violates one of its stated constraints."""


class DataFormatError(ValueError, CmpeSeError):
    """A data file does not match the expected binary layout."""

    def __init__(self, message, byte_offset=None):
        self.byte_offset = byte_offset
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)


class NonFiniteError(FloatingPointError, CmpeSeError):
    """A tensor produced NaN/Inf where finite values are required."""

    def __init__(self, message, tensor_name=None):
        self.tensor_name = tensor_name
        if tensor_name:
            message = f"{message}: tensor '{tensor_name}'"
        super().__init__(message)


class TrainingDiverged(RuntimeError, CmpeSeError):
    """Training loss became non-finite; the last checkpoint is retained."""


class GraphReleasedError(RuntimeError, CmpeSeError):
    """Backward reached a graph node whose backward has already run.

    Backward frees the graph it walks, so a graph supports one backward.
    """

    def __init__(self, tensor_name=None):
        self.tensor_name = tensor_name
        message = "backward through a graph that an earlier backward has freed"
        if tensor_name:
            message = f"{message}: tensor '{tensor_name}'"
        super().__init__(message)
