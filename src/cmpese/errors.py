"""Exception types shared across the package, the config-value checks that
raise them, the readers of input files and the maker of output
directories."""

import json
import math
import numbers
import os
from dataclasses import MISSING, fields, is_dataclass


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


def require_int(key, value, least):
    """Refuse a setting that is not an integer of at least ``least``; a bool
    is refused too, although Python counts it as one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{key} must be an integer of at least {least}, got {value!r}")


def require_number(key, value):
    """Refuse a setting that is not a finite real number; a bool or a numeric
    string is refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")


def require_bool(key, value):
    """Refuse a setting that is not true or false; "false", 0 and 1 are refused."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")


def require_choice(key, value, choices):
    """Refuse a setting that is not one of ``choices``. The test compares by
    equality, so an unhashable value is refused too, not a TypeError."""
    choices = list(choices)
    if value not in choices:
        raise ConfigError(f"unknown {key} {value!r}; expected one of {', '.join(choices)}")


def require_path(key, value, many=False, null=False):
    """Refuse a setting that is not a non-empty path string. ``many`` also
    accepts a non-empty list of them, and ``null`` accepts None."""
    paths = value if many and isinstance(value, list) and value else [value]
    if not (null and value is None or all(isinstance(v, str) and v for v in paths)):
        alternatives = ((" or a non-empty list of them" if many else "")
                        + (" or null" if null else ""))
        raise ConfigError(f"{key} must be a non-empty path string{alternatives}, "
                          f"got {value!r}")


def check_keys(obj, section, required=(), optional=(), error=ConfigError):
    """Refuse ``obj`` unless it is a JSON object that holds every key of
    ``required`` and no key outside ``required`` and ``optional``. The
    messages name ``section`` and the keys; ``error`` builds the exception
    from a message."""
    if not isinstance(obj, dict):
        raise error(f"{section} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise error(f"unknown {section} keys: {', '.join(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise error(f"{section} requires {', '.join(missing)}")


def from_dict(cls, d, section):
    """Build the dataclass ``cls`` from ``d``, the JSON object of config
    section ``section``.

    A non-object, an unknown key or a missing key without a default is
    refused. An absent key takes the dataclass's default, and a field whose
    default factory is itself a dataclass is built from its own sub-object
    the same way. Every value check is the dataclass's own
    (``__post_init__``); ``dataclasses.asdict`` is the inverse.
    """
    by_name = {f.name: f for f in fields(cls)}
    check_keys(d, section, [name for name, f in by_name.items()
                            if f.default is MISSING and f.default_factory is MISSING], by_name)
    kwargs = {}
    for key, value in d.items():
        sub = by_name[key].default_factory
        kwargs[key] = from_dict(sub, value, key) if is_dataclass(sub) else value
    return cls(**kwargs)


class DataFormatError(ValueError, CmpeSeError):
    """A data file does not match the expected binary layout."""

    def __init__(self, message, byte_offset=None):
        self.byte_offset = byte_offset
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)


class TensorError(CmpeSeError):
    """An error about one tensor, named in the message when it has a name."""

    def __init__(self, message, tensor_name=None):
        self.tensor_name = tensor_name
        if tensor_name:
            message = f"{message}: tensor '{tensor_name}'"
        super().__init__(message)


class NonFiniteError(TensorError, FloatingPointError):
    """A tensor produced NaN/Inf where finite values are required."""


class TrainingDiverged(RuntimeError, CmpeSeError):
    """Training loss became non-finite; the last checkpoint is retained."""


class GraphReleasedError(TensorError, RuntimeError):
    """Backward reached a graph node whose backward has already run.

    Backward frees the graph it walks, so a graph supports one backward.
    """

    def __init__(self, tensor_name=None):
        super().__init__("backward through a graph that an earlier backward has freed",
                         tensor_name)


class ActivationReleasedError(TensorError, RuntimeError):
    """A released or dropped activation's ``data`` or ``padded`` was read.

    Its forward readers are done with it. Backward rebuilds a released
    pre-activation for its own readers, and reads nothing of a dropped
    projection output but its shape and dtype (see ``Tensor.release`` and
    ``Tensor.drop``).
    """

    def __init__(self, tensor_name=None):
        super().__init__("read of an activation dropped after its forward readers",
                         tensor_name)


def read_file(path, error):
    """The bytes of the input file ``path``. A missing file raises
    FileNotFoundError; a file that exists but cannot be read, such as a
    directory, raises ``error`` naming the path."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        raise
    except OSError as e:
        raise error(f"{path}: cannot be read ({e.strerror or e})") from None


def output_dir(path, error):
    """Make the output directory ``path``, and its parents, unless it
    exists; returns ``path``. A path that names a file, or that cannot be
    made, raises ``error`` naming the path. The counterpart of
    ``read_file``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise error(f"{path}: cannot be made an output directory "
                    f"({e.strerror or e})") from None
    return path


def read_json(path, error):
    """The JSON object in the input file ``path``, read as ``read_file``
    reads it. Text that is not UTF-8 JSON, or JSON that is not an object,
    raises ``error`` naming the path."""
    data = read_file(path, error)
    try:
        value = json.loads(data.decode("utf-8"))
    except ValueError as e:   # UnicodeDecodeError or JSONDecodeError
        raise error(f"{path}: not a JSON file ({e})") from None
    if not isinstance(value, dict):
        raise error(f"{path}: must hold a JSON object, got {type(value).__name__}")
    return value
