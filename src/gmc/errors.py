"""Exception types shared across the package, and the integer and number checks that raise ConfigError."""

from __future__ import annotations

import math
import numbers


class GmcError(Exception):
    """Base class for every error this package raises on purpose."""

    def __reduce__(self):
        # Subclass constructors take other arguments than the formatted
        # message in self.args, so the default pickling fails to rebuild them
        # and an error raised in a sweep worker breaks the process pool.
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    err = Exception.__new__(cls)
    err.args = args
    err.__dict__.update(state)
    return err


class ShapeError(GmcError):
    """Operands with incompatible shapes reached a primitive."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(tuple(s) for s in shapes)
        pretty = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{op}: incompatible shapes {pretty}")


class DomainError(GmcError):
    """Input lies outside a primitive's mathematical domain."""


class DegenerateVectorError(DomainError):
    """A vector with near-zero norm reached a cosine or normalization step."""

    def __init__(self, where: str, index: int | None = None):
        self.where = where
        self.index = index
        loc = where if index is None else f"{where}[{index}]"
        super().__init__(f"degenerate vector (near-zero norm) at {loc}")


class ContractError(GmcError):
    """API misuse: a documented precondition does not hold."""


class ConfigError(GmcError):
    """A configuration value is missing, unknown, or out of range."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"config key '{key}': {message}")


def require_integer(key: str, value) -> None:
    """Integer config fields reject floats and bools: `range` fails on 1.5
    mid-run and reads True as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(key, f"must be an integer, got {value!r}")


def require_number(key: str, value, *, positive: bool = False, below: float = math.inf) -> None:
    """Float config fields hold a finite number >= 0 (> 0 if `positive`) and
    < `below`. Bools and strings are rejected, and NaN fails every range
    comparison silently, so it is rejected up front."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(key, f"must be a finite number, got {value!r}")
    if value < 0 or (positive and value == 0) or value >= below:
        raise ConfigError(key, f"must lie in {'(' if positive else '['}0, {below}), got {value!r}")


class DataError(GmcError):
    """Malformed or inconsistent data files."""


class FormatError(DataError):
    """Corrupt or unrecognized serialized artifact."""


class NumericError(GmcError):
    """Training or evaluation produced a non-finite value."""

    def __init__(self, message: str, *, epoch: int | None = None, step: int | None = None):
        self.epoch = epoch
        self.step = step
        where = ""
        if epoch is not None:
            where = f" (epoch {epoch}, step {step})"
        super().__init__(message + where)
