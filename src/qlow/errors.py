"""Exception hierarchy shared across the package, and the manifest binder
that raises ConfigError for whatever does not fit a function's signature.

The CLI maps these onto exit codes: ConfigError -> 2, ResourceError -> 3,
NumericError -> 4. Library code raises them directly; plain ValueError is
reserved for programming errors that a manifest cannot trigger. ConfigError
also subclasses ValueError: a bad argument value is a ValueError to library
callers and exit 2 at the command line.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import types
import typing


class QlowError(Exception):
    """Base class for package errors."""


class ConfigError(QlowError, ValueError):
    """Invalid configuration, manifest, or argument domain."""


class ResourceError(QlowError):
    """A size cap was exceeded (qubit count, dense-exponential vertex cap)."""


class NumericError(QlowError):
    """A numeric routine failed to converge or overflowed despite shifting."""


def _finite(values) -> bool:
    """Whether every number in values is a finite double. One C-level sum
    settles a list whose sum is finite; otherwise each number is compared with
    the largest double (exact for an int, false for a NaN)."""
    try:
        if math.isfinite(sum(values)):
            return True
    except OverflowError:  # an int beyond a double
        pass
    return all(-sys.float_info.max <= v <= sys.float_info.max for v in values)


def _overflows(value) -> bool:
    """Whether value is, or a list in it holds, a number that is not a finite
    double: what _fits rejects for float whatever its type."""
    if isinstance(value, (list, tuple)):
        return any(map(_overflows, value))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and not _finite((value,))


def _fits(value, kind) -> bool:
    """Whether a JSON value fits the annotation kind: an int (not a bool) for
    int, a finite number for float (json reads 1e999 as inf), a list or tuple
    of fitting items for a sequence (one per member of a fixed-length tuple;
    else one item per type when the item kind is a plain class, whose verdict
    depends on the type alone, and the finiteness of a float list over the
    whole list), a fit to one member for a union."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return any(_fits(value, member) for member in args)
    if origin is not None:
        if not isinstance(value, (list, tuple)):
            return False
        if origin is tuple and ... not in args:
            return len(value) == len(args) and all(map(_fits, value, args))
        items = value if typing.get_origin(args[0]) else [
            next(v for v in value if type(v) is t) for t in set(map(type, value))
        ]
        return all(_fits(v, args[0]) for v in items) and (args[0] is not float or _finite(value))
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and _finite((value,))
    return isinstance(value, kind)


def bind(fn, spec: dict, what: str, fixed=()) -> functools.partial:
    """fn with the keys of spec bound as its keyword arguments.

    A key that fn does not take or that is in `fixed` (the caller supplies those), a
    parameter with no default that spec leaves out, and a value that does not
    fit the parameter's annotation are ConfigErrors that name spec as `what`.
    """
    sig = inspect.signature(fn, eval_str=True)
    params = [param for name, param in sig.parameters.items() if name not in fixed]
    try:
        sig.replace(parameters=params).bind(**spec)
    except TypeError as exc:
        takes = ", ".join(param.name for param in params) or "no keys"
        raise ConfigError(f"{what} takes {takes}: {exc}") from None
    for k, value in spec.items():
        if not _fits(value, kind := sig.parameters[k].annotation):
            shown = inspect.formatannotation(kind)
            why = " (every number must be finite)" if _overflows(value) else ""
            raise ConfigError(f"{what} key {k!r} must be {shown}, got {value!r:.60}{why}")
    return functools.partial(fn, **spec)


def bind_choice(path: str, table: dict, spec: dict | None, key: str, default=None, fixed=()):
    """bind for the entry of table that spec[key] names, on the other keys of
    spec. Only a missing spec (None) takes the default entry."""
    rest = {key: default} if spec is None else dict(spec)
    choice = rest.pop(key, None)
    if not isinstance(choice, str) or choice not in table:
        raise ConfigError(f"{path}.{key} must be one of {', '.join(table)}; got {choice!r}")
    return bind(table[choice], rest, f"{path} ({choice})", fixed)
