"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, ResourceError -> 3,
NumericError -> 4. Library code raises them directly; plain ValueError is
reserved for programming errors that a manifest cannot trigger. ConfigError
also subclasses ValueError: a bad argument value is a ValueError to library
callers and exit 2 at the command line.
"""

from __future__ import annotations


class QlowError(Exception):
    """Base class for package errors."""


class ConfigError(QlowError, ValueError):
    """Invalid configuration, manifest, or argument domain."""


class ResourceError(QlowError):
    """A size cap was exceeded (qubit count, dense-exponential vertex cap)."""


class NumericError(QlowError):
    """A numeric routine failed to converge or overflowed despite shifting."""
