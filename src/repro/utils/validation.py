"""Argument validation helpers shared across the library.

The numeric validators raise :class:`ValueError` and :func:`require_name`
raises :class:`~repro.core.exceptions.ModelError`, each with a message that
names the offending parameter, so that errors surfaced to library users are
actionable without a stack-trace dive.
"""

from __future__ import annotations


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if it is strictly positive, raise otherwise."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is zero or positive, raise otherwise."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_unit_interval(value: float, name: str) -> float:
    """Return ``value`` if it lies in the closed interval ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def require_name(value: object, kind: str) -> str:
    """Return ``value`` if it can name a model object of ``kind``.

    A name is a non-empty ``str`` with a UTF-8 encoding: fingerprints and
    store keys encode every name as UTF-8, so a lone surrogate such as
    ``"\\ud800"`` is rejected here, where the model is built, instead of
    failing once a store is attached.
    """
    if isinstance(value, str) and value:
        try:
            value.encode("utf-8")
            return value
        except UnicodeEncodeError:
            problem = f"{kind} name {value!r} has no UTF-8 encoding"
    else:
        problem = f"{kind} name must be a non-empty string, got {value!r}"
    # Deferred: repro.core imports this module while it initializes.
    from repro.core.exceptions import ModelError

    raise ModelError(problem)
