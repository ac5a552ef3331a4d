"""Numeric settings read from the environment."""

import math
import os


def positive_env_number(name, default, cast, error, expects, floor):
    """``name`` from the environment as a positive number, or ``default``.

    Unset and empty (after stripping) both mean unset.  ``cast`` is
    ``int`` or ``float``; a value it rejects, one that is not greater
    than zero, or one that is not finite (``inf``, ``nan``) raises
    ``error`` — the caller's layer's error class — saying the variable
    must be ``expects`` (what it parses as) or ``floor`` (the range it
    lies in).
    """
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        parsed = cast(value)
    except ValueError:
        raise error("%s must be %s, got %r" % (name, expects, value)) from None
    if isinstance(parsed, float) and not math.isfinite(parsed):
        raise error("%s must be finite, got %s" % (name, value))
    if not parsed > 0:
        raise error("%s must be %s, got %s" % (name, floor, value))
    return parsed
