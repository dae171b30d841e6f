"""Exception types shared across the library.

The CLI maps these onto process exit codes: bad input exits with 2,
blowing a resource cap exits with 3, and an internal alarm (a broken
invariant, or two criteria that must agree and do not) exits with 4.
"""


class PadicDynError(Exception):
    """Base class for library errors."""


class InputError(PadicDynError):
    """Invalid user input: malformed expressions, non-prime p, degenerate maps."""


class ResourceLimitError(PadicDynError):
    """A configured size cap (degree, field size, coordinate height) was exceeded."""


class InternalError(PadicDynError):
    """An internal invariant failed: a bug in the library, not in the input."""
