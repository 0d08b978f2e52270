"""Domain error hierarchy.

Every error the library raises on bad mathematical input derives from
:class:`DomainError`, a ``ValueError``, so callers (notably the CLI) can
distinguish domain failures from programming errors.
"""


class DomainError(ValueError):
    """Base class for all mathematically-meaningful failures."""
