"""Exception hierarchy.

Errors are split by who is at fault: bad data, unmet preconditions or
ill-conditioning (the input), versus identities that the library
guarantees by construction (a :class:`IdentityViolation` firing means a
bug, not a bad input).
"""


class ModopError(Exception):
    """Base class for all library errors."""


class StructureError(ModopError):
    """Shapes, sizes, or algebra layouts do not match."""


class UnmetHypothesisError(ModopError):
    """A documented precondition of an operation does not hold.

    Used for things like non-commuting inputs to a commuting check or
    a claimed complement that fails to be one.  This reports a bad
    instance, not a falsified theorem.
    """


class IdentityViolation(ModopError):
    """An identity the library guarantees failed: a bug, not a bad input.

    These identities (K-theory bookkeeping, witness balances, residuals of
    certified constructions) hold whenever the rank decisions underneath
    are sound, so this error must never fire on well-margined instances;
    a defect the input's conditioning explains raises
    :class:`IllConditionedError` instead.  Identities that hold by
    construction are not checked at all, and every check that is made has
    a test that plants a defect and sees it fire.  It is deliberately loud
    rather than a report flag.
    """


class IllConditionedError(ModopError):
    """The input is too ill-conditioned to certify: a numerically singular
    split Im F^p +' ker F^p, an image staircase whose rank decisions
    contradict the kernel staircase's, or ker (F*)^k off (Im F^k)^perp by
    no more than the two power chains' margins explain."""


class DataError(ModopError):
    """Malformed or out-of-range input: JSON files, CLI payloads, tolerance
    knobs, and non-finite map entries."""
