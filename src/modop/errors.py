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
    """An exact structural identity failed.

    These identities (K-theory bookkeeping, alternating dimension sums,
    witness balances) hold by construction whenever the rank decisions
    underneath are sound, so this error must never fire on well-margined
    instances.  It is deliberately loud rather than a report flag.
    """


class IllConditionedError(ModopError):
    """The input is too ill-conditioned to certify: a numerically singular
    split Im F^p +' ker F^p, or an image staircase whose rank decisions
    contradict the kernel staircase's."""


class DataError(ModopError):
    """Malformed or out-of-range input: JSON files, CLI payloads, tolerance
    knobs, and non-finite map entries."""
