"""Exception types shared across the package."""


class FogcodedError(Exception):
    """Base class for all package errors."""


class InvalidParams(FogcodedError, ValueError):
    """A parameter or argument is outside its domain."""


class TooLarge(FogcodedError, ValueError):
    """A requested size is past one of the package's caps: an exhaustive
    enumeration, the delivery engine's K, a bit-exact file."""


class DeadlineViolation(FogcodedError, RuntimeError):
    """A fog access point still misses subfiles after its delivery deadline.

    This is an internal consistency assertion; a correct delivery run never
    raises it.
    """


class DecodeFailure(FogcodedError, RuntimeError):
    """A requested file could not be reassembled from cache plus log."""
