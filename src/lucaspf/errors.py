"""Exception hierarchy shared across the package."""


class LucasPFError(Exception):
    """Base class for all library errors."""


class NotCoprime(LucasPFError):
    pass


class ZeroDiscriminant(LucasPFError):
    pass


class Degenerate(LucasPFError):
    pass


class DomainError(LucasPFError):
    pass


class ZeroInput(LucasPFError):
    pass


class NonIntegerResult(LucasPFError):
    """Cyclotomic quotient failed to be an integer; indicates a bug."""


class Undecidable(LucasPFError):
    """Interval comparison stayed ambiguous at maximum precision."""
