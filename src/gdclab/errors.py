"""Exception types shared across the package.

Every error the package raises is a GdclabError, so one ``except`` clause
catches them all; each also keeps its builtin base, so callers that catch
ValueError and the like still work.
"""


class GdclabError(Exception):
    """Base of every error the package raises."""


class ShapeError(GdclabError, ValueError):
    """Operand shapes or ranks are incompatible with the operation."""


class ContractError(GdclabError, ValueError):
    """A documented precondition was violated by the caller."""


class NumericError(GdclabError, ArithmeticError):
    """A non-finite value appeared where a finite one is required."""


class FormatError(GdclabError, ValueError):
    """A serialized object has a bad magic number, version or field."""


class StreamError(GdclabError, ValueError):
    """A byte stream is truncated or inconsistent with its header."""


class IdentityError(GdclabError, AssertionError):
    """An exact information identity failed beyond tolerance.

    Carries the offending distribution so a failing sweep can be replayed.
    """

    def __init__(self, message, joint=None):
        super().__init__(message)
        self.joint = joint


class TrainingError(GdclabError, RuntimeError):
    """Training produced a non-finite loss; records the step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
