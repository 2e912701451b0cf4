"""Exception types shared across the package."""

from __future__ import annotations


class SparseViewError(Exception):
    """Base class for all input/usage errors raised by this package.

    An error with its own `__init__` has a `__reduce__` that rebuilds it from
    those arguments, so it survives the pickle a batch worker sends back."""


class InvariantViolation(Exception):
    """A guarantee failed to hold: a bug, not bad input, so not a
    SparseViewError. Raised, not asserted, so `python -O` keeps the check."""


class MalformedLine(SparseViewError):
    def __init__(self, line_no: int, reason: str, path: str):
        self.line_no = line_no
        self.reason = reason
        self.path = path
        super().__init__(f"{path}:{line_no}: {reason}")

    def __reduce__(self):
        return type(self), (self.line_no, self.reason, self.path)


class DuplicateId(MalformedLine):
    pass


class DanglingReference(MalformedLine):
    pass


class SelfLoop(MalformedLine):
    pass


class EmptyGraph(SparseViewError):
    pass


class UnknownNode(SparseViewError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"unknown node {node}")

    def __reduce__(self):
        return type(self), (self.node,)


class InvalidNcc(SparseViewError):
    pass


class DisconnectedTerminals(SparseViewError):
    def __init__(self, unreachable):
        self.unreachable = sorted(unreachable)
        super().__init__(f"terminals not reachable: {self.unreachable}")

    def __reduce__(self):
        return type(self), (self.unreachable,)


class EmptyPartition(SparseViewError):
    pass


class InvalidK(SparseViewError):
    pass


class DimensionMismatch(SparseViewError):
    pass


class NoValidOverlap(SparseViewError):
    pass


class TooSmall(SparseViewError):
    pass


class EmptySample(SparseViewError):
    pass


class TooFewSamples(SparseViewError):
    pass


class NoPoints(SparseViewError):
    pass


class NoCameras(SparseViewError):
    pass


class LengthMismatch(SparseViewError):
    pass


class IdMismatch(SparseViewError):
    pass


class InvalidSpec(SparseViewError):
    pass
