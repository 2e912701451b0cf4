"""Exception types shared across the package."""

from __future__ import annotations


class SparseViewError(Exception):
    """Base class for all input/usage errors raised by this package."""


class InvariantViolation(Exception):
    """A guarantee failed to hold: a bug, not bad input, so not a
    SparseViewError. Raised, not asserted, so `python -O` keeps the check."""


class MalformedLine(SparseViewError):
    def __init__(self, line_no: int, reason: str, path: str | None = None):
        self.line_no = line_no
        self.reason = reason
        self.path = path
        where = f"{path}:{line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {reason}")


class DuplicateId(SparseViewError):
    def __init__(self, kind: str, id_: int):
        self.kind = kind
        self.id = id_
        super().__init__(f"duplicate {kind} id {id_}")


class DanglingReference(SparseViewError):
    def __init__(self, kind: str, id_: int):
        self.kind = kind
        self.id = id_
        super().__init__(f"reference to unknown {kind} id {id_}")


class SelfLoop(SparseViewError):
    def __init__(self, view_id: int):
        self.view_id = view_id
        super().__init__(f"self-loop on view {view_id}")


class EmptyGraph(SparseViewError):
    pass


class UnknownNode(SparseViewError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"unknown node {node}")


class InvalidNcc(SparseViewError):
    pass


class DisconnectedTerminals(SparseViewError):
    def __init__(self, unreachable):
        self.unreachable = sorted(unreachable)
        super().__init__(f"terminals not reachable: {self.unreachable}")


class EmptyPartition(SparseViewError):
    pass


class InsufficientViews(SparseViewError):
    """Raised only when truncation is disallowed; normally surfaced as a flag."""

    def __init__(self, available: int, requested: int):
        self.available = available
        self.requested = requested
        super().__init__(f"scene supplies {available} views, {requested} requested")


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
