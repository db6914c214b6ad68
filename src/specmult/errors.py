"""Error types shared across the package.

Every failure mode that callers are expected to handle gets its own class
so the CLI can map exceptions to machine-readable JSON without string
matching. All errors derive from SpecmultError.
"""

from __future__ import annotations


class SpecmultError(Exception):
    """Base class for all domain errors raised by specmult."""

    def payload(self) -> dict:
        """JSON-ready description of the error."""
        return {"error": type(self).__name__, "message": str(self)}


class ParseError(SpecmultError):
    """Malformed graph or matrix file."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason

    def payload(self) -> dict:
        d = super().payload()
        d["line"] = self.line
        d["reason"] = self.reason
        return d


class LoopEdge(SpecmultError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(SpecmultError):
    """The same edge is declared twice."""


class IndexOutOfRange(SpecmultError):
    """A vertex or row id lies outside the declared range."""


class MissingEdge(SpecmultError):
    """Requested edge does not exist in the graph."""


class NotApplicable(SpecmultError):
    """Operation precondition excludes this input shape."""


class NotConnected(SpecmultError):
    """Operation requires a connected graph."""


class DimensionMismatch(SpecmultError):
    """Matrix dimension disagrees with the graph order."""


class AlphaOutOfRange(SpecmultError):
    """Convex-combination parameter must lie in [0, 1)."""


class NotACycle(SpecmultError):
    """Operation requires a cycle graph."""


class ParameterOutOfRange(SpecmultError):
    """Numeric parameter outside its documented domain."""


class AmbiguousCluster(SpecmultError):
    """Numeric multiplicity cannot be decided at the given tolerance.

    Carries the offending gap so callers can decide between an exact
    fallback and a deliberately coarser tolerance.
    """

    def __init__(self, message: str, gap: float, tol: float):
        super().__init__(message)
        self.gap = gap
        self.tol = tol

    def payload(self) -> dict:
        d = super().payload()
        d["gap"] = self.gap
        d["tol"] = self.tol
        return d


class NotATree(SpecmultError):
    """Operation requires a tree."""


class NotUnicyclic(SpecmultError):
    """Operation requires a connected graph with exactly one cycle."""


class NotCStarShape(SpecmultError):
    """Operation requires a cycle with a single hanging path."""


class PatternMismatch(SpecmultError):
    """Matrix support does not match the graph's edge set."""


class SideConditionUnmet(SpecmultError):
    """A relation check's hypotheses fail on this instance (not a violation)."""


class CapExceeded(SpecmultError):
    """Enumeration size beyond the supported cap."""


class TimeBudgetExceeded(SpecmultError):
    """Campaign ran out of wall-clock budget; partial results attached."""

    def __init__(self, message: str, summary: dict | None = None, discrepancies: list | None = None):
        super().__init__(message)
        self.summary = summary or {}
        self.discrepancies = discrepancies or []

    def payload(self) -> dict:
        d = super().payload()
        d["partial"] = True
        d["summary"] = self.summary
        return d


class ConvergenceFailure(SpecmultError):
    """Numeric eigendecomposition did not converge."""
