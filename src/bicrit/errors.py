"""Exception types shared across the package."""

from __future__ import annotations


class BicritError(Exception):
    """Base class for all package errors."""


class ParseError(BicritError):
    """An instance file could not be parsed."""


class ValidationError(BicritError):
    """An instance violates a structural or positivity precondition."""


class InfeasibleToken(BicritError):
    """A solution token does not encode a feasible solution of its instance."""


class NoFeasibleSolution(BicritError):
    """The feasible set of the instance is empty."""


class DisconnectedGraph(NoFeasibleSolution):
    """A spanning-tree instance has no spanning tree."""


class Unreachable(NoFeasibleSolution):
    """The sink is not reachable from the source."""


class ProblemMismatch(BicritError):
    """The problem kind named on the command line is not the instance's kind."""


class ExactOracleRequired(BicritError):
    """The requested method is only sound for exact (alpha = 1) oracles."""


class NotParametricCapable(BicritError):
    """The adapter does not expose the parametric interface the method needs."""


class CapExceeded(BicritError):
    """A brute-force enumeration would exceed its configured cap."""


class NoCertificate(BicritError):
    """No solve record passed the budget filter.

    This signals either an infeasible budget or a bounds violation; it is
    not a proof of infeasibility.  The full transcript of records produced
    during the run is attached for inspection.
    """

    def __init__(self, records, message="no record passed the budget filter"):
        super().__init__(message)
        self.records = tuple(records)
