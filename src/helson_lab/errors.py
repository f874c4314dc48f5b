"""Exception types shared across the laboratory modules."""

from __future__ import annotations


class HelsonLabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionTooLarge(HelsonLabError):
    """Dense-grid operation requested in too many torus dimensions."""


class OutOfRange(HelsonLabError):
    """A numeric parameter is outside its documented domain."""


class BudgetExceeded(HelsonLabError):
    """An exhaustive search would exceed its stated budget."""


class MomentCheckFailed(OutOfRange):
    """A mixing measure violates the moment constraints required of it."""


class Infeasible(HelsonLabError):
    """Linear program has no feasible point."""


class Unbounded(HelsonLabError):
    """Linear program objective is unbounded below."""


class SolverStall(HelsonLabError):
    """LP solver hit its iteration cap without converging."""


class NotDissociate(HelsonLabError):
    """Frequency list failed (or could not be certified for) dissociateness."""


class InfeasibleSeparation(HelsonLabError):
    """Point set and forbidden set are too close for the degree budget."""


class ConfigParse(HelsonLabError):
    """Malformed experiment configuration; message names the offending key."""
