"""Exception types shared across the package, and the two caps enforced
with ResourceLimit: MAX_TABLE_CELLS, on a dense table in census and
limit_dist, and PAIR_BUDGET, on the int32 pairs of a graph or a sample;
this module loads without numpy."""

# cells of one dense table: at the cap 512 MiB as int32 counts (`JointCountTable.counts`),
# 1 GiB as float64 (`JointPMF.box`, and limit_dist's `_balance_table` plus its padding)
MAX_TABLE_CELLS = 1 << 27
# int32 pairs, 1.6 GB at the cap: the edges a graph grows to (growth.grow) and
# the draws of one limit-law sample (LimitDistribution.sample)
PAIR_BUDGET = 200_000_000


class HeavytailError(Exception):
    """Base class for all package errors."""


class InvalidParams(HeavytailError):
    """A model-parameter constraint is violated."""


class DegenerateTail(HeavytailError):
    """A marginal power law is not asserted for these parameters.

    The growth model itself is still well defined; only the tail
    analytics refuse to run.
    """


class InvalidSeed(HeavytailError):
    """The start graph handed to grow() cannot start the growth dynamics."""


class ResourceLimit(HeavytailError):
    """A requested size exceeds the configured memory budget."""


class EmptyInput(HeavytailError):
    """An operation received an empty table or sample."""


class InsufficientData(HeavytailError):
    """Too few observations or support points for the estimator."""


class NonPositiveSample(HeavytailError):
    """Tail estimation requires strictly positive samples."""


class DegenerateTailSample(HeavytailError):
    """All order-statistic ratios are 1; the tail index is undefined."""


class QuadratureFailure(HeavytailError):
    """Numerical integration did not reach the requested tolerance."""


class DomainError(HeavytailError):
    """An evaluation point lies outside the mathematical domain."""


class InsufficientExceedances(HeavytailError):
    """Too few points above the radius threshold for an angular histogram."""


class InvalidK(HeavytailError):
    """The derivative order k must exceed alpha_in - 1."""
