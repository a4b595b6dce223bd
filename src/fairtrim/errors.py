"""Exception types shared across the package.

Everything raised on purpose inherits from FairtrimError so callers (and the
CLI) can distinguish domain failures from bugs.
"""

import numbers


class FairtrimError(Exception):
    """Base class for all expected failures."""


class SchemaMismatch(FairtrimError):
    """CSV header or column contents disagree with the declared schema."""


class ParseError(FairtrimError):
    """A cell could not be parsed as its declared kind."""


class LabelError(FairtrimError):
    """Label column does not reduce to a binary outcome."""


class EmptyDataset(FairtrimError):
    """An operation that needs rows received zero of them."""


class SensitiveAbsent(FairtrimError):
    """A sensitive attribute was required but the schema declares none."""


class DimensionMismatch(FairtrimError):
    """Vector or matrix width disagrees with the model's input size."""


class EmptyInfluenceSet(FairtrimError):
    """Ranking was requested for an influence set with no entries."""


class AlreadyFair(FairtrimError):
    """No discriminatory pairs were found; there is nothing to rank."""


class MissingGroup(FairtrimError):
    """A sensitive-attribute group has no rows in the evaluation set."""


class RangeError(FairtrimError):
    """A chunk index or fraction is outside its legal range."""


class NotPositiveDefinite(FairtrimError):
    """Conjugate gradients met non-positive curvature: the operator is not PD."""


class EmptyResult(FairtrimError):
    """An aggregate view was requested over zero experiment records."""


class MalformedReport(FairtrimError):
    """A grid report file lacks a field that fairtrim writes into it."""


def require_integers(obj, *names: str) -> None:
    """Raise RangeError unless each named field of ``obj`` is an integer, so a
    setting such as 2.5 fails where it is given, not later as a TypeError."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral):
            raise RangeError(f"{name} must be an integer, got {value!r}")
