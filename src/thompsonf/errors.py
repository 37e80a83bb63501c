"""Exception hierarchy.

Every error raised by this package derives from :class:`ToolkitError`.  The
CLI maps malformed-input errors to exit code 2 and violated preconditions to
exit code 3; the tuples at the bottom of this module define that split.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class MalformedNumber(ToolkitError):
    """A number token does not match INT, INT/INT or INT/2^INT."""


class OutOfRange(ToolkitError):
    """A value lies outside the range its context requires."""


class InvalidMarkedSet(ToolkitError):
    """A point set is not a finite subset of [0,1] containing 0 and 1."""


class NotStandardPartition(ToolkitError):
    """Consecutive points are not of the form p/2^q, (p+1)/2^q."""


class InvalidElement(ToolkitError):
    """A breakpoint list violates the group-element invariants."""


class CardinalityMismatch(ToolkitError):
    """A partition pair with |domain| != |range|."""


class DomainNotContained(ToolkitError):
    """Partial action g.T requested where g's domain partition is not in T."""


class TooFewPoints(ToolkitError):
    """The base-partition correspondence needs at least three points."""


class EmptyFamily(ToolkitError):
    """An operation that needs a nonempty family received an empty one."""


class MeshTooLarge(ToolkitError):
    """A family member exceeds the mesh bound required by the reduction."""


class TowerTooTall(ToolkitError):
    """Refusing to materialize an astronomically large tower value."""


class RadiusTooLarge(ToolkitError):
    """Ball radius beyond the enumeration limit."""


class NumberTooLong(ToolkitError):
    """A computed integer has more digits than a printed number may have."""


class InvalidMeasure(ToolkitError):
    """Weights are not positive or do not sum to one."""


class InvalidChain(ToolkitError):
    """Interval chain endpoints out of order or touching 0 or 1."""


class MalformedInput(ToolkitError):
    """A family or configuration file that does not match its format."""


# CLI exit-code buckets.  Everything else under ToolkitError counts as an
# input error (exit 2).
PRECONDITION_ERRORS = (
    DomainNotContained,
    TooFewPoints,
    MeshTooLarge,
    TowerTooTall,
    RadiusTooLarge,
    NumberTooLong,
)
