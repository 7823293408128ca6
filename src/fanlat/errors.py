"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: semantic failures (invalid fan,
bad relation, precondition violations, a relation with no local
decomposition, a brute-force check too large to run) exit 1,
file/schema problems exit 2, internal invariant breaches and any
exception that is not a package error exit 3.
"""


class FanlatError(Exception):
    """Base class for all package errors."""


class FanValidationError(FanlatError):
    """A fan (or fan-building input) violates the fan axioms."""


class NotSimplicialError(FanValidationError):
    """Operation requires a simplicial fan."""


class NotCompleteError(FanValidationError):
    """Operation requires a complete fan."""


class NotARelationError(FanValidationError):
    """A vector claimed to be a relation does not annihilate the rays."""


class NotLocallyGeneratedError(FanValidationError):
    """A relation outside inclusive level n-1: it has no local decomposition."""


class EnumerationLimitError(FanlatError):
    """A brute-force membership search would try more combinations than its limit."""


class FanFileError(FanlatError):
    """A fan file failed to parse or violates the file schema."""


class InternalCheckError(FanlatError):
    """An internal invariant failed; indicates a bug, not bad input."""
