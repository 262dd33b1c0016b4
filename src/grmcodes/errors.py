"""Exception types shared across the package.

Most errors subclass ValueError so generic callers can catch broadly.
CapExceeded and WitnessNotFound, a scan that ran out or came up empty,
subclass RuntimeError; ParameterMismatch, a contradicted claim, only
GrmError.
"""


class GrmError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(GrmError, ValueError):
    """Elements or codes from different fields were combined."""


class UnsupportedField(GrmError, ValueError):
    """Requested field size is not in the built-in table."""


class NoEmbeddingDefined(GrmError, ValueError):
    """No designated quadratic extension/subfield for this field."""


class DimensionMismatch(GrmError, ValueError):
    """Vector or code lengths do not agree."""


class EmptyCode(GrmError, ValueError):
    """Operation undefined on the zero code."""


class NotNested(GrmError, ValueError):
    """Required (strict) code containment does not hold."""


class CapExceeded(GrmError, RuntimeError):
    """An exhaustive enumeration would exceed the configured cap.

    It stops a command: a weight distribution over the cap, or an MDS chain
    left with a distance bound.  The distance engine catches the support
    search's and, when it gives up, returns its certified bound as a value.
    """


class OrderOutOfRange(GrmError, ValueError):
    """Reed-Muller order outside the valid range."""


class LengthCapExceeded(GrmError, ValueError):
    """Code length would exceed the configured maximum."""


class NotSelfOrthogonal(GrmError, ValueError):
    """Code is not self-orthogonal under the required inner product."""


class WitnessInvalid(GrmError, ValueError):
    """Supplied puncture witness fails validation."""


class WitnessNotFound(GrmError, RuntimeError):
    """No vector of the requested weight was found.

    ``proven_absent`` is True when a completed exhaustive scan proves no
    such vector exists, False when only a partial/subcode scan ran.
    """

    def __init__(self, message: str, proven_absent: bool = False):
        super().__init__(message)
        self.proven_absent = proven_absent


class InexactParameters(GrmError, ValueError):
    """Operation requires exact (not lower-bound) code parameters."""


class ParameterMismatch(GrmError):
    """A computed parameter or containment disagrees with its closed form.

    Raised, never asserted, so that the check survives ``python -O``.
    """


def decide(construction: str, *checks: tuple) -> None:
    """Raise ParameterMismatch at the first of ``checks`` that fails: the one way a claim fails.

    Each check is (name, passed, observed, expected, exact), as a report
    lists it.
    """
    for name, passed, observed, expected, _ in checks:
        if not passed:
            raise ParameterMismatch(f"{construction} check {name} failed: observed {observed}, expected {expected}")
