"""Exception types shared across the toolkit.

The hierarchy mirrors how failures are handled, not where they are raised:
anything under GenerationFailed aborts a generation run, anything under
ParseRejected means the input file cannot have been produced by the template.
"""

from __future__ import annotations


class Error(Exception):
    """Base class for all btfuzz errors."""


# --- template language ---------------------------------------------------


class TemplateError(Error):
    """Problem with the template source itself."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class TemplateSyntaxError(TemplateError):
    pass


class ResolveError(TemplateError):
    """Unknown type, function, or builtin referenced by the template."""


class ArityError(TemplateError):
    """Parameterized type or function used with the wrong argument count."""


class ImpureExpression(TemplateError):
    """An expression that only one direction runs changes what the run
    holds: a codec stream's length, which only a parse computes."""


# --- generation ----------------------------------------------------------


class GenerationFailed(Error):
    """Base for conditions that abort a generation run."""


class BudgetExceeded(GenerationFailed):
    """A write or declaration would exceed the output byte budget."""


class SeedExhausted(GenerationFailed):
    """The decision seed ran out of bytes mid-generation."""


class ReservationConflict(GenerationFailed):
    """A write disagrees with bytes fixed earlier by a lookahead."""


class OutOfRange(GenerationFailed):
    """Seek or lookahead position outside the valid range."""


class InvalidFieldAccess(GenerationFailed):
    """Access to a field that does not exist on a record instance."""


class TemplateAbort(GenerationFailed):
    """Top-level return with a negative value during generation."""

    def __init__(self, code: int):
        super().__init__(f"template returned {code}")
        self.code = code


class RecursionTooDeep(GenerationFailed):
    """Template functions or records nested deeper than the engine allows."""


class StepBudgetExceeded(GenerationFailed):
    """Template loops ran more iterations than one run may take."""


class LocalArrayTooLarge(GenerationFailed):
    """A local array longer than one run may allocate."""


class EvalError(GenerationFailed):
    """Expression evaluation failed (bad types, division by zero, ...)."""


# --- parsing -------------------------------------------------------------


class ParseRejected(Error):
    """The file cannot be produced by the template from any seed."""


class UnrepresentableValue(ParseRejected):
    """Observed value has no seed encoding under the active choice spec."""


class TrailingBytes(ParseRejected):
    """File is longer than what the template consumed."""

    def __init__(self, consumed: int, size: int):
        super().__init__(f"template consumed {consumed} of {size} bytes")
        self.consumed = consumed
        self.size = size


# --- checksums and codecs ------------------------------------------------


class ChecksumAlgoUnknown(GenerationFailed):
    """Checksum() called with an algorithm the engine does not implement."""


class DecodeError(Error):
    """A codec hook could not decode a byte stream."""


# --- mutation ------------------------------------------------------------


class MutationError(Error):
    pass


class NotOptional(MutationError):
    """Smart delete/insert preconditions on lookahead context not met."""


class TypeMismatch(MutationError):
    """Donor chunk type differs from the target chunk type."""


class SpliceMisaligned(MutationError):
    """Spliced decision bytes did not line up with the target node."""


class NoApplicableMutation(MutationError):
    """No mutation could be applied after the retry budget.  rejected lists
    [op, error class] per rejected attempt."""

    def __init__(self, message: str, rejected: list | None = None):
        super().__init__(message)
        self.rejected = rejected or []
