"""Exception hierarchy shared across the package."""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class SmtLibError(ReproError):
    """Malformed SMT-LIB input (lexing, parsing, or command structure)."""


class ParseError(SmtLibError):
    """Syntax error while parsing SMT-LIB text.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SortError(SmtLibError):
    """A term is ill-sorted (wrong operator arity or argument sorts)."""


class EvaluationError(ReproError):
    """A term could not be evaluated under the given model."""


class MutationError(ReproError):
    """A mutation strategy could not produce a mutant for this draw.

    The generic failure of the strategy pipeline: a strategy that
    cannot mutate the selected seed(s) raises this (or a subclass) and
    the campaign loop counts the iteration as a mutation failure and
    moves on. :class:`FusionError` subclasses it, so pre-pipeline code
    that catches ``FusionError`` keeps working unchanged.
    """


class FusionError(MutationError):
    """Semantic Fusion could not be applied (e.g. no fusible variable pair)."""


class ReductionError(ReproError):
    """The formula reducer was driven with an inconsistent oracle."""


class CampaignSpecError(ReproError, ValueError):
    """A campaign's settings contradict each other, or its mode would
    ignore one of them (raised before any work starts)."""


class WorkerSetupError(ReproError):
    """A campaign worker could not set itself up (its spec frame does not
    decode there, or its solvers cannot be built): every worker would
    fail the same way, so no retry can help and the campaign stops."""
