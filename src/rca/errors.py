"""Exception types shared across the library."""


class ValidationError(ValueError):
    """Base class for input-contract violations."""


class DimensionError(ValidationError):
    """Arrays disagree on shape or embedding dimension."""


class EmptyInputError(ValidationError):
    """An operation received an empty matrix where rows are required."""


class InvalidWeightError(ValidationError):
    """A per-sample weight is non-positive or non-finite."""


class DegenerateEmbeddingError(ValidationError):
    """A cosine was requested for a row whose norm is zero or overflows."""


class InsufficientVocabularyError(ValidationError):
    """Vocabulary holds fewer entries than the requested ranking size."""


class ConfigError(ValidationError):
    """Invalid or unknown configuration value."""


class ParseError(ValueError):
    """A data file failed to parse. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss. Carries the failing step."""

    def __init__(self, step: int, message: str | None = None):
        super().__init__(message or f"non-finite loss at step {step}")
        self.step = step
