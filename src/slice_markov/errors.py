"""Exception hierarchy shared across the toolkit."""


class SliceMarkovError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SliceMarkovError):
    """Malformed or inconsistent experiment configuration."""


class DegenerateModelError(SliceMarkovError):
    """Resource model admits an unbounded allocation region."""


class InvalidStrategyError(SliceMarkovError):
    """Decision table is malformed or leads outside the region."""


class GuardExceededError(SliceMarkovError):
    """A runtime guard (region size, strategy count, bags per build, brute-force bag length) was hit."""


class ReducibleChainError(SliceMarkovError):
    """Chain has several closed communicating classes; no unique fixed point."""

    def __init__(self, message: str, classes=None):
        super().__init__(message)
        self.classes = classes or []
