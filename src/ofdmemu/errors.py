"""Error taxonomy shared across the package.

Configuration problems (bad field values, malformed config files) map to
CLI exit code 2; everything else that signals a broken invariant at run
time maps to exit code 1.
"""


class OfdmEmuError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OfdmEmuError):
    """A configuration value or config file is invalid."""


class FramingError(OfdmEmuError):
    """A bit block, grid, or sample frame has an inconsistent length."""


class SelectionError(OfdmEmuError):
    """A subcarrier selection is invalid (duplicates, non-data bins)."""


class TrainingError(OfdmEmuError):
    """A training stage diverged, went non-finite, or lacked data.

    Carries the loss trace collected up to the failure in ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
