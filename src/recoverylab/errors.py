"""Exception types shared across the package."""


class RecoveryLabError(Exception):
    """Base class for all package errors."""


class ConfigError(RecoveryLabError):
    """Unknown task, bad config key, or malformed config file."""


class InputError(RecoveryLabError):
    """Invalid runtime input (non-finite action, dimension mismatch)."""


class ValidationError(RecoveryLabError):
    """Episode or dataset violates a structural invariant."""


class StorageError(RecoveryLabError):
    """I/O failure, corrupt file, or schema-version mismatch."""


class PlanningError(RecoveryLabError):
    """Planner cannot produce a valid plan for the given state."""


class UnrecoverableState(RecoveryLabError):
    """Adverse state from which the recovery planner cannot restore the task."""


class SequencingError(RecoveryLabError):
    """Operation called out of order (e.g. injection before schedule resolution)."""


class InsufficientData(RecoveryLabError):
    """An estimate was requested from an empty or inadequate dataset."""


class CoverageError(RecoveryLabError):
    """Reference cluster does not cover the requested instruction."""


class TrainingError(RecoveryLabError):
    """Training diverged or was given unusable data."""
