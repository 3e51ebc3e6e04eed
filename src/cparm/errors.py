"""Exception hierarchy shared by all pipeline stages.

The two bases map onto CLI exit codes: ConfigError -> 2, DataError -> 3;
anything else, such as a failed write -> 4.
"""


class CparmError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CparmError):
    """Invalid configuration or arguments, detected before any work runs."""


class DataError(CparmError):
    """Input data violates a contract (malformed file, bad labels, ...)."""


# --- dataset ---------------------------------------------------------------

class MalformedCsvError(DataError):
    def __init__(self, row_index: int, detail: str = ""):
        self.row_index = row_index
        msg = f"malformed CSV at data row {row_index}"
        super().__init__(f"{msg}: {detail}" if detail else msg)


class UnreadableCsvError(DataError):
    """The file cannot be opened, is not UTF-8 text, or is not CSV that the
    csv module reads."""


class UnknownLabelColumnError(DataError):
    def __init__(self, column: str, header: list[str]):
        self.column = column
        super().__init__(f"label column {column!r} not in header {header}")


class UnmappableLabelError(DataError):
    def __init__(self, row_index: int, token: str):
        self.row_index = row_index
        self.token = token
        super().__init__(f"label token {token!r} at data row {row_index} is not mappable to 0/1")


class EmptyDatasetError(DataError):
    pass


class TooFewRecordsError(DataError):
    """Too few rows to split, or to fit EM's components."""


class SchemaMismatchError(DataError):
    pass


# --- rule mining -------------------------------------------------------------

class NoFeaturesSelectedError(DataError):
    """The rule miner produced no passing rules, so no features can be fed downstream."""


# --- engines ------------------------------------------------------------------

class SingleClassTrainingError(DataError):
    def __init__(self):
        super().__init__("training data contains only one class; need both 0 and 1")


class NonFiniteStatisticError(DataError):
    """A numeric column's fitted mean, deviation or variance overflows float64."""

    def __init__(self, column: str):
        super().__init__(f"numeric column {column!r} holds numbers too large to fit: "
                         "its mean or variance is not finite")


class StageError(CparmError):
    """Wraps a failure so the CLI can report which pipeline stage died."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")
