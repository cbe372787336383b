"""Exception types raised across the package."""


class LdcnetError(Exception):
    """Base class for all ldcnet-specific errors."""


class UnknownVertex(LdcnetError):
    """A vertex label was looked up in a graph that does not contain it."""


class EmptyGraph(LdcnetError):
    """The graph has fewer vertices than the operation requires."""


class NoConvergence(LdcnetError):
    """An iterative solver exhausted its iteration budget."""


class MalformedLine(LdcnetError):
    """An input file violates its format contract at a specific line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NonMonotoneTimestamp(LdcnetError):
    """A subject's onsets are not strictly increasing."""

    def __init__(self, subject_id: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"subject {subject_id!r}: onsets not strictly increasing{detail}")
        self.subject_id = subject_id


class NoRecords(LdcnetError):
    """An empty record list was given to an operation that needs at least one."""


class NoEligibleOccurrence(LdcnetError):
    """No occurrence of the word has the neighbour required by the statistic."""


class InsufficientData(LdcnetError):
    """Too few observations to compute the statistic."""


class ZeroVariance(LdcnetError):
    """A series is constant, so its rank correlation is undefined."""


class UndefinedActualCorrelation(LdcnetError):
    """The actual-order correlation targeted by a permutation test is undefined."""
