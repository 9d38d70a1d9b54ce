"""Exception hierarchy shared by all modules.

Each family maps to one CLI exit code: usage errors 2, input parse
errors 3, empty-input errors 4, numeric-domain errors 5.
"""


class WgmError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class UsageError(WgmError):
    """Invalid flag or configuration value, caught before any I/O, or an
    output path that cannot be written."""

    exit_code = 2


class InputFormatError(WgmError):
    """A file (or in-memory table) violates its declared format."""

    exit_code = 3


class EmptyInputError(WgmError):
    """An operation was asked to work on empty data."""

    exit_code = 4


class DomainError(WgmError):
    """A numeric argument is outside the operation's domain."""

    exit_code = 5


class ParseError(InputFormatError):
    """A line could not be parsed; carries the 1-based line number, or with
    `unit="record"` the number of the data record where the line is not known."""

    def __init__(self, line: int, reason: str, path: str | None = None, unit: str = "line"):
        self.line = line
        self.reason = reason
        self.path = path
        where = f"{unit} {line}" if not path else f"{path}:{line}" if unit == "line" else f"{path}: {unit} {line}"
        super().__init__(f"{where}: {reason}")


class DuplicateNodeId(ParseError):
    """The same node id appears twice in a node table."""


class DuplicateCategoryId(ParseError):
    """The same category id is named twice in a category-name table."""


class UnnamedCategory(ParseError):
    """A category referenced by the article map has no name entry."""


class UnknownNodeInEdge(ParseError):
    """An edge references a node id absent from the node table."""


class EndpointOutOfRange(DomainError):
    """An edge handed to build_graph has an endpoint < 0 or >= node_count."""


class NodeOutOfRange(DomainError):
    """A queried node id is outside [0, node_count)."""


class EmptyGraph(EmptyInputError):
    """The graph has no nodes."""


class SingleNode(EmptyInputError):
    """Pair sampling needs at least two nodes."""


class InvalidPercentile(DomainError):
    """Percentile must lie strictly between 0 and 1."""


class InvalidFraction(DomainError):
    """Top fraction must lie in (0, 1]."""


class InvalidSpec(DomainError):
    """Generator parameters violate their constraints."""


class InsufficientPoints(DomainError):
    """Too few distinct degree values to fit a line."""


class EmptyLog(EmptyInputError):
    """The resolved edit log contains no edits."""


class EmptyCategory(EmptyInputError):
    """The category has no edits (after any exclusions)."""


class EmptyCategorySelection(EmptyInputError):
    """resolve_edits needs at least one selected category."""


class EmptyProfile(EmptyInputError):
    """The author profile has no edits."""
