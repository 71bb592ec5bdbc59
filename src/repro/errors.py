"""Exception hierarchy for the repro (Starburst reproduction) library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The hierarchy mirrors the two
halves of Starburst: Corona (language processing) errors and Core (data
manager) errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


# ---------------------------------------------------------------------------
# Corona (language processor) errors
# ---------------------------------------------------------------------------


class LanguageError(ReproError):
    """Base class for errors raised while processing Hydrogen statements."""


class LexerError(LanguageError):
    """Raised when the tokenizer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class ParseError(LanguageError):
    """Raised when a Hydrogen statement is syntactically invalid."""

    def __init__(self, message: str, token=None):
        if token is not None:
            message = "%s (near %r at line %d)" % (message, token.text, token.line)
        super().__init__(message)
        self.token = token


class SemanticError(LanguageError):
    """Raised when a statement is well-formed but semantically invalid.

    Examples: unknown table or column, ambiguous column reference, type
    mismatch, aggregate misuse, or an update through an ambiguous view.
    """


class TypeCheckError(SemanticError):
    """Raised when an expression fails type checking."""


class CatalogError(ReproError):
    """Raised for catalog violations (duplicate table, unknown index...)."""


class QGMError(ReproError):
    """Raised when a QGM graph is malformed or an invariant is violated."""


class RewriteError(ReproError):
    """Raised when a rewrite rule leaves QGM in an inconsistent state."""


class OptimizerError(ReproError):
    """Raised when no valid plan can be produced for a QGM operation."""


class ExecutionError(ReproError):
    """Raised by the Query Evaluation System while running a plan."""


class SubqueryError(ExecutionError):
    """Raised for subquery evaluation problems (e.g. scalar cardinality)."""


class DivisionByZeroError(ExecutionError):
    """Raised when ``/`` or ``%`` sees a zero divisor.

    A dedicated type so the differential testkit can treat division by
    zero as its own divergence class: every evaluator (closures,
    generated source, and the reference oracle) must raise exactly this.
    """


# ---------------------------------------------------------------------------
# Serving-layer errors
# ---------------------------------------------------------------------------


class ServeError(ReproError):
    """Base class for the concurrent serving layer (``repro.serve``)."""


class ServerOverloaded(ServeError):
    """Admission control shed this statement: the server is at its
    configured max-inflight and the wait queue did not drain within the
    admission timeout.  Clients should back off and retry."""


class SessionClosed(ServeError):
    """The session (or its server) was closed; no further statements."""


# ---------------------------------------------------------------------------
# Core (data manager) errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-manager and buffer-manager errors."""


class PageError(StorageError):
    """Raised for slotted-page layout violations (overflow, bad slot...)."""


class BufferPoolError(StorageError):
    """Raised when the buffer pool cannot satisfy a request.

    The common case is every frame being pinned when a new page is needed.
    """


class RecordError(StorageError):
    """Raised when a record cannot be (de)serialized for its table schema."""


class TransactionError(ReproError):
    """Base class for transaction-management errors."""


class DeadlockError(TransactionError):
    """Raised when the lock manager detects a deadlock.

    The victim transaction should be aborted and may be retried.
    """


class LockTimeoutError(TransactionError):
    """Raised when a lock request waits longer than the configured bound."""


class RecoveryError(ReproError):
    """Raised when WAL-based recovery encounters a malformed log."""


class ConstraintError(ReproError):
    """Raised when an integrity-constraint attachment rejects a change."""


class AccessMethodError(ReproError):
    """Raised by access-method attachments (B+-tree, hash, R-tree)."""


class ExtensionError(ReproError):
    """Raised when a DBC extension is registered or used incorrectly."""


class DataTypeError(ReproError):
    """Raised for data-type registration and value-validation failures."""


def rebuild_error(class_name: str, message: str) -> ReproError:
    """Reconstruct an engine error that crossed a process or wire
    boundary as (class name, message); unknown names degrade to
    ExecutionError so nothing is swallowed."""
    cls = globals().get(class_name)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return ExecutionError("%s: %s" % (class_name, message))
