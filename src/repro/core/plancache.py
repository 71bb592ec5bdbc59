"""Compile-once-execute-many: the parameterized plan cache.

The paper separates compilation from execution precisely so that "the
result of the compilation stage can be stored for future use"; this module
is that store.  Three pieces:

- :func:`fingerprint_statement` — a canonical key for a statement text,
  computed from the lexer's token stream so whitespace, comments, keyword
  case and ``?`` vs ``:name`` marker style all map to one entry.  With
  ``parameterize_constants`` it additionally lifts top-level comparison
  literals into synthetic parameters (``WHERE id = 7`` and ``WHERE id = 9``
  share a plan), recording a :class:`BindingRecipe` that interleaves user
  parameters and extracted constants back into one parameter vector.

- :class:`PlanCache` — an LRU of :class:`CacheEntry` objects keyed on
  (statement fingerprint, canonical ``CompileOptions`` hash).  Entries
  record the catalog epochs (read as the compile began) and the
  per-relation dependency set they were compiled under; a schema-epoch
  change drops dependent entries, a statistics-epoch change forces a
  recompile of exactly the plans whose dependency set intersects the
  changed tables.

- :class:`Prepared` — the serving path: ``Database.prepare(sql)``
  fingerprints and compiles once, ``Prepared.execute(params)`` skips even
  tokenization on every subsequent call and revalidates only the epochs.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, SemanticError
from repro.language.lexer import KEYWORDS, Token, TokenType, tokenize

#: Comparison operators whose literal operands auto-parameterization lifts.
_COMPARISONS = frozenset(("=", "<>", "!=", "<", "<=", ">", ">="))

#: First keywords of statements the cache must not serve: DDL changes the
#: world the cache indexes, and EXPLAIN is a meta-statement.
_UNCACHEABLE_HEADS = frozenset(("create", "drop", "explain"))


class BindingRecipe:
    """How to build the executed parameter vector for a normalized text.

    One step per parameter marker in the normalized statement, in textual
    order: ``("user", i)`` takes the caller's *i*-th parameter, while
    ``("const", value)`` re-binds a literal that auto-parameterization
    lifted out of the text.
    """

    __slots__ = ("steps", "user_params")

    def __init__(self, steps: Sequence[Tuple[str, Any]]):
        self.steps = tuple(steps)
        self.user_params = sum(1 for kind, _ in steps if kind == "user")

    @property
    def identity(self) -> bool:
        return self.user_params == len(self.steps)

    def bind(self, params: Sequence[Any]) -> Sequence[Any]:
        """Merge user parameters and extracted constants."""
        if self.identity:
            return params
        merged: List[Any] = []
        for kind, value in self.steps:
            merged.append(params[value] if kind == "user" else value)
        return merged


class Fingerprint:
    """The cache-relevant identity of one statement text."""

    __slots__ = ("key", "cacheable", "recipe", "_tokens", "_rewritten")

    def __init__(self, key: str, cacheable: bool, recipe: BindingRecipe,
                 tokens: Optional[List[Token]], rewritten: bool):
        self.key = key
        self.cacheable = cacheable
        self.recipe = recipe
        self._tokens = tokens
        self._rewritten = rewritten

    @property
    def rewritten(self) -> bool:
        """Did auto-parameterization substitute literals?  When true, a
        cold compile must *validate* the original text first (see
        ``Database._serve``): parameters are untyped, so compile-time
        errors that hinge on a literal's type would otherwise vanish."""
        return self._rewritten

    def compile_text(self, original: str) -> str:
        """The text to hand the compiler: the original statement unless
        auto-parameterization substituted literals, in which case the
        normalized rendering (literals replaced by ``?``)."""
        if not self._rewritten:
            return original
        return _render(self._tokens)


#: Statement-text → Fingerprint memo.  Fingerprinting is a pure function
#: of (text, parameterize_constants) — no catalog state — so one global
#: LRU is safe across Database instances, and it keeps the serving path
#: from re-tokenizing a hot statement on every execution.
_FINGERPRINT_MEMO: "OrderedDict[Tuple[str, bool], Fingerprint]" = \
    OrderedDict()
_FINGERPRINT_MEMO_CAPACITY = 2048
#: Serving sessions fingerprint concurrently; the memo's LRU reorder and
#: trim are multi-step and need the lock (fingerprints themselves are
#: immutable, so returning one outside the lock is safe).
_FINGERPRINT_LOCK = threading.Lock()


def reinit_locks() -> None:
    """Fresh module lock after ``fork()`` (a parent thread may have held
    the old one at fork time)."""
    global _FINGERPRINT_LOCK
    _FINGERPRINT_LOCK = threading.Lock()


def fingerprint_statement(sql: str,
                          parameterize_constants: bool = False
                          ) -> Fingerprint:
    """Fingerprint one statement off the lexer's token stream.

    May raise :class:`repro.errors.LexerError` on unscannable input — the
    caller falls back to the ordinary compile path, which reports the
    error through the usual channel.
    """
    memo_key = (sql, parameterize_constants)
    with _FINGERPRINT_LOCK:
        memoized = _FINGERPRINT_MEMO.get(memo_key)
        if memoized is not None:
            _FINGERPRINT_MEMO.move_to_end(memo_key)
            return memoized
    fingerprint = _fingerprint_uncached(sql, parameterize_constants)
    with _FINGERPRINT_LOCK:
        _FINGERPRINT_MEMO[memo_key] = fingerprint
        while len(_FINGERPRINT_MEMO) > _FINGERPRINT_MEMO_CAPACITY:
            _FINGERPRINT_MEMO.popitem(last=False)
    return fingerprint


def _fingerprint_uncached(sql: str,
                          parameterize_constants: bool) -> Fingerprint:
    tokens = tokenize(sql)
    body = [t for t in tokens if t.type is not TokenType.EOF]
    while body and body[-1].type is TokenType.PUNCT and body[-1].text == ";":
        body.pop()
    head = body[0] if body else None
    cacheable = (head is not None
                 and not (head.type is TokenType.KEYWORD
                          and head.text in _UNCACHEABLE_HEADS))

    stream: List[Tuple[str, str]] = []
    steps: List[Tuple[str, Any]] = []
    normalized: List[Token] = []
    user_index = 0
    rewritten = False
    for position, token in enumerate(body):
        if token.type is TokenType.PARAM:
            stream.append(("param", "?"))
            steps.append(("user", user_index))
            user_index += 1
            normalized.append(token)
            continue
        if (parameterize_constants and cacheable
                and token.type in (TokenType.NUMBER, TokenType.STRING)
                and _is_comparison_operand(body, position)):
            # The literal's *type class* stays in the key: `id = 7` and
            # `id = 9` share a plan, but `c < 3` and `c < 'x'` must not —
            # whether the statement even type-checks depends on it.
            stream.append(("param", type(token.value).__name__))
            steps.append(("const", token.value))
            normalized.append(Token(TokenType.PARAM, "?", None,
                                    token.line, token.column))
            rewritten = True
            continue
        normalized.append(token)
        if token.type is TokenType.NUMBER:
            # Hash the value, not the spelling: 1.0 and 1.00 are the same
            # DOUBLE (but 1 stays INTEGER — repr keeps the type apart).
            stream.append(("num", repr(token.value)))
        elif token.type is TokenType.STRING:
            stream.append(("str", token.value))
        elif token.type is TokenType.OPERATOR:
            stream.append(("op", "<>" if token.text == "!=" else token.text))
        elif token.type is TokenType.KEYWORD:
            stream.append(("kw", token.text))
        elif token.type is TokenType.IDENT:
            stream.append(("id", token.value))
        else:
            stream.append(("punct", token.text))

    digest = hashlib.sha256(repr(stream).encode("utf-8")).hexdigest()
    return Fingerprint(digest, cacheable, BindingRecipe(steps),
                       normalized if rewritten else None, rewritten)


def _is_comparison_operand(tokens: List[Token], position: int) -> bool:
    """Is the literal at ``position`` a direct operand of a comparison?

    Literal-vs-literal comparisons are left alone (the rewrite engine
    folds them), as is a literal preceded by unary minus (it is not the
    comparison's direct operand at the token level)."""
    before = tokens[position - 1] if position > 0 else None
    after = tokens[position + 1] if position + 1 < len(tokens) else None
    literalish = (TokenType.NUMBER, TokenType.STRING)
    if before is not None and before.type is TokenType.OPERATOR \
            and before.text in _COMPARISONS:
        two_back = tokens[position - 2] if position > 1 else None
        if two_back is None or two_back.type not in literalish:
            return True
    if after is not None and after.type is TokenType.OPERATOR \
            and after.text in _COMPARISONS:
        two_ahead = tokens[position + 2] \
            if position + 2 < len(tokens) else None
        if two_ahead is None or two_ahead.type not in literalish:
            return True
    return False


_IDENT_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def _render(tokens: Sequence[Token]) -> str:
    """Render a token list back to parseable Hydrogen text."""
    parts: List[str] = []
    for token in tokens:
        if token.type is TokenType.PARAM:
            parts.append("?")
        elif token.type is TokenType.STRING:
            parts.append("'%s'" % token.value.replace("'", "''"))
        elif token.type is TokenType.IDENT:
            text = token.value
            plain = (text and text[0].isalpha() and not text[0].isupper()
                     and all(ch in _IDENT_OK for ch in text)
                     and text not in KEYWORDS)
            parts.append(text if plain else '"%s"' % text)
        else:
            parts.append(token.text)
    return " ".join(parts)


def normalized_text(sql: str) -> str:
    """The statement with *every* literal replaced by ``?`` — the
    display form for statement stats and the slow-query log, which must
    never leak raw constants.  (Fingerprinting lifts only comparison
    operands because only those may bind as typed parameters; display
    text has no such constraint, so VALUES literals are masked too.)

    May raise :class:`repro.errors.LexerError` on unscannable input.
    """
    out: List[Token] = []
    for token in tokenize(sql):
        if token.type is TokenType.EOF:
            continue
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            out.append(Token(TokenType.PARAM, "?", None,
                             token.line, token.column))
        else:
            out.append(token)
    return _render(out)


class CacheEntry:
    """One cached plan plus the world it was compiled against.

    The entry is stamped with the epochs the compile *began* under
    (``compiled.epochs``), not those current at insert: a DDL or ANALYZE
    that lands between the compile's catalog reads and the insert has
    already moved its epochs past the stamp, so the next lookup drops
    the plan instead of serving it for good.
    """

    __slots__ = ("key", "compiled", "dependencies", "schema_epoch",
                 "stats_epoch", "hits", "recompiles")

    def __init__(self, key, compiled):
        self.key = key
        self.compiled = compiled
        self.dependencies = compiled.dependencies
        self.schema_epoch, self.stats_epoch = compiled.epochs
        self.hits = 0
        self.recompiles = 0

    def schema_valid(self, catalog) -> bool:
        if catalog.schema_floor() > self.schema_epoch:
            return False
        return all(catalog.schema_epoch_of(name) <= self.schema_epoch
                   for name in self.dependencies)

    def stats_valid(self, catalog) -> bool:
        return all(catalog.stats_epoch_of(name) <= self.stats_epoch
                   for name in self.dependencies)

    def describe(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.key[0][:12],
            "options": self.compiled.options.describe()
            if self.compiled.options else "default",
            "statement": self.compiled.text,
            "dependencies": sorted(self.dependencies),
            "schema_epoch": self.schema_epoch,
            "stats_epoch": self.stats_epoch,
            "hits": self.hits,
            "recompiles": self.recompiles,
        }


#: Estimated affected rows beyond which a non-query statement is treated
#: as one-off bulk DML by cache admission.  A bulk INSERT..SELECT or an
#: unqualified UPDATE/DELETE spends its time executing, not compiling;
#: caching its plan saves ~nothing and evicts entries that do repeat.
BULK_DML_CARD_FLOOR = 256.0


class PlanCache:
    """LRU cache of compiled statements with epoch-based invalidation.

    Mutation — the LRU reorder on lookup, eviction on insert, stale-entry
    drops — is guarded by one re-entrant lock so concurrent serving
    sessions can share a cache without losing updates or corrupting the
    OrderedDict.  Entries are immutable once inserted (their per-entry
    counters are plain int bumps), so returning them outside the lock is
    safe.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.schema_invalidations = 0
        self.stats_invalidations = 0
        self.admissions_rejected = 0
        #: Keys dropped for stale statistics, so the replacement entry can
        #: carry a per-entry recompile count.
        self._recompiled_keys: Dict[Tuple, int] = {}

    def reinit_locks(self) -> None:
        """Fresh lock after ``fork()`` (a parent thread may have held the
        old one at fork time)."""
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, catalog, key) -> Optional[CacheEntry]:
        """The serving-path lookup: returns a valid entry or None (counted
        as a miss; stale entries are dropped on the way)."""
        with self._lock:
            entry = self._peek_valid(catalog, key, count=True)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            entry.hits += 1
            return entry

    def peek(self, catalog, key) -> Optional[CacheEntry]:
        """Validity check without touching counters or LRU order (EXPLAIN
        uses this to report cache status without perturbing it)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not entry.schema_valid(catalog) \
                    or not entry.stats_valid(catalog):
                return None
            return entry

    def _peek_valid(self, catalog, key, count: bool) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if not entry.schema_valid(catalog):
            del self._entries[key]
            if count:
                self.schema_invalidations += 1
            return None
        if not entry.stats_valid(catalog):
            # Stale statistics don't make a plan wrong, only possibly
            # slow: drop it so the caller recompiles against fresh costs.
            del self._entries[key]
            if count:
                self.stats_invalidations += 1
                self._recompiled_keys[key] = entry.recompiles + 1
            return None
        return entry

    def admissible(self, compiled) -> bool:
        """Cost-aware admission check.  Queries always qualify; DML
        qualifies only when its estimated affected cardinality is small
        (a parameterized point write that plausibly repeats), keeping
        one-off bulk loads from churning the LRU."""
        if compiled.is_query:
            return True
        plan = compiled.plan
        card = plan.props.card if plan is not None else 0.0
        return card < BULK_DML_CARD_FLOOR

    def admit(self, catalog, key, compiled) -> Optional[CacheEntry]:
        """Insert through the admission policy; None means rejected (the
        caller still executes the compiled statement, uncached)."""
        if not self.admissible(compiled):
            with self._lock:
                self.admissions_rejected += 1
            return None
        return self.insert(catalog, key, compiled)

    def insert(self, catalog, key, compiled) -> CacheEntry:
        with self._lock:
            entry = CacheEntry(key, compiled)
            entry.recompiles = self._recompiled_keys.pop(key, 0)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self, catalog=None) -> Dict[str, Any]:
        with self._lock:
            report: Dict[str, Any] = {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "schema_invalidations": self.schema_invalidations,
                "stats_invalidations": self.stats_invalidations,
                "admissions_rejected": self.admissions_rejected,
            }
            if catalog is not None:
                report["schema_epoch"] = catalog.schema_epoch
                report["stats_epoch"] = catalog.stats_epoch
            report["per_entry"] = [entry.describe()
                                   for entry in self._entries.values()]
            return report


class Prepared:
    """A prepared statement: fingerprinted once, re-executable forever.

    ``execute`` serves from the database's plan cache; when DDL or a
    statistics refresh invalidates the plan underneath it, the next
    ``execute`` transparently recompiles.
    """

    def __init__(self, db, sql: str, options, fingerprint: Fingerprint):
        self.db = db
        self.sql = sql
        self.options = options
        self._fingerprint = fingerprint
        self._key = (fingerprint.key, options.key)

    @property
    def parameter_count(self) -> int:
        """How many parameter markers the caller must bind."""
        return self._fingerprint.recipe.user_params

    def execute(self, params: Sequence[Any] = (), txn=None):
        recipe = self._fingerprint.recipe
        if len(params) != recipe.user_params:
            raise ExecutionError(
                "prepared statement takes %d parameter(s), got %d"
                % (recipe.user_params, len(params)))
        return self.db._serve(self.sql, self._fingerprint, self.options,
                              params, txn)

    def explain(self) -> str:
        return self.db.explain(self._fingerprint.compile_text(self.sql),
                               options=self.options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Prepared %r params=%d>" % (self.sql, self.parameter_count)


def prepare_statement(db, sql: str, options) -> Prepared:
    """Build a :class:`Prepared` (see ``Database.prepare``), compiling
    eagerly so bad SQL fails at prepare time, not first execute."""
    fingerprint = fingerprint_statement(
        sql, parameterize_constants=options.constant_parameterization)
    if not fingerprint.cacheable:
        raise SemanticError(
            "cannot prepare DDL or EXPLAIN statements: %r" % sql)
    key = (fingerprint.key, options.key)
    if db.plan_cache.peek(db.catalog, key) is None:
        if fingerprint.rewritten:
            db.compile(sql, options=options)  # type-validate the original
        compiled = db.compile(fingerprint.compile_text(sql), options=options)
        db.plan_cache.insert(db.catalog, key, compiled)
    return Prepared(db, sql, options, fingerprint)
