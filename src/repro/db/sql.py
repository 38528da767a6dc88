"""SQL subset: tokenizer, recursive-descent parser, AST.

Supported statements (enough for every application program in
:mod:`repro.apps` and the host-computer benchmarks):

* ``CREATE TABLE name (col TYPE [PRIMARY KEY] [NOT NULL], ...)``
* ``CREATE INDEX ON table (column)``
* ``INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')``
* ``SELECT a, b | * FROM t [JOIN u ON t.a = u.b] [WHERE expr]
  [ORDER BY col [ASC|DESC]] [LIMIT n]``
* ``UPDATE t SET a = 1 [WHERE expr]``
* ``DELETE FROM t [WHERE expr]``

Expressions support ``AND``/``OR``/``NOT``, comparisons
(``= != <> < <= > >=``), parentheses, string/number/boolean/NULL
literals, column references (optionally ``table.column``) and ``?``
parameter placeholders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ..opt import OPTIMIZATIONS

__all__ = [
    "SQLSyntaxError",
    "parse",
    "clear_parse_cache",
    "CreateTable",
    "CreateIndex",
    "Insert",
    "Select",
    "Update",
    "Delete",
    "ColumnDef",
    "ColumnRef",
    "Literal",
    "Param",
    "Arithmetic",
    "Comparison",
    "Logical",
    "Not",
    "Join",
    "OrderBy",
]


class SQLSyntaxError(Exception):
    """Raised on malformed SQL text."""


# ----------------------------------------------------------------- tokens
_KEYWORDS = {
    "CREATE", "TABLE", "INDEX", "ON", "INSERT", "INTO", "VALUES", "SELECT",
    "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT", "UPDATE", "SET",
    "DELETE", "AND", "OR", "NOT", "NULL", "TRUE", "FALSE", "PRIMARY", "KEY",
    "JOIN", "INTEGER", "REAL", "TEXT", "BOOLEAN", "IF", "EXISTS",
}

_SYMBOLS = ("<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", ".",
            "*", "?", ";", "+", "-")


@dataclass
class _Token:
    kind: str  # KEYWORD | IDENT | NUMBER | STRING | SYMBOL | EOF
    value: Any
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = i + 1
            chunks = []
            while True:
                if j >= n:
                    raise SQLSyntaxError(f"unterminated string at {i}")
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        chunks.append("'")
                        j += 2
                        continue
                    break
                chunks.append(text[j])
                j += 1
            tokens.append(_Token("STRING", "".join(chunks), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()
                            and _numeric_context(tokens)):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            raw = text[i:j]
            value = float(raw) if "." in raw else int(raw)
            tokens.append(_Token("NUMBER", value, i))
            i = j
            continue
        matched_symbol = None
        for symbol in _SYMBOLS:
            if text.startswith(symbol, i):
                matched_symbol = symbol
                break
        if matched_symbol:
            tokens.append(_Token("SYMBOL", matched_symbol, i))
            i += len(matched_symbol)
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in _KEYWORDS:
                tokens.append(_Token("KEYWORD", upper, i))
            else:
                tokens.append(_Token("IDENT", word, i))
            i = j
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r} at {i}")
    tokens.append(_Token("EOF", None, n))
    return tokens


def _numeric_context(tokens: list[_Token]) -> bool:
    """A leading '-' is a sign only after an operator/keyword/'('/','."""
    if not tokens:
        return True
    last = tokens[-1]
    if last.kind in ("NUMBER", "STRING", "IDENT"):
        return False
    if last.kind == "SYMBOL" and last.value == ")":
        return False
    return True


# -------------------------------------------------------------------- AST
@dataclass(frozen=True)
class ColumnRef:
    name: str
    table: Optional[str] = None


@dataclass(frozen=True)
class Literal:
    value: Any


@dataclass(frozen=True)
class Param:
    index: int


@dataclass(frozen=True)
class Arithmetic:
    left: Any
    op: str  # "+" | "-" | "*"
    right: Any


@dataclass(frozen=True)
class Comparison:
    left: Any
    op: str
    right: Any


@dataclass(frozen=True)
class Logical:
    op: str  # "AND" | "OR"
    items: tuple


@dataclass(frozen=True)
class Not:
    item: Any


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: str
    primary_key: bool = False
    nullable: bool = True


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndex:
    table: str
    column: str


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple
    rows: tuple  # tuple of tuples of expressions


@dataclass(frozen=True)
class Join:
    table: str
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class OrderBy:
    column: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class Select:
    table: str
    columns: tuple  # of ColumnRef, or ("*",)
    join: Optional[Join] = None
    where: Any = None
    order_by: Optional[OrderBy] = None
    limit: Optional[int] = None


@dataclass(frozen=True)
class Update:
    table: str
    changes: tuple  # of (column_name, expression)
    where: Any = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Any = None


Statement = Union[CreateTable, CreateIndex, Insert, Select, Update, Delete]


# ----------------------------------------------------------------- parser
class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.param_count = 0

    # -- token helpers -----------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_keyword(self, *keywords: str) -> str:
        token = self.advance()
        if token.kind != "KEYWORD" or token.value not in keywords:
            raise SQLSyntaxError(
                f"expected {' or '.join(keywords)} at position {token.pos}, "
                f"got {token.value!r}"
            )
        return token.value

    def accept_keyword(self, *keywords: str) -> Optional[str]:
        token = self.peek()
        if token.kind == "KEYWORD" and token.value in keywords:
            self.pos += 1
            return token.value
        return None

    def expect_symbol(self, symbol: str) -> None:
        token = self.advance()
        if token.kind != "SYMBOL" or token.value != symbol:
            raise SQLSyntaxError(
                f"expected {symbol!r} at position {token.pos}, "
                f"got {token.value!r}"
            )

    def accept_symbol(self, symbol: str) -> bool:
        token = self.peek()
        if token.kind == "SYMBOL" and token.value == symbol:
            self.pos += 1
            return True
        return False

    def expect_ident(self) -> str:
        token = self.advance()
        if token.kind != "IDENT":
            raise SQLSyntaxError(
                f"expected identifier at position {token.pos}, "
                f"got {token.value!r}"
            )
        return token.value

    # -- entry -----------------------------------------------------------
    def parse_statement(self) -> Statement:
        keyword = self.expect_keyword(
            "CREATE", "INSERT", "SELECT", "UPDATE", "DELETE"
        )
        if keyword == "CREATE":
            statement = self._create()
        elif keyword == "INSERT":
            statement = self._insert()
        elif keyword == "SELECT":
            statement = self._select()
        elif keyword == "UPDATE":
            statement = self._update()
        else:
            statement = self._delete()
        self.accept_symbol(";")
        token = self.peek()
        if token.kind != "EOF":
            raise SQLSyntaxError(
                f"trailing input at position {token.pos}: {token.value!r}"
            )
        return statement

    # -- statements ----------------------------------------------------------
    def _create(self) -> Statement:
        what = self.expect_keyword("TABLE", "INDEX")
        if what == "INDEX":
            self.expect_keyword("ON")
            table = self.expect_ident()
            self.expect_symbol("(")
            column = self.expect_ident()
            self.expect_symbol(")")
            return CreateIndex(table=table, column=column)
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        table = self.expect_ident()
        self.expect_symbol("(")
        columns = []
        while True:
            name = self.expect_ident()
            type_name = self.expect_keyword("INTEGER", "REAL", "TEXT",
                                            "BOOLEAN")
            primary_key = False
            nullable = True
            while True:
                if self.accept_keyword("PRIMARY"):
                    self.expect_keyword("KEY")
                    primary_key = True
                elif self.accept_keyword("NOT"):
                    self.expect_keyword("NULL")
                    nullable = False
                else:
                    break
            columns.append(ColumnDef(name, type_name, primary_key, nullable))
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        return CreateTable(table=table, columns=tuple(columns),
                           if_not_exists=if_not_exists)

    def _insert(self) -> Insert:
        self.expect_keyword("INTO")
        table = self.expect_ident()
        self.expect_symbol("(")
        columns = [self.expect_ident()]
        while self.accept_symbol(","):
            columns.append(self.expect_ident())
        self.expect_symbol(")")
        self.expect_keyword("VALUES")
        rows = []
        while True:
            self.expect_symbol("(")
            values = [self._expression()]
            while self.accept_symbol(","):
                values.append(self._expression())
            self.expect_symbol(")")
            if len(values) != len(columns):
                raise SQLSyntaxError(
                    f"INSERT row has {len(values)} values for "
                    f"{len(columns)} columns"
                )
            rows.append(tuple(values))
            if not self.accept_symbol(","):
                break
        return Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def _select(self) -> Select:
        if self.accept_symbol("*"):
            columns: tuple = ("*",)
        else:
            refs = [self._column_ref()]
            while self.accept_symbol(","):
                refs.append(self._column_ref())
            columns = tuple(refs)
        self.expect_keyword("FROM")
        table = self.expect_ident()
        join = None
        if self.accept_keyword("JOIN"):
            join_table = self.expect_ident()
            self.expect_keyword("ON")
            left = self._column_ref()
            self.expect_symbol("=")
            right = self._column_ref()
            join = Join(table=join_table, left=left, right=right)
        where = self._where_clause()
        order_by = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            column = self._column_ref()
            descending = False
            direction = self.accept_keyword("ASC", "DESC")
            if direction == "DESC":
                descending = True
            order_by = OrderBy(column=column, descending=descending)
        limit = None
        if self.accept_keyword("LIMIT"):
            token = self.advance()
            if token.kind != "NUMBER" or not isinstance(token.value, int):
                raise SQLSyntaxError("LIMIT requires an integer")
            limit = token.value
        return Select(table=table, columns=columns, join=join, where=where,
                      order_by=order_by, limit=limit)

    def _update(self) -> Update:
        table = self.expect_ident()
        self.expect_keyword("SET")
        changes = []
        while True:
            column = self.expect_ident()
            self.expect_symbol("=")
            changes.append((column, self._expression()))
            if not self.accept_symbol(","):
                break
        return Update(table=table, changes=tuple(changes),
                      where=self._where_clause())

    def _delete(self) -> Delete:
        self.expect_keyword("FROM")
        table = self.expect_ident()
        return Delete(table=table, where=self._where_clause())

    # -- expressions -----------------------------------------------------------
    def _where_clause(self):
        if self.accept_keyword("WHERE"):
            return self._or_expr()
        return None

    def _or_expr(self):
        items = [self._and_expr()]
        while self.accept_keyword("OR"):
            items.append(self._and_expr())
        if len(items) == 1:
            return items[0]
        return Logical("OR", tuple(items))

    def _and_expr(self):
        items = [self._not_expr()]
        while self.accept_keyword("AND"):
            items.append(self._not_expr())
        if len(items) == 1:
            return items[0]
        return Logical("AND", tuple(items))

    def _not_expr(self):
        if self.accept_keyword("NOT"):
            return Not(self._not_expr())
        return self._comparison()

    def _comparison(self):
        if self.accept_symbol("("):
            inner = self._or_expr()
            self.expect_symbol(")")
            return inner
        left = self._expression()
        token = self.peek()
        if token.kind == "SYMBOL" and token.value in (
                "=", "!=", "<>", "<", "<=", ">", ">="):
            op = self.advance().value
            if op == "<>":
                op = "!="
            right = self._expression()
            return Comparison(left, op, right)
        return left  # bare truthy expression (e.g. boolean column)

    def _expression(self):
        """Additive arithmetic: term (('+'|'-') term)*."""
        left = self._term()
        while True:
            token = self.peek()
            if token.kind == "SYMBOL" and token.value in ("+", "-"):
                op = self.advance().value
                left = Arithmetic(left, op, self._term())
            else:
                return left

    def _term(self):
        """Multiplicative arithmetic: primary ('*' primary)*."""
        left = self._primary()
        while True:
            token = self.peek()
            if token.kind == "SYMBOL" and token.value == "*":
                self.advance()
                left = Arithmetic(left, "*", self._primary())
            else:
                return left

    def _primary(self):
        token = self.peek()
        if token.kind == "NUMBER" or token.kind == "STRING":
            self.advance()
            return Literal(token.value)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE",
                                                       "NULL"):
            self.advance()
            return Literal({"TRUE": True, "FALSE": False,
                            "NULL": None}[token.value])
        if token.kind == "SYMBOL" and token.value == "?":
            self.advance()
            param = Param(self.param_count)
            self.param_count += 1
            return param
        if token.kind == "IDENT":
            return self._column_ref()
        raise SQLSyntaxError(
            f"unexpected token {token.value!r} at position {token.pos}"
        )

    def _column_ref(self) -> ColumnRef:
        first = self.expect_ident()
        if self.accept_symbol("."):
            second = self.expect_ident()
            return ColumnRef(name=second, table=first)
        return ColumnRef(name=first)


# Prepared-statement cache: SQL text -> parsed AST.  Statement nodes
# are frozen dataclasses, so one AST can safely be shared by every
# execution of the same query text (parameters travel separately).
# Bounded: cleared wholesale on overflow rather than tracking LRU order,
# which keeps the hit path to a single dict lookup.
_PARSE_CACHE_LIMIT = 1024
_parse_cache: dict[str, Statement] = {}


def clear_parse_cache() -> None:
    """Drop every cached AST (test hook; also the overflow policy)."""
    _parse_cache.clear()


def parse(text: str) -> Statement:
    """Parse one SQL statement into its AST."""
    if OPTIMIZATIONS.sql_cache:
        cached = _parse_cache.get(text)
        if cached is not None:
            return cached
    if not text or not text.strip():
        raise SQLSyntaxError("empty statement")
    statement = _Parser(text).parse_statement()
    if OPTIMIZATIONS.sql_cache:
        if len(_parse_cache) >= _PARSE_CACHE_LIMIT:
            _parse_cache.clear()
        _parse_cache[text] = statement
    return statement
