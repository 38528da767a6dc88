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

from typing import Any, Optional, Union

from ..opt import OPTIMIZATIONS

__all__ = [
    "SQLSyntaxError",
    "parse",
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


class _Token:
    def __init__(self, kind: str, value: Any, pos: int):
        self.kind = kind  # KEYWORD | IDENT | NUMBER | STRING | SYMBOL | EOF
        self.value = value
        self.pos = pos


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
# Nodes are read-only by convention: the parse cache below shares one
# AST between executions.
class ColumnRef:
    def __init__(self, name: str, table: Optional[str] = None):
        self.name = name
        self.table = table


class Literal:
    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other):
        if other.__class__ is Literal:
            return self.value == other.value
        return NotImplemented


class Param:
    def __init__(self, index: int):
        self.index = index

    def __eq__(self, other):
        if other.__class__ is Param:
            return self.index == other.index
        return NotImplemented


class Arithmetic:
    def __init__(self, left: Any, op: str, right: Any):
        self.left = left
        self.op = op  # "+" | "-" | "*"
        self.right = right


class Comparison:
    def __init__(self, left: Any, op: str, right: Any):
        self.left = left
        self.op = op
        self.right = right


class Logical:
    def __init__(self, op: str, items: tuple):
        self.op = op  # "AND" | "OR"
        self.items = items


class Not:
    def __init__(self, item: Any):
        self.item = item


class ColumnDef:
    def __init__(self, name: str, type: str, primary_key: bool = False,
                 nullable: bool = True):
        self.name = name
        self.type = type
        self.primary_key = primary_key
        self.nullable = nullable


class CreateTable:
    def __init__(self, table: str, columns: tuple,
                 if_not_exists: bool = False):
        self.table = table
        self.columns = columns
        self.if_not_exists = if_not_exists


class CreateIndex:
    def __init__(self, table: str, column: str):
        self.table = table
        self.column = column


class Insert:
    def __init__(self, table: str, columns: tuple, rows: tuple):
        self.table = table
        self.columns = columns
        self.rows = rows  # tuple of tuples of expressions


class Join:
    def __init__(self, table: str, left: ColumnRef, right: ColumnRef):
        self.table = table
        self.left = left
        self.right = right


class OrderBy:
    def __init__(self, column: ColumnRef, descending: bool = False):
        self.column = column
        self.descending = descending


class Select:
    def __init__(self, table: str, columns: tuple, join: Optional[Join] = None,
                 where: Any = None, order_by: Optional[OrderBy] = None,
                 limit: Optional[int] = None):
        self.table = table
        self.columns = columns  # of ColumnRef, or ("*",)
        self.join = join
        self.where = where
        self.order_by = order_by
        self.limit = limit


class Update:
    def __init__(self, table: str, changes: tuple, where: Any = None):
        self.table = table
        self.changes = changes  # of (column_name, expression)
        self.where = where


class Delete:
    def __init__(self, table: str, where: Any = None):
        self.table = table
        self.where = where


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


# Prepared-statement cache: SQL text -> parsed AST.  Nothing writes to
# a statement node after the parser builds it, so one AST can be shared
# by every execution of the same query text (parameters travel
# separately); the caches-off rows of tests/test_perf_bench.py pin that
# sharing changes no report byte.
# Bounded: cleared wholesale on overflow rather than tracking LRU order,
# which keeps the hit path to a single dict lookup.
_PARSE_CACHE_LIMIT = 1024
_parse_cache: dict[str, Statement] = {}


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
