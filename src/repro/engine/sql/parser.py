"""Recursive-descent parser for the SQL subset.

Statements supported: SELECT (joins, WHERE, GROUP BY, HAVING, ORDER BY,
LIMIT, DISTINCT), CREATE TABLE, INSERT (VALUES and INSERT..SELECT),
UPDATE, DELETE, TRUNCATE TABLE, DROP TABLE, ANALYZE.  Expressions reuse
the
engine expression nodes; aggregate calls parse as
:class:`~repro.engine.expressions.FuncCall` nodes that the planner
recognizes by name (``COUNT(*)`` parses as a zero-argument ``count``).
"""

from __future__ import annotations

from repro.engine.expressions import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
)
import dataclasses

from repro.engine.sql.ast import (
    AnalyzeStatement,
    ColumnDef,
    Exists,
    InSubquery,
    CreateMaterializedViewStatement,
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    DropMaterializedViewStatement,
    DropTableStatement,
    DropViewStatement,
    ExecStatement,
    InsertStatement,
    JoinClause,
    OrderItem,
    RefreshMaterializedViewStatement,
    SelectItem,
    SelectStatement,
    Statement,
    TableRef,
    TruncateStatement,
    UnionStatement,
    UpdateStatement,
)
from repro.engine.sql.lexer import Token, TokenType, tokenize
from repro.errors import SqlSyntaxError

#: Function names the planner treats as aggregates.
AGGREGATE_FUNCS = {"count", "count_distinct", "sum", "min", "max", "avg"}

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Parser:
    """One-shot parser over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        return SqlSyntaxError(message, self.peek().position)

    def expect_keyword(self, *names: str) -> Token:
        token = self.peek()
        if token.is_keyword(*names):
            return self.advance()
        raise self.error(f"expected {'/'.join(names).upper()}, got '{token.value}'")

    def accept_keyword(self, *names: str) -> bool:
        if self.peek().is_keyword(*names):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        token = self.peek()
        if token.type is TokenType.PUNCT and token.value == value:
            return self.advance()
        raise self.error(f"expected '{value}', got '{token.value}'")

    def accept_punct(self, value: str) -> bool:
        token = self.peek()
        if token.type is TokenType.PUNCT and token.value == value:
            self.advance()
            return True
        return False

    def expect_ident(self) -> str:
        token = self.peek()
        if token.type is TokenType.IDENT:
            return self.advance().value
        raise self.error(f"expected identifier, got '{token.value}'")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.is_keyword("select"):
            stmt = self.parse_select_chain()
        elif token.is_keyword("with"):
            stmt = self.parse_with()
        elif token.is_keyword("create"):
            stmt = self.parse_create()
        elif token.is_keyword("exec", "execute"):
            stmt = self.parse_exec()
        elif token.is_keyword("insert"):
            stmt = self.parse_insert()
        elif token.is_keyword("update"):
            stmt = self.parse_update()
        elif token.is_keyword("delete"):
            stmt = self.parse_delete()
        elif token.is_keyword("truncate"):
            stmt = self.parse_truncate()
        elif token.is_keyword("drop"):
            stmt = self.parse_drop()
        elif token.is_keyword("analyze"):
            stmt = self.parse_analyze()
        elif token.is_keyword("refresh"):
            stmt = self.parse_refresh()
        else:
            raise self.error(f"unexpected token '{token.value}' at statement start")
        self.accept_punct(";")
        if self.peek().type is not TokenType.EOF:
            raise self.error(f"trailing input after statement: '{self.peek().value}'")
        return stmt

    def parse_select_chain(self) -> SelectStatement | UnionStatement:
        """A SELECT, optionally UNION ALL'ed with further SELECTs."""
        first = self.parse_select()
        if not self.peek().is_keyword("union"):
            return first
        selects = [first]
        while self.accept_keyword("union"):
            self.expect_keyword("all")  # bag semantics only
            selects.append(self.parse_select())
        return UnionStatement(tuple(selects))

    def parse_with(self) -> SelectStatement:
        """``WITH name AS (SELECT ...) [, ...] SELECT ...``.

        CTEs attach to the following SELECT; nested WITH, recursive
        CTEs and WITH over UNION are not supported.
        """
        self.expect_keyword("with")
        ctes: list[tuple[str, SelectStatement]] = []
        seen: set[str] = set()
        while True:
            name = self.expect_ident()
            if name in seen:
                raise self.error(f"duplicate CTE name '{name}'")
            seen.add(name)
            self.expect_keyword("as")
            self.expect_punct("(")
            body = self.parse_select()
            self.expect_punct(")")
            ctes.append((name, body))
            if not self.accept_punct(","):
                break
        select = self.parse_select()
        if self.peek().is_keyword("union"):
            raise self.error("UNION under WITH is not supported")
        return dataclasses.replace(select, ctes=tuple(ctes))

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        top: int | None = None
        if self.accept_keyword("top"):
            # the SQL Server spelling of LIMIT, era-appropriate
            token = self.peek()
            if token.type is not TokenType.NUMBER:
                raise self.error("TOP expects a number")
            self.advance()
            top = int(float(token.value))
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())

        source: TableRef | None = None
        joins: list[JoinClause] = []
        if self.accept_keyword("from"):
            source = self.parse_table_ref()
            while True:
                if self.accept_keyword("cross"):
                    self.expect_keyword("join")
                    joins.append(JoinClause("cross", self.parse_table_ref(), None))
                elif self.peek().is_keyword("left"):
                    self.advance()
                    self.accept_keyword("outer")
                    self.expect_keyword("join")
                    table = self.parse_table_ref()
                    self.expect_keyword("on")
                    joins.append(JoinClause("left", table, self.parse_expr()))
                elif self.peek().is_keyword("inner", "join"):
                    self.accept_keyword("inner")
                    self.expect_keyword("join")
                    table = self.parse_table_ref()
                    self.expect_keyword("on")
                    joins.append(JoinClause("inner", table, self.parse_expr()))
                else:
                    break

        where = self.parse_expr() if self.accept_keyword("where") else None

        group_by: list[Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())

        having = self.parse_expr() if self.accept_keyword("having") else None

        order_by: list[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            while True:
                expr = self.parse_expr()
                # ORDER BY <ordinal>: a bare integer names a select item
                if (
                    isinstance(expr, Literal)
                    and isinstance(expr.value, int)
                    and not isinstance(expr.value, bool)
                ):
                    position = expr.value
                    if not (1 <= position <= len(items)):
                        raise self.error(
                            f"ORDER BY position {position} out of range"
                        )
                    item = items[position - 1]
                    if item.star or item.expr is None:
                        raise self.error("cannot ORDER BY a * item")
                    expr = item.expr
                ascending = True
                if self.accept_keyword("desc"):
                    ascending = False
                else:
                    self.accept_keyword("asc")
                order_by.append(OrderItem(expr, ascending))
                if not self.accept_punct(","):
                    break

        limit: int | None = top
        offset: int | None = None
        if self.accept_keyword("limit"):
            if top is not None:
                raise self.error("cannot combine TOP with LIMIT")
            token = self.peek()
            if token.type is not TokenType.NUMBER:
                raise self.error("LIMIT expects a number")
            self.advance()
            limit = int(float(token.value))
            if self.accept_keyword("offset"):
                token = self.peek()
                if token.type is not TokenType.NUMBER:
                    raise self.error("OFFSET expects a number")
                self.advance()
                offset = int(float(token.value))

        return SelectStatement(
            items=tuple(items),
            source=source,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def parse_select_item(self) -> SelectItem:
        token = self.peek()
        # bare * or alias.*
        if token.type is TokenType.OPERATOR and token.value == "*":
            self.advance()
            return SelectItem(None, None, star=True)
        if (
            token.type is TokenType.IDENT
            and self.peek(1).type is TokenType.PUNCT
            and self.peek(1).value == "."
            and self.peek(2).type is TokenType.OPERATOR
            and self.peek(2).value == "*"
        ):
            qualifier = self.advance().value
            self.advance()  # .
            self.advance()  # *
            return SelectItem(None, None, star=True, star_qualifier=qualifier)

        expr = self.parse_expr()
        alias: str | None = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return SelectItem(expr, alias)

    def parse_table_ref(self) -> TableRef:
        # derived table: FROM (SELECT ...) alias
        if self.peek().type is TokenType.PUNCT and self.peek().value == "(":
            self.advance()
            subquery = self.parse_select()
            self.expect_punct(")")
            self.accept_keyword("as")
            alias = self.expect_ident()
            return TableRef("", alias, subquery=subquery)
        name = self.expect_ident()
        # swallow schema qualifiers (MySkyServerDr1.dbo.Zone -> zone)
        while self.accept_punct("."):
            name = self.expect_ident()
        function_args: tuple | None = None
        if self.accept_punct("("):
            # table-valued function: FROM fGetNearbyObjEqZd(2.5, 3.0, 0.5) n
            args: list = []
            if not self.accept_punct(")"):
                args.append(self.parse_expr())
                while self.accept_punct(","):
                    args.append(self.parse_expr())
                self.expect_punct(")")
            function_args = tuple(args)
        alias = name
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return TableRef(name, alias, function_args)

    def parse_create(self) -> Statement:
        """Dispatch CREATE TABLE vs CREATE [MATERIALIZED] VIEW."""
        if self.peek(1).is_keyword("materialized"):
            return self.parse_create_materialized_view()
        if self.peek(1).is_keyword("view"):
            return self.parse_create_view()
        return self.parse_create_table()

    def parse_create_view(self) -> CreateViewStatement:
        self.expect_keyword("create")
        self.expect_keyword("view")
        name = self.expect_ident()
        self.expect_keyword("as")
        return CreateViewStatement(name, self.parse_select())

    def parse_create_materialized_view(self) -> CreateMaterializedViewStatement:
        self.expect_keyword("create")
        self.expect_keyword("materialized")
        self.expect_keyword("view")
        name = self.expect_ident()
        self.expect_keyword("as")
        return CreateMaterializedViewStatement(name, self.parse_select())

    def parse_refresh(self) -> RefreshMaterializedViewStatement:
        self.expect_keyword("refresh")
        self.expect_keyword("materialized")
        self.expect_keyword("view")
        return RefreshMaterializedViewStatement(self.expect_ident())

    def parse_exec(self) -> ExecStatement:
        self.advance()  # EXEC / EXECUTE
        name = self.expect_ident()
        while self.accept_punct("."):
            name = self.expect_ident()  # dbo.spMakeClusters -> spmakeclusters
        arguments: list = []
        token = self.peek()
        if not (token.type is TokenType.EOF
                or (token.type is TokenType.PUNCT and token.value == ";")):
            arguments.append(self.parse_expr())
            while self.accept_punct(","):
                arguments.append(self.parse_expr())
        return ExecStatement(name, tuple(arguments))

    def parse_create_table(self) -> CreateTableStatement:
        self.expect_keyword("create")
        self.expect_keyword("table")
        if_not_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("not")
            self.expect_keyword("exists")
            if_not_exists = True
        name = self.expect_ident()
        self.expect_punct("(")
        columns: list[ColumnDef] = []
        while True:
            col_name = self.expect_ident()
            type_name = self.expect_ident()
            # swallow (n) length suffixes like varchar(64)
            if self.accept_punct("("):
                while not self.accept_punct(")"):
                    self.advance()
            primary = False
            if self.accept_keyword("primary"):
                self.expect_keyword("key")
                primary = True
            self.accept_keyword("not")  # NOT NULL is accepted and ignored
            self.accept_keyword("null")
            if self.accept_keyword("primary"):
                self.expect_keyword("key")
                primary = True
            columns.append(ColumnDef(col_name, type_name, primary))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return CreateTableStatement(name, tuple(columns), if_not_exists)

    def parse_insert(self) -> InsertStatement:
        self.expect_keyword("insert")
        self.accept_keyword("into")
        table = self.expect_ident()
        columns: tuple[str, ...] | None = None
        if self.accept_punct("("):
            names = [self.expect_ident()]
            while self.accept_punct(","):
                names.append(self.expect_ident())
            self.expect_punct(")")
            columns = tuple(names)
        if self.peek().is_keyword("select"):
            return InsertStatement(table, columns, select=self.parse_select())
        self.expect_keyword("values")
        rows: list[tuple[Expr, ...]] = []
        while True:
            self.expect_punct("(")
            values = [self.parse_expr()]
            while self.accept_punct(","):
                values.append(self.parse_expr())
            self.expect_punct(")")
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return InsertStatement(table, columns, rows=tuple(rows))

    def parse_update(self) -> UpdateStatement:
        self.expect_keyword("update")
        table = self.expect_ident()
        self.expect_keyword("set")
        assignments: list[tuple[str, Expr]] = []
        while True:
            column = self.expect_ident()
            token = self.peek()
            if token.type is TokenType.OPERATOR and token.value == "=":
                self.advance()
            else:
                raise self.error("expected '=' in UPDATE assignment")
            assignments.append((column, self.parse_expr()))
            if not self.accept_punct(","):
                break
        where = self.parse_expr() if self.accept_keyword("where") else None
        return UpdateStatement(table, tuple(assignments), where)

    def parse_delete(self) -> DeleteStatement:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("where") else None
        return DeleteStatement(table, where)

    def parse_truncate(self) -> TruncateStatement:
        self.expect_keyword("truncate")
        self.expect_keyword("table")
        return TruncateStatement(self.expect_ident())

    def parse_analyze(self) -> AnalyzeStatement:
        """``ANALYZE [table]`` — no table means the whole catalog."""
        self.expect_keyword("analyze")
        if self.peek().type is TokenType.IDENT:
            return AnalyzeStatement(self.expect_ident())
        return AnalyzeStatement(None)

    def parse_drop(self) -> Statement:
        self.expect_keyword("drop")
        kind = "table"
        if self.accept_keyword("materialized"):
            self.expect_keyword("view")
            kind = "matview"
        elif self.accept_keyword("view"):
            kind = "view"
        else:
            self.expect_keyword("table")
        if_exists = False
        if self.accept_keyword("if"):
            self.expect_keyword("exists")
            if_exists = True
        name = self.expect_ident()
        if kind == "matview":
            return DropMaterializedViewStatement(name, if_exists)
        if kind == "view":
            return DropViewStatement(name, if_exists)
        return DropTableStatement(name, if_exists)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_keyword("or"):
            left = BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_keyword("and"):
            left = BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = self.advance().value
            return BinaryOp(op, left, self.parse_additive())
        negate = False
        if token.is_keyword("not"):
            nxt = self.peek(1)
            if nxt.is_keyword("between", "in", "like"):
                self.advance()
                negate = True
                token = self.peek()
        if token.is_keyword("between"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            expr: Expr = Between(left, low, high)
            return UnaryOp("NOT", expr) if negate else expr
        if token.is_keyword("in"):
            self.advance()
            self.expect_punct("(")
            if self.peek().is_keyword("select"):
                sub = self.parse_select()
                self.expect_punct(")")
                expr = InSubquery(left, sub)
                return UnaryOp("NOT", expr) if negate else expr
            options = [self.parse_expr()]
            while self.accept_punct(","):
                options.append(self.parse_expr())
            self.expect_punct(")")
            expr = InList(left, tuple(options))
            return UnaryOp("NOT", expr) if negate else expr
        if token.is_keyword("is"):
            self.advance()
            is_not = self.accept_keyword("not")
            self.expect_keyword("null")
            expr = FuncCall("isnull", (left,))
            return UnaryOp("NOT", expr) if is_not else expr
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                op = self.advance().value
                left = BinaryOp(op, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.type is TokenType.OPERATOR and token.value in ("*", "/", "%"):
                op = self.advance().value
                left = BinaryOp(op, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            self.advance()
            return UnaryOp("-", self.parse_unary())
        if token.type is TokenType.OPERATOR and token.value == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_primary()

    def parse_case(self) -> Expr:
        """Searched CASE: CASE WHEN cond THEN value ... [ELSE value] END."""
        self.expect_keyword("case")
        whens: list[tuple[Expr, Expr]] = []
        while self.accept_keyword("when"):
            condition = self.parse_expr()
            self.expect_keyword("then")
            whens.append((condition, self.parse_expr()))
        if not whens:
            raise self.error("CASE requires at least one WHEN branch")
        default = self.parse_expr() if self.accept_keyword("else") else None
        self.expect_keyword("end")
        return Case(tuple(whens), default)

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.is_keyword("true"):
            self.advance()
            return Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return Literal(False)
        if token.is_keyword("null"):
            self.advance()
            return Literal(float("nan"))
        if token.is_keyword("case"):
            return self.parse_case()
        if token.is_keyword("exists"):
            self.advance()
            self.expect_punct("(")
            sub = self.parse_select()
            self.expect_punct(")")
            return Exists(sub)
        if self.accept_punct("("):
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            name = self.advance().value
            # function call
            if self.accept_punct("("):
                if name == "cast":
                    inner = self.parse_expr()
                    self.expect_keyword("as")
                    self.expect_ident()  # target type, ignored (uniform widths)
                    self.expect_punct(")")
                    return FuncCall("cast", (inner,))
                star = self.peek()
                if star.type is TokenType.OPERATOR and star.value == "*":
                    self.advance()
                    self.expect_punct(")")
                    if name not in AGGREGATE_FUNCS:
                        raise self.error(f"'{name}(*)' is not valid")
                    return FuncCall(name, ())  # COUNT(*)
                if star.is_keyword("distinct"):
                    # COUNT(DISTINCT expr)
                    self.advance()
                    if name != "count":
                        raise self.error(
                            f"DISTINCT inside '{name}(...)' is not supported"
                        )
                    inner = self.parse_expr()
                    self.expect_punct(")")
                    return FuncCall("count_distinct", (inner,))
                args: list[Expr] = []
                if not self.accept_punct(")"):
                    args.append(self.parse_expr())
                    while self.accept_punct(","):
                        args.append(self.parse_expr())
                    self.expect_punct(")")
                return FuncCall(name, tuple(args))
            # qualified column
            if self.accept_punct("."):
                column = self.expect_ident()
                return ColumnRef(column, name)
            return ColumnRef(name)
        raise self.error(f"unexpected token '{token.value}' in expression")


def parse(text: str) -> Statement:
    """Parse a single SQL statement."""
    return Parser(text).parse_statement()


def parse_script(text: str) -> list[Statement]:
    """Parse a ';'-separated script into a statement list."""
    return [parse(chunk) for chunk in split_statements(text)]


def split_statements(text: str) -> list[str]:
    """Split on top-level semicolons, respecting strings and comments."""
    chunks: list[str] = []
    depth = 0
    current: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if text.startswith("--", i):
            end = text.find("\n", i)
            end = n if end < 0 else end + 1
            current.append(text[i:end])
            i = end
            continue
        if ch == "'":
            j = i + 1
            while j < n:
                if text[j] == "'" and not text.startswith("''", j):
                    break
                j += 2 if text.startswith("''", j) else 1
            current.append(text[i:j + 1])
            i = j + 1
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            chunk = "".join(current).strip()
            if chunk:
                chunks.append(chunk)
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    tail = "".join(current).strip()
    if tail:
        chunks.append(tail)
    return chunks
