"""Recursive-descent parser producing a TemplateUnit."""

from __future__ import annotations

from ..errors import TemplateSyntaxError
from .lexer import Token, TokenKind, tokenize
from .nodes import (
    DYNAMIC_ARRAY,
    ArrayExtend,
    Assign,
    Binary,
    Break,
    Call,
    EnumMember,
    Expr,
    ExprStmt,
    FloatLit,
    FunctionDef,
    Ident,
    If,
    Index,
    InputDecl,
    IntLit,
    LocalDecl,
    Member,
    Postfix,
    Return,
    Stmt,
    StrLit,
    Switch,
    SwitchCase,
    TemplateUnit,
    Ternary,
    TypeDef,
    Unary,
    While,
)

# Infix binding powers, C precedence.  Higher binds tighter.
_BINARY_BP = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_LEAVES = {TokenKind.INT: IntLit, TokenKind.CHAR: IntLit, TokenKind.FLOAT: FloatLit,
           TokenKind.STRING: StrLit, TokenKind.IDENT: Ident}

_UNARY_OPS = {"-", "+", "!", "~"}
_PREFIX_OPS = _UNARY_OPS | {"++", "--"}

# How deep a template may nest, whoever calls the parser: checked as it
# parses, so that neither parsing nor compiling a template runs out of
# Python stack.  MAX_NESTING bounds the statements and the parenthesized,
# bracketed and argument expressions open at once (up to six parser frames
# each); MAX_HEIGHT bounds an expression tree's height plus the levels
# and else-if arms open around it (a few compiler frames each), and so the
# length of an else-if chain.
MAX_NESTING = 50
MAX_HEIGHT = 320


class Parser:
    def __init__(self, source: str, source_name: str = "<template>"):
        self.tokens = tokenize(source)
        self.pos = 0
        self.source_name = source_name
        self.warnings: list[str] = []
        self.nesting = 0  # statements and expressions open
        self.height = 0  # of the expression parsed last
        self.arms = 0  # else-if arms open

    # -- token helpers ------------------------------------------------

    def _current(self) -> Token:
        return self.tokens[self.pos]

    def _peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _at(self, kind: TokenKind, value=None) -> bool:
        tok = self._current()
        return tok.kind is kind and (value is None or tok.value == value)

    def _at_op(self, op: str) -> bool:
        return self._at(TokenKind.OP, op)

    def _at_kw(self, word: str) -> bool:
        return self._at(TokenKind.KEYWORD, word)

    def _expect(self, kind: TokenKind, value=None) -> Token:
        tok = self._current()
        if tok.kind is not kind or (value is not None and tok.value != value):
            want = value if value is not None else kind.name.lower()
            raise TemplateSyntaxError(f"expected {want!r}, found {tok.value!r}", tok.line, tok.col)
        return self._advance()

    def _expect_op(self, op: str) -> Token:
        return self._expect(TokenKind.OP, op)

    def _error(self, message: str, tok: Token | None = None):
        tok = tok or self._current()
        raise TemplateSyntaxError(message, tok.line, tok.col)

    def _items(self, opener: str, closer: str, item) -> list:
        """`opener item, item, ... closer`, a comma allowed after the last
        item.  self.height is left at the tallest item's (0 if none)."""
        self._expect_op(opener)
        items, height = [], 0
        while not self._at_op(closer):
            items.append(item())
            height = max(height, self.height)
            if not self._at_op(closer):
                self._expect_op(",")
        self._expect_op(closer)
        self.height = height
        return items

    def _block(self) -> list[Stmt]:
        """`{ statements }`."""
        self._expect_op("{")
        body = []
        while not self._at_op("}"):
            body += self._statement()
        self._expect_op("}")
        return body

    # -- unit ----------------------------------------------------------

    def parse_unit(self) -> TemplateUnit:
        unit = TemplateUnit(source_name=self.source_name)
        while not self._at(TokenKind.EOF):
            if self._at_kw("typedef"):
                self._define_type(unit, self._typedef())
            elif self._at_kw("struct"):
                self._define_type(unit, self._struct(self._current()))
            elif self._looks_like_function():
                fn = self._function_def()
                if fn.name in unit.functions:
                    raise TemplateSyntaxError(f"duplicate function {fn.name!r}", *fn.span)
                unit.functions[fn.name] = fn
            else:
                unit.toplevel += self._statement()
        unit.warnings.extend(self.warnings)
        return unit

    def _define_type(self, unit: TemplateUnit, td: TypeDef):
        if td.name in unit.typedefs:
            raise TemplateSyntaxError(f"duplicate type {td.name!r}", *td.span)
        unit.typedefs[td.name] = td

    def _looks_like_function(self):
        # `type name ( ... ) {` at top level is a function definition;
        # `type name ( ... ) ;` is a record instantiation with arguments.
        if not (self._at_kw("void") or self._at(TokenKind.IDENT)) \
                or self._peek().kind is not TokenKind.IDENT:
            return False
        tok = self._peek(2)
        if not (tok.kind is TokenKind.OP and tok.value == "("):
            return False
        depth, idx = 0, 2
        while (tok := self._peek(idx)).kind is not TokenKind.EOF:
            if tok.kind is TokenKind.OP and tok.value in ("(", ")"):
                depth += 1 if tok.value == "(" else -1
                if depth == 0:
                    after = self._peek(idx + 1)
                    return after.kind is TokenKind.OP and after.value == "{"
            idx += 1
        return False

    # -- type definitions ----------------------------------------------

    def _typedef(self) -> TypeDef:
        start = self._expect(TokenKind.KEYWORD, "typedef")
        if self._at_kw("struct"):
            return self._struct(start, named=False)
        kind, members = "alias", []
        if self._at_kw("enum"):
            self._advance()
            kind, underlying = "enum", "int32"
            if self._at_op("<"):
                self._advance()
                underlying = self._type_name()
                self._expect_op(">")
            members = self._enum_body()
        else:  # plain alias: typedef uint32 DWORD;
            underlying = self._type_name()
        name = self._expect(TokenKind.IDENT).value
        self._expect_op(";")
        return TypeDef(name=name, kind=kind, members=members, underlying=underlying,
                       span=(start.line, start.col))

    def _struct(self, start: Token, named: bool = True) -> TypeDef:
        """`struct NAME (params) { body };`, or without NAME and with the
        name after the body once `typedef` (start) is read."""
        self._expect(TokenKind.KEYWORD, "struct")
        name = self._expect(TokenKind.IDENT).value if named else None
        params = self._params() if self._at_op("(") else []
        body = self._block()
        name = name or self._expect(TokenKind.IDENT).value
        self._expect_op(";")
        return TypeDef(name=name, kind="record", params=params, body=body,
                       span=(start.line, start.col))

    def _type_name(self) -> str:
        if self._at_kw("void"):
            self._advance()
            return "void"
        return self._expect(TokenKind.IDENT).value

    def _params(self) -> list[tuple[str, str]]:
        def param():
            ptype = self._type_name()
            return self._expect(TokenKind.IDENT).value, ptype
        return self._items("(", ")", param)

    def _enum_body(self) -> list[EnumMember]:
        next_value = 0

        def member():
            nonlocal next_value
            name = self._expect(TokenKind.IDENT).value
            if self._at_op("="):
                self._advance()
                next_value = self._const_int()
            next_value += 1
            return EnumMember(name, next_value - 1)
        members = self._items("{", "}", member)
        if not members:
            self._error("enum value list must be non-empty")
        return members

    def _const_int(self) -> int:
        if negate := self._at_op("-"):
            self._advance()
        tok = self._current()
        if tok.kind is TokenKind.INT or tok.kind is TokenKind.CHAR:
            self._advance()
            return -tok.value if negate else tok.value
        self._error("expected integer constant")

    def _function_def(self) -> FunctionDef:
        start = self._current()
        ret_type = self._type_name()
        name = self._expect(TokenKind.IDENT).value
        params = self._params()
        return FunctionDef(name=name, ret_type=ret_type, params=params, body=self._block(),
                           span=(start.line, start.col))

    # -- statements ------------------------------------------------------

    def _statement(self) -> list[Stmt]:
        """One statement, as the statements it lowers to: a `for` is its init
        and a While, and a bare block its statements, since braces open no
        scope."""
        tok, nxt = self._current(), self._peek()
        self._enter()
        if tok.kind is TokenKind.KEYWORD and tok.value == "for":
            stmts = self._for_stmt()
        elif tok.kind is TokenKind.KEYWORD:
            rule = self._KEYWORD_RULES.get(tok.value)
            if rule is None:
                self._error(f"unexpected keyword {tok.value!r}")
            stmts = [rule(self)]
        elif tok.kind is TokenKind.OP and tok.value == "{":
            stmts = self._block()
        elif tok.kind is TokenKind.IDENT and nxt.kind is TokenKind.IDENT:
            stmts = [self._input_decl()]
        elif tok.kind is TokenKind.IDENT and nxt.kind is TokenKind.OP and nxt.value in ("+=", "-="):
            stmts = [self._array_extend()]
        else:
            stmts = [self._expr_or_assign()]
        self.nesting -= 1
        return stmts

    def _break(self) -> Break:
        tok = self._advance()
        self._expect_op(";")
        return Break(span=(tok.line, tok.col))

    def _return(self) -> Return:
        tok = self._advance()
        value = None if self._at_op(";") else self._expression()
        self._expect_op(";")
        return Return(value=value, span=(tok.line, tok.col))

    def _declarator(self):
        """name, then optional [expr] / [] array suffix."""
        name = self._expect(TokenKind.IDENT).value
        array_len = None
        if self._at_op("["):
            self._advance()
            array_len = DYNAMIC_ARRAY if self._at_op("]") else self._expression()
            self._expect_op("]")
        return name, array_len

    def _local_decl(self) -> LocalDecl:
        start = self._expect(TokenKind.KEYWORD, "local")
        type_name = self._type_name()
        name, array_len = self._declarator()
        init = None
        if self._at_op("="):
            self._advance()
            init = self._items("{", "}", self._expression) if self._at_op("{") \
                else self._expression()
        self._expect_op(";")
        return LocalDecl(type_name=type_name, name=name, array_len=array_len,
                         init=init, span=(start.line, start.col))

    def _input_decl(self) -> InputDecl:
        start = self._current()
        type_name = self._type_name()
        name, array_len = self._declarator()
        args = self._items("(", ")", self._expression) if self._at_op("(") else []
        init_list = None
        if self._at_op("="):
            self._advance()
            if not self._at_op("{"):
                self._error("input declarations take brace-enclosed init lists")
            init_list = self._items("{", "}", self._expression)
        attrs = dict(self._items("<", ">", self._attribute)) if self._at_op("<") else {}
        self._expect_op(";")
        return InputDecl(type_name=type_name, name=name, array_len=array_len,
                         args=args, init_list=init_list, attrs=attrs,
                         span=(start.line, start.col))

    def _attribute(self) -> tuple[str, Expr]:
        key_tok = self._expect(TokenKind.IDENT)
        key = key_tok.value
        self._expect_op("=")
        # stay above comparison precedence so the closing '>' of the
        # attribute block is never taken as an operator
        value = self._binary(_BINARY_BP["<<"])
        if key not in ("min", "max"):
            self.warnings.append(f"{self.source_name}:{key_tok.line}:{key_tok.col}: warning: "
                                 f"unknown attribute {key!r} ignored")
        return key, value

    def _array_extend(self) -> ArrayExtend:
        start = self._current()
        name = self._expect(TokenKind.IDENT).value
        op = self._advance().value
        # Right side is either one expression or a parenthesized list.  A
        # parenthesized single expression is indistinguishable; treating it
        # as a one-element list gives the same meaning.
        values = self._items("(", ")", self._expression) if self._at_op("(") \
            else [self._expression()]
        self._expect_op(";")
        return ArrayExtend(op=op, name=name, values=values, span=(start.line, start.col))

    def _body_or_single(self) -> list[Stmt]:
        return self._block() if self._at_op("{") else self._statement()

    def _condition(self) -> Expr:
        """`( expression )` after if, while or switch."""
        self._advance()
        self._expect_op("(")
        cond = self._expression()
        self._expect_op(")")
        return cond

    def _if_stmt(self) -> If:
        # an else-if chain is one If: the compiler emits its arms flat, so
        # they open no nesting level, only the tree's height
        start, arms, opened = self._current(), [], self.arms
        while True:
            if self.arms + self.nesting > MAX_HEIGHT:
                self._error(f"else-if chain nested deeper than {MAX_HEIGHT}")
            arms.append(SwitchCase(self._condition(), self._body_or_single()))
            self.arms += 1
            if not self._at_kw("else"):
                break
            self._advance()
            if not self._at_kw("if"):
                arms.append(SwitchCase(None, self._body_or_single()))
                break
        self.arms = opened
        return If(arms=arms, span=(start.line, start.col))

    def _while_stmt(self) -> While:
        start = self._current()
        cond = self._condition()
        body = self._body_or_single()
        return While(cond=cond, body=body, span=(start.line, start.col))

    def _simple_stmt(self) -> Stmt:
        """Statement without trailing semicolon, for for-headers."""
        if self._at_kw("local"):
            # a for-header's init and step are assignments or expressions
            self._error("local declarations are not allowed in for-headers")
        return self._expr_or_assign(eat_semi=False)

    def _for_stmt(self) -> list[Stmt]:
        """`for (init; cond; step) body` as init, then while (cond) { body
        step }: the same loop, since the language has no `continue`."""
        start = self._expect(TokenKind.KEYWORD, "for")
        self._expect_op("(")
        init = [] if self._at_op(";") else [self._simple_stmt()]
        self._expect_op(";")
        cond = None if self._at_op(";") else self._expression()
        self._expect_op(";")
        step = [] if self._at_op(")") else [self._simple_stmt()]
        self._expect_op(")")
        body = self._body_or_single() + step
        return [*init, While(cond=cond, body=body, span=(start.line, start.col))]

    def _switch_stmt(self) -> Switch:
        start = self._current()
        scrutinee = self._condition()
        self._expect_op("{")
        cases: list[SwitchCase] = []
        while not self._at_op("}"):
            if self._at_kw("case"):
                self._advance()
                match = self._expression()
            elif self._at_kw("default"):
                self._advance()
                match = None
            else:
                self._error("expected 'case' or 'default'")
            self._expect_op(":")
            body: list[Stmt] = []
            while not (self._at_kw("case") or self._at_kw("default") or self._at_op("}")):
                body += self._statement()
            cases.append(SwitchCase(match=match, body=body))
        self._expect_op("}")
        return Switch(scrutinee=scrutinee, cases=cases, span=(start.line, start.col))

    def _expr_or_assign(self, eat_semi: bool = True) -> Stmt:
        start = self._current()
        span = (start.line, start.col)
        expr, value = self._expression(), None
        if self._at_op("="):
            if not isinstance(expr, (Ident, Member, Index)):
                self._error("assignment target must be a variable, field, or element")
            self._advance()
            value = self._expression()
        if eat_semi:
            self._expect_op(";")
        return ExprStmt(expr=expr, span=span) if value is None \
            else Assign(target=expr, value=value, span=span)

    _KEYWORD_RULES = {"local": _local_decl, "if": _if_stmt, "while": _while_stmt,
                      "switch": _switch_stmt, "break": _break, "return": _return}

    # -- expressions -----------------------------------------------------

    def _enter(self):
        """One more level open: a statement, an expression or an operand."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self._error(f"statements and expressions nested deeper than {MAX_NESTING}")

    def _grown(self, tok: Token, node: Expr, a: int, b: int = 0) -> Expr:
        """node, built at tok over operands as tall as a and b."""
        self.height = height = (a if a > b else b) + 1
        if height + self.nesting + self.arms > MAX_HEIGHT:
            self._error(f"expression nested deeper than {MAX_HEIGHT}", tok)
        return node

    def _expression(self) -> Expr:
        self._enter()
        expr = self._ternary()
        self.nesting -= 1
        return expr

    def _ternary(self) -> Expr:
        arms = []  # a ? b : c ? d : e holds (?, a, b) and (?, c, d) over e
        expr = self._binary(0)
        while self._at_op("?"):
            tok, height = self._advance(), self.height
            then = self._expression()
            arms.append((tok, expr, then, max(height, self.height)))
            self._expect_op(":")
            expr = self._binary(0)
        for tok, cond, then, height in reversed(arms):
            expr = self._grown(tok, Ternary(cond, then, expr), height, self.height)
        return expr

    def _binary(self, min_bp: int) -> Expr:
        left = self._unary()
        while True:
            tok = self._current()
            if tok.kind is not TokenKind.OP:
                return left
            bp = _BINARY_BP.get(tok.value)
            if bp is None or bp < min_bp:
                return left
            self._advance()
            height = self.height
            self._enter()
            right = self._binary(bp + 1)
            self.nesting -= 1
            left = self._grown(tok, Binary(tok.value, left, right), height, self.height)

    def _unary(self) -> Expr:
        ops = []
        while (tok := self._current()).kind is TokenKind.OP and tok.value in _PREFIX_OPS:
            ops.append(self._advance())
        expr = self._postfix()
        for tok in reversed(ops):
            # prefix ++x is treated like the postfix form; templates only
            # ever use the value-independent statement position
            node = Unary(tok.value, expr) if tok.value in _UNARY_OPS else Postfix(tok.value, expr)
            expr = self._grown(tok, node, self.height)
        return expr

    def _postfix(self) -> Expr:
        expr = self._primary()
        while True:
            tok, height = self._current(), self.height
            if tok.kind is not TokenKind.OP:
                return expr
            if tok.value == "(":
                if not isinstance(expr, Ident):
                    self._error("only named functions can be called")
                expr = self._grown(tok, Call(expr.name, self._items("(", ")", self._expression)),
                                   self.height)
            elif tok.value == "[":
                self._advance()
                expr = self._grown(tok, Index(expr, self._expression()), height, self.height)
                self._expect_op("]")
            elif tok.value == ".":
                self._advance()
                expr = self._grown(tok, Member(expr, self._expect(TokenKind.IDENT).value), height)
            elif tok.value in ("++", "--"):
                self._advance()
                expr = self._grown(tok, Postfix(tok.value, expr), height)
            else:
                return expr

    def _primary(self) -> Expr:
        tok = self._current()
        self.height = 1
        leaf = _LEAVES.get(tok.kind)
        if leaf is not None:
            self._advance()
            return leaf(tok.value)
        if tok.kind is TokenKind.KEYWORD and tok.value in ("true", "false"):
            self._advance()
            return IntLit(1 if tok.value == "true" else 0)
        if self._at_op("("):
            self._advance()
            expr = self._expression()
            self._expect_op(")")
            return expr
        self._error(f"unexpected token {tok.value!r}")


def parse_source(source: str, source_name: str = "<template>") -> TemplateUnit:
    """Parse template text into an unresolved TemplateUnit."""
    return Parser(source, source_name).parse_unit()
