"""Binary template language: lexer, parser, static analysis.

The language is a C-like declarative dialect for describing binary file
formats.  Input declarations describe bytes of the file; local variables,
control flow, and builtin calls describe how those bytes relate.
"""

from __future__ import annotations

from .analysis import (
    BUILTINS,
    NATIVE_INTS,
    NATIVE_TYPES,
    bound_names,
    mine_magic,
    resolve,
)
from .lexer import Token, TokenKind, tokenize
from .nodes import (
    DYNAMIC_ARRAY,
    ArrayExtend,
    Assign,
    Binary,
    BlockStmt,
    Break,
    Call,
    Declaration,
    EnumMember,
    Expr,
    ExprStmt,
    FloatLit,
    For,
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
from .parser import parse_source


def parse_template(source: str, source_name: str = "<template>") -> TemplateUnit:
    """Parse, resolve, and mine a template; the one-stop entry point.

    Returns a fully resolved TemplateUnit with declarations numbered and
    unit.magic populated.  Raises TemplateSyntaxError, ResolveError, or
    ArityError on bad input; non-fatal findings land in unit.warnings.
    """
    unit = parse_source(source, source_name)
    resolve(unit)
    mine_magic(unit)
    return unit


__all__ = [
    "parse_template",
    "parse_source",
    "resolve",
    "mine_magic",
    "bound_names",
    "tokenize",
    "Token",
    "TokenKind",
    "TemplateUnit",
    "Declaration",
    "BUILTINS",
    "NATIVE_TYPES",
    "NATIVE_INTS",
    "DYNAMIC_ARRAY",
]
