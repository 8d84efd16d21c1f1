"""AST node definitions for the binary template language.

Spans are (line, col) pairs pointing at the first token of the construct.
They are excluded from equality: two nodes are equal when their structure
is, wherever in the source they came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field


Span = tuple[int, int]

# Sentinel for `name[]` declarations (dynamic, init-list sized).
DYNAMIC_ARRAY = object()


# --- expressions ----------------------------------------------------------


@dataclass
class Expr:
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class StrLit(Expr):
    value: bytes


@dataclass
class Ident(Expr):
    name: str


@dataclass
class Member(Expr):
    obj: Expr
    name: str


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Call(Expr):
    name: str
    args: list[Expr]


@dataclass
class Unary(Expr):
    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass
class Postfix(Expr):
    """Postfix ++ / -- on a local variable."""

    op: str
    target: Expr


# --- statements -----------------------------------------------------------


@dataclass
class Stmt:
    span: Span = field(compare=False, default=(0, 0), kw_only=True)


@dataclass
class InputDecl(Stmt):
    """Declaration that materializes bytes in the output or input file."""

    type_name: str
    name: str
    array_len: object = None  # None | DYNAMIC_ARRAY | Expr
    args: list[Expr] = field(default_factory=list)
    init_list: list[Expr] | None = None
    attrs: dict[str, Expr] = field(default_factory=dict)
    decl_id: int = field(compare=False, default=-1)
    # (record or enum TypeDef or None, native type name), set by resolve
    resolved: tuple[TypeDef | None, str | None] = field(
        compare=False, repr=False, default=(None, None))


@dataclass
class LocalDecl(Stmt):
    type_name: str
    name: str
    array_len: object = None  # None | DYNAMIC_ARRAY | Expr
    init: object = None  # None | Expr | list[Expr]


@dataclass
class Assign(Stmt):
    target: Expr
    value: Expr


@dataclass
class ArrayExtend(Stmt):
    """`name += values;` / `name -= values;` on a local array."""

    op: str  # "+=" or "-="
    name: str
    values: list[Expr] = field(default_factory=list)


@dataclass
class SwitchCase:
    match: Expr | None  # None = default, or an if chain's else
    body: list[Stmt]


@dataclass
class If(Stmt):
    """An if / else-if / else chain: the body of the first arm whose
    condition holds, or of the else arm last."""

    arms: list[SwitchCase] = field(default_factory=list)


@dataclass
class While(Stmt):
    """Also a `for`, which the parser lowers to its init and a While whose
    body ends in the step."""

    cond: Expr | None = None  # None = for (;;)
    body: list[Stmt] = field(default_factory=list)


@dataclass
class Switch(Stmt):
    scrutinee: Expr = None
    cases: list[SwitchCase] = field(default_factory=list)


@dataclass
class Break(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


# --- top-level definitions -------------------------------------------------


@dataclass
class EnumMember:
    name: str
    value: int


@dataclass
class TypeDef:
    """Record, enum, or alias definition.

    kind is one of "record", "enum", "alias".  For records, body holds the
    member statements and params the (name, type) parameter list.  For enums,
    members holds the value list and underlying the storage type name.  For
    aliases, underlying names the aliased type.
    """

    name: str
    kind: str
    params: list[tuple[str, str]] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    members: list[EnumMember] = field(default_factory=list)
    underlying: str = ""
    span: Span = field(compare=False, default=(0, 0))


@dataclass
class FunctionDef:
    name: str
    ret_type: str
    params: list[tuple[str, str]] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    span: Span = field(compare=False, default=(0, 0))


@dataclass
class TemplateUnit:
    """A parsed template: immutable once parse_template returns it."""

    typedefs: dict[str, TypeDef] = field(default_factory=dict)
    functions: dict[str, FunctionDef] = field(default_factory=dict)
    toplevel: list[Stmt] = field(default_factory=list)
    magic: dict[tuple[str, int | None], list[object]] = field(default_factory=dict, compare=False)
    declarations: list[InputDecl] = field(default_factory=list, compare=False)
    warnings: list[str] = field(default_factory=list, compare=False)
    source_name: str = field(default="<template>", compare=False)
    # the engine's compiled programs by (gen, tree), each built on its first
    # run; closures do not pickle, so a pickled unit leaves them behind
    programs: dict = field(default_factory=dict, compare=False, repr=False)
    # the globals and scoping() that the programs share; a pickled unit
    # leaves them behind too, since the scoping holds ids of this unit's nodes
    analysis: tuple | None = field(default=None, compare=False, repr=False)

    def __getstate__(self):
        return dict(self.__dict__, programs={}, analysis=None)
