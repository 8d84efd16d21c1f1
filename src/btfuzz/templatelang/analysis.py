"""Static checks over a parsed template: name resolution, declaration
catalog, and magic-value mining."""

from __future__ import annotations

from ..errors import ArityError, ResolveError
from .nodes import (
    ArrayExtend,
    Assign,
    Binary,
    BlockStmt,
    Call,
    Declaration,
    Expr,
    ExprStmt,
    For,
    Ident,
    If,
    Index,
    InputDecl,
    IntLit,
    LocalDecl,
    Member,
    Postfix,
    Return,
    StrLit,
    Stmt,
    Switch,
    TemplateUnit,
    Ternary,
    TypeDef,
    Unary,
    While,
)

# Native integer types: name -> (byte width, signed).
NATIVE_INTS: dict[str, tuple[int, bool]] = {
    "byte": (1, True),
    "char": (1, True),
    "ubyte": (1, False),
    "uchar": (1, False),
    "int16": (2, True),
    "uint16": (2, False),
    "int32": (4, True),
    "int": (4, True),
    "uint32": (4, False),
    "uint": (4, False),
    "int64": (8, True),
    "uint64": (8, False),
}

# `string` is native but only meaningful for local variables.
NATIVE_TYPES = set(NATIVE_INTS) | {"string"}

# Builtin name -> (min arity, max arity).  None means unbounded.
BUILTINS: dict[str, tuple[int, int | None]] = {
    "FTell": (0, 0),
    "FSeek": (1, 1),
    "FEof": (0, 0),
    "FileSize": (0, 0),
    "ReadByte": (2, 2),
    "ReadBytes": (6, 6),
    "Checksum": (3, 3),
    "SetEvilBit": (1, 1),
    "ChangeArrayLength": (0, 0),
    "Warning": (1, None),
    "Printf": (1, None),
    "BigEndian": (0, 0),
    "LittleEndian": (0, 0),
    "CodecStream": (3, 3),
}


def _walk_stmts(stmts: list[Stmt]):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from _walk_stmts(stmt.then)
            yield from _walk_stmts(stmt.other)
        elif isinstance(stmt, While):
            yield from _walk_stmts(stmt.body)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                yield from _walk_stmts([stmt.init])
            if stmt.step is not None:
                yield from _walk_stmts([stmt.step])
            yield from _walk_stmts(stmt.body)
        elif isinstance(stmt, Switch):
            for case in stmt.cases:
                yield from _walk_stmts(case.body)
        elif isinstance(stmt, BlockStmt):
            yield from _walk_stmts(stmt.body)


def _iter_exprs(stmt: Stmt):
    """All expression roots directly attached to one statement."""
    if isinstance(stmt, InputDecl):
        if isinstance(stmt.array_len, Expr):
            yield stmt.array_len
        yield from stmt.args
        if stmt.init_list:
            yield from stmt.init_list
        yield from stmt.attrs.values()
    elif isinstance(stmt, LocalDecl):
        if isinstance(stmt.array_len, Expr):
            yield stmt.array_len
        if isinstance(stmt.init, list):
            yield from stmt.init
        elif stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ArrayExtend):
        yield from stmt.values
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
    elif isinstance(stmt, For):
        if stmt.cond is not None:
            yield stmt.cond
    elif isinstance(stmt, Switch):
        yield stmt.scrutinee
        for case in stmt.cases:
            if case.match is not None:
                yield case.match
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, ExprStmt):
        yield stmt.expr


def _walk_exprs(expr: Expr):
    yield expr
    if isinstance(expr, Unary):
        yield from _walk_exprs(expr.operand)
    elif isinstance(expr, Binary):
        yield from _walk_exprs(expr.left)
        yield from _walk_exprs(expr.right)
    elif isinstance(expr, Ternary):
        yield from _walk_exprs(expr.cond)
        yield from _walk_exprs(expr.then)
        yield from _walk_exprs(expr.other)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from _walk_exprs(arg)
    elif isinstance(expr, Member):
        yield from _walk_exprs(expr.obj)
    elif isinstance(expr, Index):
        yield from _walk_exprs(expr.base)
        yield from _walk_exprs(expr.index)
    elif isinstance(expr, Postfix):
        yield from _walk_exprs(expr.target)


def _all_statement_lists(unit: TemplateUnit):
    yield unit.toplevel
    for td in unit.typedefs.values():
        if td.kind == "record":
            yield td.body
    for fn in unit.functions.values():
        yield fn.body


def _all_stmts(unit: TemplateUnit):
    for stmts in _all_statement_lists(unit):
        yield from _walk_stmts(stmts)


def _all_exprs(unit: TemplateUnit):
    for stmt in _all_stmts(unit):
        for root in _iter_exprs(stmt):
            yield from _walk_exprs(root)


def resolve(unit: TemplateUnit) -> None:
    """Check type references, call targets, and arities.

    Raises ResolveError or ArityError.  Also numbers every input
    declaration and fills unit.declarations.
    """
    for name in unit.typedefs:
        if name in NATIVE_TYPES:
            raise ResolveError(f"type {name!r} shadows a native type")
        if name in unit.functions:
            raise ResolveError(f"{name!r} defined as both type and function")

    def check_type(name: str, span) -> tuple[TypeDef | None, str | None]:
        """Chase aliases from `name`.  Returns the record or enum TypeDef
        reached (None for a native type) and the native type the value is
        stored as (None for a record, or for an enum not over a native)."""
        seen = set()
        tdef = None
        while name not in NATIVE_TYPES:
            td = unit.typedefs.get(name)
            if td is None:
                raise ResolveError(f"unknown type {name!r}", *span)
            if td.kind == "record":
                return tdef or td, None
            if td.kind == "enum":
                if tdef is not None:
                    return tdef, None  # an enum over an enum
                tdef, seen = td, set()  # chase the enum's storage type
            elif name in seen:
                raise ResolveError(f"alias cycle through {name!r}", *span)
            seen.add(name)
            name = td.underlying
        return tdef, name

    for td in unit.typedefs.values():
        if td.kind == "enum":
            check_type(td.underlying, td.span)
        elif td.kind == "alias":
            check_type(td.underlying, td.span)
        for pname, ptype in td.params:
            check_type(ptype, td.span)
    for fn in unit.functions.values():
        for pname, ptype in fn.params:
            check_type(ptype, fn.span)
        if fn.ret_type != "void":
            check_type(fn.ret_type, fn.span)

    decl_id = 0
    unit.declarations.clear()
    for stmt in _all_stmts(unit):
        if isinstance(stmt, InputDecl):
            stmt.resolved = check_type(stmt.type_name, stmt.span)
            td = stmt.resolved[0]
            if td is not None and td.kind == "record":
                want = len(td.params)
                if len(stmt.args) != want:
                    raise ArityError(
                        f"record {stmt.type_name!r} takes {want} argument(s), got {len(stmt.args)}",
                        *stmt.span)
            elif stmt.args:
                raise ArityError(
                    f"type {stmt.type_name!r} takes no arguments", *stmt.span)
            stmt.decl_id = decl_id
            unit.declarations.append(
                Declaration(decl_id, stmt.name, stmt.type_name, stmt.span))
            decl_id += 1
        elif isinstance(stmt, LocalDecl):
            check_type(stmt.type_name, stmt.span)

    for expr in _all_exprs(unit):
        if isinstance(expr, Call):
            if expr.name in BUILTINS:
                lo, hi = BUILTINS[expr.name]
                if len(expr.args) < lo or (hi is not None and len(expr.args) > hi):
                    raise ArityError(f"{expr.name} takes {lo} argument(s), got {len(expr.args)}")
            elif expr.name in unit.functions:
                want = len(unit.functions[expr.name].params)
                if len(expr.args) != want:
                    raise ArityError(f"{expr.name} takes {want} argument(s), got {len(expr.args)}")
            else:
                raise ResolveError(f"unknown function {expr.name!r}")


def bound_names(unit: TemplateUnit) -> set[str]:
    """Every name the template can bind or change: declared names, record
    and function parameters, assignment, ++/-- and ReadBytes targets, and
    local arrays edited with += or -=."""
    names = {p for td in unit.typedefs.values() for p, _ in td.params}
    names.update(p for fn in unit.functions.values() for p, _ in fn.params)
    for stmt in _all_stmts(unit):
        if isinstance(stmt, (InputDecl, LocalDecl, ArrayExtend)):
            names.add(stmt.name)
        elif isinstance(stmt, Assign) and isinstance(stmt.target, Ident):
            names.add(stmt.target.name)
    for expr in _all_exprs(unit):
        target = None
        if isinstance(expr, Postfix):
            target = expr.target
        elif isinstance(expr, Call) and expr.name == "ReadBytes" and expr.args:
            target = expr.args[0]
        if isinstance(target, Ident):
            names.add(target.name)
    return names


def _path_key(expr: Expr) -> tuple[str, int | None] | None:
    """Field path of a comparison operand: innermost name plus optional
    constant element index.  `sig.btPngSignature[0]` keys as
    ("btPngSignature", 0)."""
    if isinstance(expr, Index):
        if not isinstance(expr.index, IntLit):
            return None
        base = expr.base
        if isinstance(base, Ident):
            return (base.name, expr.index.value)
        if isinstance(base, Member):
            return (base.name, expr.index.value)
        return None
    if isinstance(expr, Ident):
        return (expr.name, None)
    if isinstance(expr, Member):
        return (expr.name, None)
    return None


def mine_magic(unit: TemplateUnit) -> dict[tuple[str, int | None], list[object]]:
    """Collect literal values compared against input fields.

    Every `path == literal` or `path != literal` anywhere in the template
    contributes the literal as a candidate value for the field named by the
    innermost path component.  Operand order does not matter.  The result is
    stored on unit.magic and returned; mining twice gives the same table.
    """
    table: dict[tuple[str, int | None], list[object]] = {}
    for expr in _all_exprs(unit):
        if not isinstance(expr, Binary) or expr.op not in ("==", "!="):
            continue
        for path_side, lit_side in ((expr.left, expr.right), (expr.right, expr.left)):
            value: object
            if isinstance(lit_side, IntLit):
                value = lit_side.value
            elif isinstance(lit_side, StrLit):
                value = lit_side.value
            else:
                continue
            key = _path_key(path_side)
            if key is None:
                continue
            bucket = table.setdefault(key, [])
            if value not in bucket:
                bucket.append(value)
    unit.magic.clear()
    unit.magic.update(table)
    return table
