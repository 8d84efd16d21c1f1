"""Static checks over a parsed template: name resolution, declaration
numbering, and magic-value mining."""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import ArityError, ImpureExpression, ResolveError
from .nodes import (
    ArrayExtend,
    Assign,
    Binary,
    Call,
    Expr,
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


# The builtins whose call changes more than its value: the file buffer, the
# decision stream, the run's settings or its log.  A body that calls one has
# _EFFECT among its escapes, where no name can cover it.
_EFFECTS = frozenset(BUILTINS) - {"FTell", "FileSize", "Checksum"}
_EFFECT = "()"


def _fields_holding(holds) -> dict[type, tuple[str, ...]]:
    """Node class -> its compared fields, last first, whose annotation (a
    string: nodes.py postpones them) passes holds."""
    return {cls: tuple(f.name for f in reversed(fields(cls)) if f.compare and holds(f.type))
            for cls in (*Expr.__subclasses__(), *Stmt.__subclasses__(), SwitchCase)}


# A case (of a switch, or an if chain's arm) holds both statements and
# expressions: its match is walked where the case is met among the
# statements.  A scalar holds neither.
_SCALARS = ("str", "int", "float", "bytes")
_STMT_FIELDS = _fields_holding(lambda t: "Stmt" in t or "SwitchCase" in t)
_EXPR_FIELDS = _fields_holding(lambda t: not ("Stmt" in t or "SwitchCase" in t
                                              or t in _SCALARS))
_NODES = (Expr, Stmt, SwitchCase)


def _walk(roots: list, into: dict[type, tuple[str, ...]]):
    """The roots and the nodes below them, depth first, each node's fields
    in field order, entering only the fields `into` gives."""
    stack = roots[::-1]
    while stack:
        node = stack.pop()
        yield node
        for name in into[type(node)]:
            value = getattr(node, name)
            if type(value) is list:
                stack += value[::-1]
            elif type(value) is dict:
                stack += reversed(value.values())
            elif isinstance(value, _NODES):
                stack.append(value)


def _all_stmts(unit: TemplateUnit):
    """Every statement (and switch case): the top level's, then each
    record's, then each function's, each before the ones nested in it."""
    roots = [*unit.toplevel, *(s for t in unit.typedefs.values() for s in t.body),
             *(s for f in unit.functions.values() for s in f.body)]
    return _walk(roots, _STMT_FIELDS)


def _all_exprs(unit: TemplateUnit):
    """Every expression, each statement's and case's in turn (mixed with the
    statements and cases that hold them)."""
    for stmt in _all_stmts(unit):
        yield from _walk([stmt], _EXPR_FIELDS)


def resolve(unit: TemplateUnit) -> None:
    """Check type references, call targets, and arities.

    Raises ResolveError or ArityError.  Also numbers every input
    declaration and lists them in unit.declarations.
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
        if td.kind != "record":
            check_type(td.underlying, td.span)
        for pname, ptype in td.params:
            check_type(ptype, td.span)
    for fn in unit.functions.values():
        for pname, ptype in fn.params:
            check_type(ptype, fn.span)
        if fn.ret_type != "void":
            check_type(fn.ret_type, fn.span)

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
            stmt.decl_id = len(unit.declarations)
            unit.declarations.append(stmt)
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


# Builtins whose int wrap64 may change: a FileBuffer takes any budget.
_UNBOUNDED = ("FTell", "FileSize", "CodecStream")


@dataclass
class Scoping:
    """Which declared names each body may keep in a Python local, and the
    static type of each that every store gives one: see scoping().  A body
    is the top level (None), or a record's or function's, by name."""

    kept: dict[str | None, list[str]]  # in declaration order
    types: dict[str | None, dict[str, object]]
    fresh: set[int]  # ids of scalar input declarations that no earlier one can precede
    constants: dict[str, object]  # globals that nothing binds

    def typed(self, expr, body):
        """What expr in body always is: 2 (an int that wrap64 keeps), 1 (an
        int), bytes, or 0 (not known).  A kept name's value at each of its
        uses is what one of the body's own stores gave it."""
        if isinstance(expr, Binary) or isinstance(expr, Unary) and expr.op != "+":
            return 2
        if isinstance(expr, Call) and expr.name in BUILTINS:  # each gives an int
            return 1 if expr.name in _UNBOUNDED else 2
        if isinstance(expr, Ident) and (t := self.types[body].get(expr.name)) is not None:
            return t
        value = self.constants.get(expr.name) if isinstance(expr, Ident) else \
            expr.value if isinstance(expr, (IntLit, StrLit)) else None
        return (2 if -1 << 63 <= value < 1 << 63 else 1) if type(value) is int else \
            bytes if type(value) is bytes else 0

    def _infer(self, body, stores) -> dict:
        types = {}
        for name, store in stores:  # a stored int wraps to 64 bits
            if isinstance(store, Expr):
                store = 2 if (t := self.typed(store, body)) == 1 else t
            old = types.setdefault(name, store)
            types[name] = store if old == store else 1 if {old, store} <= {1, 2} else 0
        return types


class _Uses:
    """One walk over a body, in text order.  A use of a name is covered
    where an earlier statement of its block, or of a block around it,
    declares the name, or where the body takes it as a parameter; an
    uncovered use reads the enclosing frames.  A call uses, where it is,
    what its callee uses outside its own frame, and stores there what its
    callee stores there (escapes).  writes counts the stores and the
    builtin effects so far."""

    def __init__(self, params, free: dict, shared: set[str] | None):
        self.free = free  # per record or function: its (outside, escapes)
        self.declared = dict.fromkeys(params)
        self.stores = [(p, 0) for p in params]
        self.outside, self.reached, self.seen, self.loops = set(), set(), set(), 0
        self.escapes, self.writes = set(), 0
        # None in a function body, whose fields go to its caller's record;
        # else the names a function may declare in it first
        self.shared, self.fresh = shared, set()

    def use(self, name: str, covered: set[str]):
        if name not in covered:
            self.outside.add(name)

    def call(self, callee: str, covered: set[str]):
        outside, escapes = self.free[callee]
        self.reached |= outside
        self.outside |= outside - covered
        self.escapes |= escapes - covered
        self.writes += bool(escapes)

    def store(self, target, kind, covered: set[str]):
        """A store to target (a name, or an element or field of one)."""
        self.writes += 1
        while isinstance(target, (Index, Member)):
            target = target.base if isinstance(target, Index) else target.obj
        if isinstance(target, Ident):
            if target.name not in covered:
                self.escapes.add(target.name)
            if kind is not None:
                self.stores.append((target.name, kind))

    def expr(self, e, covered: set[str]):
        if isinstance(e, Ident):
            return self.use(e.name, covered)
        if isinstance(e, Call) and e.name == "CodecStream":  # args[0] only names the stream
            self.expr(e.args[1], covered)
            writes = self.writes
            self.expr(e.args[2], covered)
            if self.writes != writes:
                raise ImpureExpression("a codec stream's length changes what the run holds, "
                                       "but only a parse computes it")
            return
        if isinstance(e, Call) and e.name == "ReadBytes" and isinstance(e.args[0], Ident):
            self.store(e.args[0], bytes, covered)  # the token, if one is reserved
        elif isinstance(e, Call) and e.name not in BUILTINS:
            self.call(e.name, covered)
        elif isinstance(e, Postfix):
            self.store(e.target, 2 if isinstance(e.target, Ident) else None, covered)
        if isinstance(e, Call) and e.name in _EFFECTS:
            self.writes += 1
            self.escapes.add(_EFFECT)
        for name in _EXPR_FIELDS[type(e)]:
            value = getattr(e, name)
            for sub in value if type(value) is list else [value]:
                self.expr(sub, covered)

    def block(self, stmts, covered):
        covered = set(covered)  # what the block declares ends with it
        for stmt in stmts:
            self.stmt(stmt, covered)

    def stmt(self, s, covered: set[str]):
        if isinstance(s, If):
            for arm in s.arms:
                if arm.match is not None:
                    self.expr(arm.match, covered)
                self.block(arm.body, covered)
        elif isinstance(s, While):
            if s.cond is not None:
                self.expr(s.cond, covered)
            self.loops += 1
            self.block(s.body, covered)
            self.loops -= 1
        elif isinstance(s, Switch):
            for e in (s.scrutinee, *(c.match for c in s.cases if c.match is not None)):
                self.expr(e, covered)
            for case in s.cases:  # each a block: entered at its match or from the one before
                self.block(case.body, covered)
        elif isinstance(s, Return):
            if s.value is not None:
                self.expr(s.value, covered)
        elif isinstance(s, (LocalDecl, InputDecl)):
            self.declare(s, covered)
        else:  # an assignment, += or -=, or expression
            if isinstance(s, ArrayExtend):
                self.use(s.name, covered)
            for name in _EXPR_FIELDS[type(s)]:
                value = getattr(s, name)
                for e in value if type(value) is list else [value]:
                    self.expr(e, covered)
            if isinstance(s, Assign):
                self.store(s.target, s.value if isinstance(s.target, Ident) else None, covered)

    def declare(self, s, covered: set[str]):
        """A declaration: its expressions run before it binds."""
        length = [s.array_len] if isinstance(s.array_len, Expr) else []
        if isinstance(s, LocalDecl):
            init = s.init if isinstance(s.init, list) else [s.init] if s.init is not None else []
            for e in length + init:
                self.expr(e, covered)
            store = 0 if s.array_len is not None or isinstance(s.init, list) else (
                (bytes if s.type_name == "string" else 2) if s.init is None else s.init)
        else:
            for e in length + s.args:
                self.expr(e, covered)
            for e in [*(s.init_list or ()), *s.attrs.values()]:
                self.expr(e, covered)
            tdef, native = s.resolved
            if tdef is not None and tdef.kind == "record":
                self.call(tdef.name, covered)
            store = 0 if native not in NATIVE_INTS else (bytes if native == "char" else 0) \
                if s.array_len is not None else 1 if NATIVE_INTS[native] == (8, False) else 2
            if self.shared is not None and s.name not in self.seen | self.shared \
                    and not self.loops:
                self.fresh.add(id(s))
            self.seen.add(s.name)
        self.declared.setdefault(s.name)
        self.stores.append((s.name, store))
        covered.add(s.name)


def scoping(unit: TemplateUnit, globals_: dict[str, object]) -> Scoping:
    """The names each body may keep in a Python local, where nothing can
    reach them through dynamic scope: C's block scope, over frames.  Body
    B keeps a name x it declares (a local, a field or a parameter) if:
    - every use of x in B is covered: an earlier statement declares x in
      the use's block or in a block around it, or x is B's parameter;
    - no record or function that B calls, directly or not, uses x outside
      its own frame (an uncovered use there).
    The compiler also gives back any name that code it runs apart from B
    names, and any name that a closure stores.  A store is a declaration's
    static type (as typed() gives) or the expression it stores.  fresh: a
    scalar input declaration that comes first among its name's in a record
    body or the top level, in text order and in no loop, where no function
    declares an input of that name; it cannot find its name in its fresh
    RecordVal."""
    shared = {s.name for f in unit.functions.values() for s in _walk(f.body, _STMT_FIELDS)
              if isinstance(s, InputDecl)}
    bodies = {None: ((), unit.toplevel, shared)}
    bodies.update((t.name, ([p for p, _ in t.params], t.body, shared))
                  for t in unit.typedefs.values() if t.kind == "record")
    bodies.update((n, ([p for p, _ in f.params], f.body, None)) for n, f in unit.functions.items())
    free = dict.fromkeys(bodies, (frozenset(), frozenset()))
    while True:  # each pass can only add to what a body uses and stores outside its frame
        walks = {key: _Uses(params, free, names) for key, (params, _, names) in bodies.items()}
        for key, walk in walks.items():
            walk.block(bodies[key][1], bodies[key][0])
        if (now := {key: (frozenset(w.outside), frozenset(w.escapes))
                    for key, w in walks.items()}) == free:
            break
        free = now
    kept = {key: [n for n in w.declared if n not in w.outside and n not in w.reached]
            for key, w in walks.items()}
    bound = bound_names(unit)  # a global that nothing binds reads alike everywhere
    scope = Scoping(kept, {key: {} for key in walks},
                    set().union(*(w.fresh for w in walks.values())),
                    {k: v for k, v in globals_.items() if k not in bound})
    for key, w in walks.items():  # each pass only gains types
        stores = [(n, store) for n, store in w.stores if n in kept[key]]
        while (types := scope._infer(key, stores)) != scope.types[key]:
            scope.types[key] = types
    return scope


def _path_key(expr: Expr) -> tuple[str, int | None] | None:
    """Field path of a comparison operand: innermost name plus optional
    constant element index.  `sig.btPngSignature[0]` keys as
    ("btPngSignature", 0)."""
    index = None
    if isinstance(expr, Index) and isinstance(expr.index, IntLit):
        expr, index = expr.base, expr.index.value
    return (expr.name, index) if isinstance(expr, (Ident, Member)) else None


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
            key = _path_key(path_side)
            if key is None or not isinstance(lit_side, (IntLit, StrLit)):
                continue
            bucket = table.setdefault(key, [])
            if lit_side.value not in bucket:
                bucket.append(lit_side.value)
    unit.magic.clear()
    unit.magic.update(table)
    return table
