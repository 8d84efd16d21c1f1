"""Dual-mode template evaluator.

Walks a TemplateUnit statement by statement.  In GEN mode every input
declaration turns decisions into file bytes; in PARSE mode it consumes
file bytes and emits the canonical decision encoding.  Both modes build
the same parse tree and run the same control flow, which is what keeps
generation and parsing synchronized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .decisionstream import ChoiceEvent, ChoiceSpec, DecisionStream, StreamMode
from .errors import (
    BudgetExceeded,
    ChecksumAlgoUnknown,
    DecodeError,
    EvalError,
    GenerationFailed,
    InvalidFieldAccess,
    OutOfRange,
    ParseRejected,
    RecursionTooDeep,
    SpliceMisaligned,
    TemplateAbort,
    TrailingBytes,
    UnrepresentableValue,
)
from .runtime import DEFAULT_BUDGET, FileBuffer, ParseNode, RecordVal, Scope
from .templatelang import NATIVE_INTS, TemplateUnit
from .templatelang import nodes as ast

# Checksum algorithm selectors, available to templates as globals.
CHECKSUM_CRC32 = 0
CHECKSUM_SUM8 = 1

# FEof in generation stops with probability 1/FEOF_STOP_K.
FEOF_STOP_K = 8

# A bad array length in hint mode is replaced by (decision byte mod this).
HINT_LENGTH_MOD = 16

_U64 = (1 << 64) - 1
_S64_MIN = -(1 << 63)


def wrap64(v: int) -> int:
    """Two's-complement 64-bit wrap, C style."""
    return ((v - _S64_MIN) & _U64) + _S64_MIN


def c_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def c_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    return wrap64(a - c_div(a, b) * b)


def _make_crc_table() -> list[int]:
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        table.append(c)
    return table


_CRC_TABLE = _make_crc_table()


def crc32(data: bytes) -> int:
    """Reflected CRC-32, polynomial 0xEDB88320, init and final XOR all-ones."""
    c = 0xFFFFFFFF
    for b in data:
        c = _CRC_TABLE[(c ^ b) & 0xFF] ^ (c >> 8)
    return c ^ 0xFFFFFFFF


def sum8(data: bytes) -> int:
    return sum(data) % 256


def encode_int(value: int, width: int, big: bool) -> bytes:
    return (value & ((1 << (8 * width)) - 1)).to_bytes(width, "big" if big else "little")


def decode_int(raw: bytes, signed: bool, big: bool) -> int:
    return int.from_bytes(raw, "big" if big else "little", signed=signed)


# --- codec registry (pluggable stream hook, used by CodecStream) -----------

CODECS: dict[str, object] = {}


def register_codec(name: str, codec) -> None:
    """Register an encode/decode pair for CodecStream bodies.

    `codec` needs encode(raw: bytes) -> bytes and decode(container: bytes)
    -> bytes (raising DecodeError on malformed input).
    """
    CODECS[name] = codec


# Raw byte lengths fed to a codec are drawn from [0, CODEC_RAW_MAX].
CODEC_RAW_MAX = 5


class _BreakSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


@dataclass
class GenResult:
    file: bytes
    tree: ParseNode
    seed: bytes
    events: list[ChoiceEvent] = dc_field(default_factory=list)  # lookaheads, stream switches
    covered: set[int] = dc_field(default_factory=set)
    log: list[tuple[str, str]] = dc_field(default_factory=list)
    spliced_consumed: int | None = None

    def __iter__(self):
        return iter((self.file, self.tree, self.seed))


@dataclass
class ParseOutcome:
    tree: ParseNode
    seed: bytes
    events: list[ChoiceEvent] = dc_field(default_factory=list)  # lookaheads, stream switches
    covered: set[int] = dc_field(default_factory=set)
    log: list[tuple[str, str]] = dc_field(default_factory=list)

    def __iter__(self):
        return iter((self.tree, self.seed))


class Execution:
    """One generation or parse run over a template."""

    def __init__(self, unit: TemplateUnit, ds: DecisionStream, buf: FileBuffer,
                 splice_id: int = -1):
        self.unit = unit
        self.ds = ds
        self.buf = buf
        self.gen = ds.mode is not StreamMode.PARSE_RECORD
        self.scope = Scope()
        self.big_endian = False
        self.hint_mode = False
        self.covered: set[int] = set()
        self.log: list[tuple[str, str]] = []
        self.root = ParseNode(0, "<file>", unit.source_name)
        self._next_node_id = 1
        self.node_stack = [self.root]
        self.record_stack = [RecordVal("<toplevel>")]
        self._splice_id = splice_id  # the node ds.splice's middle belongs to
        self._bind_globals()

    def _bind_globals(self):
        for tdef in self.unit.typedefs.values():
            if tdef.kind == "enum":
                for member in tdef.members:
                    self.scope.bind(member.name, member.value)
        self.scope.bind("CHECKSUM_CRC32", CHECKSUM_CRC32)
        self.scope.bind("CHECKSUM_SUM8", CHECKSUM_SUM8)

    # -- tree bookkeeping ---------------------------------------------------

    def _push_node(self, name: str, type_name: str) -> ParseNode:
        node = ParseNode(self._next_node_id, name, type_name)
        self._next_node_id += 1
        node.file_start = node.file_end = self.buf.position
        node.seed_start = node.seed_end = self.ds.cursor
        if node.id == self._splice_id:
            self.ds.splice.begin_alt()
        # optional: generated right after a lookahead call, its lead
        lead = self.ds.last_lookahead
        if lead is not None and lead.end == node.seed_start:
            node.lead = lead
        self.node_stack[-1].children.append(node)
        self.node_stack.append(node)
        self.ds.node_id = node.id
        return node

    def _pop_node(self, node: ParseNode):
        node.file_end = self.buf.position
        node.seed_end = self.ds.cursor
        popped = self.node_stack.pop()
        assert popped is node
        self.ds.node_id = self.node_stack[-1].id
        if node.id == self._splice_id:
            self.ds.splice.end_alt()

    # -- toplevel -------------------------------------------------------

    def run(self) -> int:
        """Execute the template; returns the top-level return code (0 if
        the program fell off the end)."""
        code = 0
        try:
            self._exec_stmts(self.unit.toplevel)
        except _ReturnSignal as sig:
            code = sig.value if isinstance(sig.value, int) else 0
        except _BreakSignal:
            raise EvalError("break outside of a loop or switch")
        except RecursionError:
            raise RecursionTooDeep("template recursion exceeds the interpreter stack") from None
        if code < 0:
            if self.gen:
                raise TemplateAbort(code)
            raise ParseRejected(f"template rejected the input with return code {code}")
        self.root.file_end = self.buf.high_water if self.gen else self.buf.position
        self.root.seed_end = self.ds.cursor
        return code

    # -- statements -----------------------------------------------------

    def _exec_stmts(self, stmts):
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt):
        handler = _STMT_DISPATCH.get(type(stmt))
        if handler is None:
            raise EvalError(f"cannot execute {type(stmt).__name__}")
        handler(self, stmt)

    def _exec_local(self, stmt: ast.LocalDecl):
        if stmt.array_len is None:
            if isinstance(stmt.init, list):
                raise EvalError(f"brace initializer on scalar local {stmt.name!r}")
            if stmt.init is not None:
                value = self._eval(stmt.init)
                if isinstance(value, int):
                    value = wrap64(value)
            else:
                value = b"" if stmt.type_name == "string" else 0
        else:
            if isinstance(stmt.init, list):
                value = [self._eval(e) for e in stmt.init]
            else:
                if stmt.init is not None:
                    raise EvalError(f"array local {stmt.name!r} needs a brace initializer")
                if stmt.array_len is ast.DYNAMIC_ARRAY:
                    length = 0
                else:
                    length = self._eval_int(stmt.array_len)
                    if length < 0:
                        raise EvalError(f"negative length for local array {stmt.name!r}")
                fill = b"" if stmt.type_name == "string" else 0
                value = [fill] * length
        self.scope.bind(stmt.name, value)

    def _exec_assign(self, stmt: ast.Assign):
        value = self._eval(stmt.value)
        if isinstance(value, int):
            value = wrap64(value)
        target = stmt.target
        if isinstance(target, ast.Ident):
            self.scope.assign(target.name, value)
        elif isinstance(target, ast.Index):
            seq = self._eval(target.base)
            idx = self._eval_int(target.index)
            if not isinstance(seq, list) or not 0 <= idx < len(seq):
                raise EvalError("array assignment target is not a valid local array slot")
            seq[idx] = value
        else:
            raise EvalError("unsupported assignment target")

    def _exec_extend(self, stmt: ast.ArrayExtend):
        arr = self.scope.read(stmt.name)
        if not isinstance(arr, list):
            raise EvalError(f"{stmt.op} target {stmt.name!r} is not a local array")
        values = [self._eval(e) for e in stmt.values]
        if stmt.op == "+=":
            for v in values:
                if v not in arr:
                    arr.append(v)
        else:
            arr[:] = [x for x in arr if x not in values]

    def _exec_if(self, stmt: ast.If):
        if _truthy(self._eval(stmt.cond)):
            self._exec_stmts(stmt.then)
        else:
            self._exec_stmts(stmt.other)

    def _exec_while(self, stmt: ast.While):
        try:
            while _truthy(self._eval(stmt.cond)):
                self._exec_stmts(stmt.body)
        except _BreakSignal:
            pass

    def _exec_for(self, stmt: ast.For):
        if stmt.init is not None:
            self._exec_stmt(stmt.init)
        try:
            while stmt.cond is None or _truthy(self._eval(stmt.cond)):
                self._exec_stmts(stmt.body)
                if stmt.step is not None:
                    self._exec_stmt(stmt.step)
        except _BreakSignal:
            pass

    def _exec_switch(self, stmt: ast.Switch):
        scrutinee = self._eval(stmt.scrutinee)
        match_idx = None
        default_idx = None
        for i, case in enumerate(stmt.cases):
            if case.match is None:
                default_idx = i
                continue
            if self._eval(case.match) == scrutinee:
                match_idx = i
                break
        start = match_idx if match_idx is not None else default_idx
        if start is None:
            return
        try:
            for case in stmt.cases[start:]:
                self._exec_stmts(case.body)
        except _BreakSignal:
            pass

    def _exec_break(self, stmt):
        raise _BreakSignal()

    def _exec_return(self, stmt: ast.Return):
        value = self._eval(stmt.value) if stmt.value is not None else 0
        raise _ReturnSignal(value)

    def _exec_expr_stmt(self, stmt: ast.ExprStmt):
        self._eval(stmt.expr)

    def _exec_block(self, stmt: ast.BlockStmt):
        self._exec_stmts(stmt.body)

    # -- input declarations ----------------------------------------------

    def _exec_input_decl(self, decl: ast.InputDecl):
        self.covered.add(decl.decl_id)
        tdef, native = decl.resolved
        if tdef is not None and tdef.kind == "record":
            self._declare_record(decl, tdef)
            return
        if native == "string":
            raise EvalError(f"input field {decl.name!r}: string inputs are not supported; "
                            "declare a char array with an explicit length")
        if native not in NATIVE_INTS:
            raise EvalError(f"cannot declare input of type {decl.type_name!r}")
        if tdef is not None:
            enum_cands = [m.value for m in tdef.members]
            type_label = tdef.name
        else:
            enum_cands = None
            type_label = native
        width, signed = NATIVE_INTS[native]
        if decl.array_len is None:
            self._declare_scalar(decl, width, signed, enum_cands, type_label)
        else:
            self._declare_int_array(decl, native, width, signed, enum_cands, type_label)

    def _array_length(self, decl: ast.InputDecl, elem_width: int) -> int:
        if decl.array_len is ast.DYNAMIC_ARRAY:
            raise EvalError(f"input array {decl.name!r} needs an explicit length")
        length = self._eval_int(decl.array_len)
        remaining = self.buf.budget - self.buf.position
        bad = length < 0 or length * max(elem_width, 1) > remaining
        if bad and self.gen and self.hint_mode:
            length = self.ds.draw_raw(1)[0] % HINT_LENGTH_MOD
        elif bad:
            raise BudgetExceeded(
                f"array {decl.name}[{length}] does not fit the remaining "
                f"{remaining} byte(s)")
        return length

    def _field_spec(self, decl: ast.InputDecl, width: int, signed: bool,
                    enum_cands: list[int] | None, elem_idx: int | None) -> ChoiceSpec:
        def norm(v: int) -> int:
            return decode_int(encode_int(v, width, self.big_endian), signed, self.big_endian)

        if decl.init_list is not None:
            cands = [wrap64(self._eval_int(e)) for e in decl.init_list]
            return ChoiceSpec(width=width, candidates=[norm(c) for c in cands])
        mined = self.unit.magic.get((decl.name, elem_idx))
        if mined:
            cands = [norm(v) for v in mined if isinstance(v, int)]
            if cands:
                return ChoiceSpec(width=width, candidates=cands)
        if enum_cands is not None:
            return ChoiceSpec(width=width, candidates=[norm(c) for c in enum_cands])
        if decl.attrs:
            type_lo = -(1 << (8 * width - 1)) if signed else 0
            type_hi = (1 << (8 * width - 1)) - 1 if signed else (1 << (8 * width)) - 1
            lo = self._eval_int(decl.attrs["min"]) if "min" in decl.attrs else type_lo
            hi = self._eval_int(decl.attrs["max"]) if "max" in decl.attrs else type_hi
            if lo > hi:
                raise EvalError(f"field {decl.name!r}: min {lo} exceeds max {hi}")
            return ChoiceSpec(width=width, bounds=(lo, hi))
        return ChoiceSpec(width=width)

    def _choose_raw(self, spec: ChoiceSpec) -> bytes:
        """A drawn value as file bytes; an integer is encoded at the spec's width."""
        _, payload = self.ds.choose_value(spec)
        if isinstance(payload, bytes):
            return payload
        return encode_int(payload, spec.width, self.big_endian)

    def _field(self, spec: ChoiceSpec, signed: bool | None) -> bytes:
        """One field's file bytes, written (GEN) or read (PARSE) at the
        current position.  Bytes a lookahead reserved are taken as they
        are and cost no decision.  signed is None for a whole char array,
        whose value is its bytes."""
        reserved = self.buf.reserved_block(self.buf.position, spec.width)
        if self.gen:
            raw = self._choose_raw(spec) if reserved is None else reserved
            self.buf.write(raw)
            return raw
        raw = self.buf.read(spec.width)
        if reserved is None:
            value = raw if signed is None else decode_int(raw, signed, self.big_endian)
            self.ds.emit_value(spec, value, raw)
        return raw

    def _bind_field(self, instance: RecordVal, name: str, value, node: ParseNode | None):
        """Bind a declared field in its record instance and in scope.  An
        empty record array has no node and keeps the name's earlier one."""
        instance.fields[name] = value
        if node is not None:
            instance.field_nodes[name] = node
        self.scope.bind(name, value)

    def _declare_scalar(self, decl, width, signed, enum_cands, type_label):
        instance = self.record_stack[-1]
        if decl.name in instance.fields:
            if not isinstance(instance.fields[decl.name], int):
                raise EvalError(f"field {decl.name!r} is redeclared as a scalar, "
                                "but its current field is not one")
            self._redeclare_scalar(decl, instance.field_nodes[decl.name], width, signed,
                                   enum_cands, instance)
            return
        node = self._push_node(decl.name, type_label)
        try:
            spec = self._field_spec(decl, width, signed, enum_cands, None)
            value = decode_int(self._field(spec, signed), signed, self.big_endian)
        finally:
            self._pop_node(node)
        self._bind_field(instance, decl.name, value, node)

    def _redeclare_scalar(self, decl, node, width, signed, enum_cands, instance):
        """Fix-up declaration: same name, same record instance.  The bytes
        at the current position are rewritten (GEN) or revalidated (PARSE);
        the node is updated in place and keeps its original decision span."""
        prev_id = self.ds.node_id
        self.ds.node_id = node.id
        start = self.buf.position
        spec = self._field_spec(decl, width, signed, enum_cands, None)
        try:
            value = decode_int(self._field(spec, signed), signed, self.big_endian)
        finally:
            self.ds.node_id = prev_id
        node.file_start, node.file_end = start, self.buf.position
        node.rewritten = True
        self._bind_field(instance, decl.name, value, node)

    def _declare_int_array(self, decl, native, width, signed, enum_cands, type_label):
        # a repeated array declaration (loop body) starts a fresh instance
        instance = self.record_stack[-1]
        length = self._array_length(decl, width)
        node = self._push_node(decl.name, f"{type_label}[{length}]")
        try:
            is_char = native == "char"
            whole = self._whole_array_candidates(decl, length) if is_char else None
            if whole is not None:
                value = self._field(ChoiceSpec(width=length, candidates=whole), None)
            else:
                value = self._array_elements(decl, length, width, signed,
                                             enum_cands, is_char)
        finally:
            self._pop_node(node)
        self._bind_field(instance, decl.name, value, node)

    def _array_elements(self, decl, length, width, signed, enum_cands, is_char):
        """Element-by-element array body.  The choice spec is hoisted out
        of the loop unless some element has its own mined magic.  An
        unconstrained one-byte array with no reservation over its span is
        decided in one stream call."""
        per_index = (decl.init_list is not None
                     or any(k[1] is not None and k[0] == decl.name for k in self.unit.magic))
        spec0 = None if per_index else self._field_spec(decl, width, signed, enum_cands, -1)
        pos0 = self.buf.position
        if (width == 1 and spec0 is not None and not spec0.candidates
                and spec0.bounds is None and not self.buf.reserved_offsets(pos0, pos0 + length)):
            if self.gen:
                raw = self.ds.choose_bytes(length)
                self.buf.write(raw)
            else:
                raw = self.buf.read(length)
                self.ds.emit_bytes(raw, signed)
            return raw if is_char else memoryview(raw).cast("b" if signed else "B").tolist()
        raws = bytearray()
        elems = []
        for i in range(length):
            spec = spec0 if spec0 is not None else self._field_spec(
                decl, width, signed, enum_cands, i)
            raw = self._field(spec, signed)
            raws += raw
            elems.append(decode_int(raw, signed, self.big_endian))
        return bytes(raws) if is_char else elems

    def _whole_array_candidates(self, decl, length: int) -> list[bytes] | None:
        if decl.init_list is not None:
            cands = [self._eval(e) for e in decl.init_list]
            if all(isinstance(c, bytes) for c in cands):
                bad = [c for c in cands if len(c) != length]
                if bad:
                    raise EvalError(
                        f"initializer for {decl.name!r} has length {len(bad[0])}, "
                        f"array holds {length}")
                return cands
            return None
        mined = self.unit.magic.get((decl.name, None), ())
        return [v for v in mined if isinstance(v, bytes) and len(v) == length] or None

    def _declare_record(self, decl: ast.InputDecl, tdef):
        # repeated declarations of one record name (chunk loops) each
        # produce a fresh instance; bindings track the newest one
        if decl.init_list is not None or decl.attrs:
            raise EvalError(f"record field {decl.name!r} takes no initializer or bounds")
        instance = self.record_stack[-1]
        if decl.array_len is None:
            value, node = self._instantiate_record(decl, tdef)
        else:
            value = []
            node = None
            for _ in range(self._array_length(decl, 1)):
                rec, node = self._instantiate_record(decl, tdef)
                value.append(rec)
        self._bind_field(instance, decl.name, value, node)

    def _instantiate_record(self, decl: ast.InputDecl, tdef) -> tuple[RecordVal, ParseNode]:
        args = [self._eval(a) for a in decl.args]
        node = self._push_node(decl.name, tdef.name)
        if args:  # a snapshot: local arrays may change after the call
            node.args = tuple(tuple(a) if isinstance(a, list) else a for a in args)
        rec = RecordVal(tdef.name)
        self.record_stack.append(rec)
        self.scope.push_activation()
        try:
            for (pname, _ptype), value in zip(tdef.params, args):
                self.scope.bind(pname, wrap64(value) if isinstance(value, int) else value)
            self._exec_stmts(tdef.body)
        finally:
            self.scope.pop_activation()
            self.record_stack.pop()
            self._pop_node(node)
        return rec, node

    # -- expressions ------------------------------------------------------

    def _eval_int(self, expr) -> int:
        value = self._eval(expr)
        if not isinstance(value, int):
            raise EvalError(f"expected an integer, got {type(value).__name__}")
        return value

    def _eval(self, expr):
        handler = _EXPR_DISPATCH.get(type(expr))
        if handler is None:
            raise EvalError(f"cannot evaluate {type(expr).__name__}")
        return handler(self, expr)

    def _eval_ident(self, expr: ast.Ident):
        return self.scope.read(expr.name)

    def _eval_member(self, expr: ast.Member):
        obj = self._eval(expr.obj)
        if isinstance(obj, RecordVal):
            try:
                return obj.fields[expr.name]
            except KeyError:
                raise InvalidFieldAccess(
                    f"record {obj.type_name} has no field {expr.name!r}") from None
        raise EvalError(f"member access on non-record value {type(obj).__name__}")

    def _eval_index(self, expr: ast.Index):
        base = self._eval(expr.base)
        idx = self._eval_int(expr.index)
        if isinstance(base, (list, bytes, bytearray)):
            if not 0 <= idx < len(base):
                raise InvalidFieldAccess(f"index {idx} outside array of {len(base)}")
            v = base[idx]
            if isinstance(base, list):
                return v
            return v - 256 if v >= 0x80 else v  # bytes hold chars, and char is signed
        raise EvalError(f"indexing non-array value {type(base).__name__}")

    def _eval_unary(self, expr: ast.Unary):
        v = self._eval(expr.operand)
        if expr.op == "!":
            return 0 if _truthy(v) else 1
        if not isinstance(v, int):
            raise EvalError(f"unary {expr.op} on {type(v).__name__}")
        if expr.op == "-":
            return wrap64(-v)
        if expr.op == "+":
            return v
        if expr.op == "~":
            return wrap64(~v)
        raise EvalError(f"unknown unary operator {expr.op}")

    def _eval_binary(self, expr: ast.Binary):
        op = expr.op
        if op == "&&":
            return 1 if _truthy(self._eval(expr.left)) and _truthy(self._eval(expr.right)) else 0
        if op == "||":
            return 1 if _truthy(self._eval(expr.left)) or _truthy(self._eval(expr.right)) else 0
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if isinstance(left, bytes) and isinstance(right, bytes):
            if op not in ("==", "!="):
                raise EvalError(f"operator {op} not defined on strings")
        elif not isinstance(left, int) or not isinstance(right, int):
            raise EvalError(f"operator {op} on {type(left).__name__} and {type(right).__name__}")
        return _BINARY_OPS[op](left, right)

    def _eval_ternary(self, expr: ast.Ternary):
        return self._eval(expr.then if _truthy(self._eval(expr.cond)) else expr.other)

    def _eval_postfix(self, expr: ast.Postfix):
        target = expr.target
        delta = 1 if expr.op == "++" else -1
        if isinstance(target, ast.Ident):
            old = self.scope.read(target.name)
            if not isinstance(old, int):
                raise EvalError(f"{expr.op} on non-integer {target.name!r}")
            self.scope.assign(target.name, wrap64(old + delta))
            return old
        if isinstance(target, ast.Index):
            seq = self._eval(target.base)
            idx = self._eval_int(target.index)
            if not isinstance(seq, list) or not 0 <= idx < len(seq):
                raise EvalError(f"{expr.op} target is not a valid array slot")
            old = seq[idx]
            seq[idx] = wrap64(old + delta)
            return old
        raise EvalError(f"{expr.op} needs a variable or array element")

    # -- calls -----------------------------------------------------------

    def _eval_call(self, expr: ast.Call):
        name = expr.name
        builtin = _BUILTIN_DISPATCH.get(name)
        if builtin is not None:
            return builtin(self, expr)
        fdef = self.unit.functions.get(name)
        if fdef is None:
            raise EvalError(f"unknown function {name!r}")
        args = [self._eval(a) for a in expr.args]
        self.scope.push_activation()
        try:
            for (pname, _ptype), value in zip(fdef.params, args):
                self.scope.bind(pname, value)
            try:
                self._exec_stmts(fdef.body)
            except _ReturnSignal as sig:
                return sig.value
            return 0
        finally:
            self.scope.pop_activation()

    def _format_message(self, fmt: bytes, args: list) -> str:
        out = []
        it = iter(args)
        i = 0
        text = fmt.decode("latin-1")
        while i < len(text):
            ch = text[i]
            if ch == "%" and i + 1 < len(text):
                code = text[i + 1]
                i += 2
                if code == "%":
                    out.append("%")
                elif code == "d":
                    out.append(str(next(it, "?")))
                elif code == "x":
                    v = next(it, 0)
                    out.append(f"{v:x}" if isinstance(v, int) else str(v))
                elif code == "s":
                    v = next(it, b"")
                    out.append(v.decode("latin-1") if isinstance(v, bytes) else str(v))
                else:
                    out.append("%" + code)
            else:
                out.append(ch)
                i += 1
        return "".join(out)

    # builtins

    def _bi_ftell(self, expr):
        return self.buf.position

    def _bi_fseek(self, expr):
        self.buf.seek(self._eval_int(expr.args[0]))
        return 0

    def _bi_feof(self, expr):
        if not self.gen:
            eof = self.buf.position >= self.buf.size
            self.ds.emit_index(FEOF_STOP_K, 0 if eof else 1)
            return 1 if eof else 0
        if self.buf.budget - self.buf.position < 1:
            return 1
        return 1 if self.ds.choose_index(FEOF_STOP_K) == 0 else 0

    def _bi_filesize(self, expr):
        return self.buf.high_water if self.gen else self.buf.size

    def _bi_read_byte(self, expr):
        pos = self._eval_int(expr.args[0])
        choices = self._eval(expr.args[1]) if len(expr.args) > 1 else None
        if choices is not None and not isinstance(choices, list):
            raise EvalError("ReadByte choices must be a local array")
        cands = [c & 0xFF for c in choices] if choices else None
        spec = ChoiceSpec(width=1, candidates=cands)
        self.ds.begin_lookahead()
        token = None
        try:
            # a reserved byte is taken as it is and costs no decision
            token = self.buf.reserved_block(pos, 1)
            if token is None:
                if self.gen:
                    token = self._choose_raw(spec)
                else:
                    token = self.buf.peek(pos, 1)
                    if token is None:
                        raise OutOfRange(f"lookahead at {pos} is past the end of input")
                    self.ds.emit_value(spec, token[0], token)
                self.buf.reserve(pos, token)
            return token[0]
        finally:
            self.ds.end_lookahead(token, spec)

    def _bi_read_bytes(self, expr):
        out = expr.args[0]
        if not isinstance(out, ast.Ident):
            raise EvalError("ReadBytes output must be a local variable name")
        pos = self._eval_int(expr.args[1])
        length = self._eval_int(expr.args[2])
        preferred = self._eval(expr.args[3])
        possible = self._eval(expr.args[4])
        prob = self._eval(expr.args[5])
        if not isinstance(preferred, list) or not isinstance(possible, list):
            raise EvalError("ReadBytes preferred/possible must be local arrays")
        spec = ChoiceSpec(width=length, preferred=list(preferred), possible=list(possible),
                          pref_prob=float(prob))
        self.ds.begin_lookahead()
        token = None
        try:
            if self.gen:
                token = self.ds.choose_token(spec)
            else:
                token = self.ds.emit_token(spec, self.buf.peek(pos, length))
            if token is None:
                return 0
            if len(token) != length:
                raise EvalError(f"token {token!r} does not have width {length}")
            self.buf.reserve(pos, token)
            self.scope.assign(out.name, token)
            return 1
        finally:
            self.ds.end_lookahead(token, spec)

    def _bi_checksum(self, expr):
        algo = self._eval_int(expr.args[0])
        start = self._eval_int(expr.args[1])
        size = self._eval_int(expr.args[2])
        if size < 0 or start < 0:
            raise EvalError(f"checksum over invalid range [{start}, {start}+{size})")
        region = self.buf.peek(start, size)
        if region is None:
            raise EvalError(f"checksum range [{start}, {start + size}) is not materialized")
        if algo == CHECKSUM_CRC32:
            return crc32(region)
        if algo == CHECKSUM_SUM8:
            return sum8(region)
        raise ChecksumAlgoUnknown(f"checksum algorithm {algo} not implemented")

    def _bi_set_evil(self, expr):
        return 1 if self.ds.set_evil(_truthy(self._eval(expr.args[0]))) else 0

    def _bi_change_array_length(self, expr):
        previous = self.hint_mode
        self.hint_mode = not previous
        return 1 if previous else 0

    def _bi_warning(self, expr):
        self._log_message("warning", expr)
        return 0

    def _bi_printf(self, expr):
        self._log_message("printf", expr)
        return 0

    def _log_message(self, kind: str, expr):
        fmt = self._eval(expr.args[0])
        if not isinstance(fmt, bytes):
            raise EvalError(f"{kind} format must be a string")
        args = [self._eval(a) for a in expr.args[1:]]
        self.log.append((kind, self._format_message(fmt, args)))

    def _bi_big_endian(self, expr):
        self.big_endian = True
        return 0

    def _bi_little_endian(self, expr):
        self.big_endian = False
        return 0

    def _bi_codec_stream(self, expr):
        name_expr = expr.args[0]
        if isinstance(name_expr, ast.Ident):
            name = name_expr.name
        elif isinstance(name_expr, ast.StrLit):
            name = name_expr.value.decode("latin-1")
        else:
            raise EvalError("CodecStream stream name must be an identifier")
        codec_name = self._eval(expr.args[1])
        if not isinstance(codec_name, bytes):
            raise EvalError("CodecStream codec must be a string")
        codec_name = codec_name.decode("latin-1")
        codec = CODECS.get(codec_name)
        if codec is None:
            raise EvalError(f"no codec registered under {codec_name!r}")
        node = self._push_node(name, codec_name)
        try:
            if self.gen:
                raw_len = self.ds.choose_bounded(0, CODEC_RAW_MAX)
                raw = self.ds.draw_raw(raw_len) if raw_len else b""
                body = codec.encode(raw)
                self.buf.write(body)
                return len(body)
            length = self._eval_int(expr.args[2])
            if length < 0:
                raise EvalError(f"negative codec stream length {length}")
            body = self.buf.read(length)
            try:
                raw = codec.decode(body)
            except DecodeError as exc:
                raise ParseRejected(f"codec stream {name!r}: {exc}") from exc
            if codec.encode(raw) != body:
                raise UnrepresentableValue(
                    f"codec stream {name!r} is valid but not in canonical form")
            if len(raw) > CODEC_RAW_MAX:
                raise UnrepresentableValue(
                    f"codec stream {name!r} carries {len(raw)} raw bytes, "
                    f"generator limit is {CODEC_RAW_MAX}")
            self.ds.emit_bounded(len(raw), 0, CODEC_RAW_MAX)
            if raw:
                self.ds.emit_raw(raw)
            return len(body)
        finally:
            self._pop_node(node)


def _shift(n: int) -> int:
    if not 0 <= n < 64:
        raise EvalError(f"shift amount {n} outside [0, 63]")
    return n


# Binary operators on two ints; == and != also compare two strings.  Holds
# every operator the parser builds a Binary node for, except && and ||.
_BINARY_OPS = {
    "+": lambda a, b: wrap64(a + b),
    "-": lambda a, b: wrap64(a - b),
    "*": lambda a, b: wrap64(a * b),
    "/": c_div,
    "%": c_mod,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "&": lambda a, b: wrap64(a & b),
    "|": lambda a, b: wrap64(a | b),
    "^": lambda a, b: wrap64(a ^ b),
    "<<": lambda a, b: wrap64(a << _shift(b)),
    ">>": lambda a, b: wrap64(a >> _shift(b)),
}


def _truthy(v) -> bool:
    if isinstance(v, int):
        return v != 0
    if isinstance(v, (bytes, list)):
        return len(v) > 0
    raise EvalError(f"no truth value for {type(v).__name__}")


_STMT_DISPATCH = {
    ast.InputDecl: Execution._exec_input_decl,
    ast.LocalDecl: Execution._exec_local,
    ast.Assign: Execution._exec_assign,
    ast.ArrayExtend: Execution._exec_extend,
    ast.If: Execution._exec_if,
    ast.While: Execution._exec_while,
    ast.For: Execution._exec_for,
    ast.Switch: Execution._exec_switch,
    ast.Break: Execution._exec_break,
    ast.Return: Execution._exec_return,
    ast.ExprStmt: Execution._exec_expr_stmt,
    ast.BlockStmt: Execution._exec_block,
}

_EXPR_DISPATCH = {
    ast.IntLit: lambda self, e: e.value,
    ast.FloatLit: lambda self, e: e.value,
    ast.StrLit: lambda self, e: e.value,
    ast.Ident: Execution._eval_ident,
    ast.Member: Execution._eval_member,
    ast.Index: Execution._eval_index,
    ast.Call: Execution._eval_call,
    ast.Unary: Execution._eval_unary,
    ast.Binary: Execution._eval_binary,
    ast.Ternary: Execution._eval_ternary,
    ast.Postfix: Execution._eval_postfix,
}

_BUILTIN_DISPATCH = {
    "FTell": Execution._bi_ftell,
    "FSeek": Execution._bi_fseek,
    "FEof": Execution._bi_feof,
    "FileSize": Execution._bi_filesize,
    "ReadByte": Execution._bi_read_byte,
    "ReadBytes": Execution._bi_read_bytes,
    "Checksum": Execution._bi_checksum,
    "SetEvilBit": Execution._bi_set_evil,
    "ChangeArrayLength": Execution._bi_change_array_length,
    "Warning": Execution._bi_warning,
    "Printf": Execution._bi_printf,
    "BigEndian": Execution._bi_big_endian,
    "LittleEndian": Execution._bi_little_endian,
    "CodecStream": Execution._bi_codec_stream,
}


# --- public entry points ----------------------------------------------------


def generate(unit: TemplateUnit, ds: DecisionStream,
             budget: int = DEFAULT_BUDGET) -> GenResult:
    """Run the template forward.  Deterministic: the same unit and the
    same consumed seed bytes yield a bit-identical file and tree."""
    buf = FileBuffer(budget)
    ex = Execution(unit, ds, buf)
    ex.run()
    data = buf.finalize()
    ex.root.file_end = len(data)
    return GenResult(data, ex.root, ds.seed, ds.events, ex.covered, ex.log)


def generate_from_seed(unit: TemplateUnit, seed: bytes, *, evil: bool = True,
                       budget: int = DEFAULT_BUDGET) -> GenResult:
    ds = DecisionStream(StreamMode.GEN_FROM_SEED, seed=seed, evil_enabled=evil)
    return generate(unit, ds, budget)


def generate_random(unit: TemplateUnit, rng: random.Random | int | None = None, *,
                    evil: bool = True, budget: int = DEFAULT_BUDGET) -> GenResult:
    ds = DecisionStream(StreamMode.GEN_RANDOM, rng=rng, evil_enabled=evil)
    return generate(unit, ds, budget)


def parse(unit: TemplateUnit, data: bytes, *, evil: bool = True,
          trailing: str = "error") -> ParseOutcome:
    """Run the template backward over `data`, emitting the canonical seed.

    On success, generate_from_seed(unit, outcome.seed) reproduces `data`
    bit-exactly.  Engine-level failures surface as ParseRejected; leftover
    input raises TrailingBytes unless trailing="allow".
    """
    ds = DecisionStream(StreamMode.PARSE_RECORD, evil_enabled=evil)
    buf = FileBuffer(data=bytes(data))
    ex = Execution(unit, ds, buf)
    try:
        ex.run()
    except ParseRejected:
        raise
    except GenerationFailed as exc:
        raise ParseRejected(f"{type(exc).__name__}: {exc}") from exc
    if buf.position < buf.size:
        if trailing == "error":
            raise TrailingBytes(buf.position, buf.size)
        ex.log.append(("warning", f"{buf.size - buf.position} trailing byte(s) ignored"))
    return ParseOutcome(ex.root, ds.seed, ds.events, ex.covered, ex.log)


def run_with_splice(unit: TemplateUnit, base_seed: bytes, span: tuple[int, int],
                    node_id: int, alt, *, evil: bool = True,
                    budget: int = DEFAULT_BUDGET) -> GenResult:
    """Generate with base_seed's decisions replayed around `span` and `alt`
    (donor seed bytes, or an int/Random for random bytes) consumed inside
    it.  The prefix replays the base exactly, so node ids match the base's
    parse tree; the splice covers node `node_id`, which must begin at the
    span start.  Any desynchronization raises SpliceMisaligned.
    """
    start, end = span
    if not 0 <= start <= end <= len(base_seed):
        raise SpliceMisaligned(f"span [{start}, {end}) outside seed of {len(base_seed)}")
    if isinstance(alt, int):
        alt = random.Random(alt)
    ds = DecisionStream(StreamMode.GEN_FROM_SEED, seed=base_seed, evil_enabled=evil,
                        splice=(span, alt))
    splice = ds.splice
    buf = FileBuffer(budget)
    ex = Execution(unit, ds, buf, node_id)
    try:
        ex.run()
        data = buf.finalize()
    except SpliceMisaligned:
        raise
    except GenerationFailed as exc:
        if splice.phase == splice.PREFIX:
            raise SpliceMisaligned(f"replay failed before the splice region: {exc}") from exc
        if splice.phase == splice.SUFFIX:
            raise SpliceMisaligned(f"replay failed after the splice region: {exc}") from exc
        raise
    if splice.phase != splice.SUFFIX:
        raise SpliceMisaligned(f"generation finished before node {node_id} completed")
    leftover = len(base_seed) - splice.pos
    if leftover:
        raise SpliceMisaligned(f"{leftover} base seed byte(s) left after the splice")
    return GenResult(data, ex.root, ds.seed, ds.events, ex.covered, ex.log,
                     spliced_consumed=splice.alt_consumed)
