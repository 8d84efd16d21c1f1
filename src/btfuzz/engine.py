"""Dual-mode template evaluator.

Each TemplateUnit is compiled once, on its first run, into Python
closures: one per statement, expression and input declaration.  What the
template fixes statically is bound into them then: literal operands,
constant choice specs, native widths and signs, builtin arguments.  A run
calls the compiled top level on an Execution, which holds the run's
state.  In GEN mode every input declaration turns decisions into file
bytes; in PARSE mode it consumes file bytes and emits the canonical
decision encoding.  Both modes build the same parse tree and run the same
control flow, which is what keeps generation and parsing synchronized.
"""

from __future__ import annotations

import operator
import random
import re
import zlib
from dataclasses import dataclass, field as dc_field

from .decisionstream import ChoiceSpec, DecisionStream, StreamMode
from .errors import (
    BudgetExceeded, ChecksumAlgoUnknown, DecodeError, EvalError, GenerationFailed,
    InvalidFieldAccess, LocalArrayTooLarge, OutOfRange, ParseRejected, RecursionTooDeep,
    SpliceMisaligned, StepBudgetExceeded, TemplateAbort, TrailingBytes, UnrepresentableValue)
from .runtime import DEFAULT_BUDGET, FileBuffer, ParseNode, RecordVal, Scope
from .templatelang import NATIVE_INTS, TemplateUnit, bound_names
from .templatelang import nodes as ast

# Checksum algorithm selectors, available to templates as globals.
CHECKSUM_CRC32 = 0
CHECKSUM_SUM8 = 1

# FEof in generation stops with probability 1/FEOF_STOP_K.
FEOF_STOP_K = 8

# A bad array length in hint mode is replaced by (decision byte mod this).
HINT_LENGTH_MOD = 16

# What one run of any template may use, each far above what a bundled
# template needs: loop iterations (while and for back-edges), and elements
# of one local array.  runtime.MAX_DEPTH bounds nested activations.
MAX_STEPS = 1 << 20
MAX_LOCAL_ARRAY = 1 << 20

_U64 = (1 << 64) - 1
_SIGN = 1 << 63
_CONVERSION = re.compile("%(.)", re.DOTALL)  # in Warning and Printf formats


def wrap64(v: int) -> int:
    """Two's-complement 64-bit wrap, C style."""
    return ((v + _SIGN) & _U64) - _SIGN


def c_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return wrap64(-q if (a < 0) != (b < 0) else q)


def c_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    return wrap64(a - c_div(a, b) * b)


crc32 = zlib.crc32  # reflected CRC-32, polynomial 0xEDB88320, init and final XOR all-ones


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
    """Carries a returned value as its only argument."""


@dataclass(slots=True)
class ChoiceEvent:
    """One lookahead call: its decisions are seed[start:end], made while
    node node_id was the innermost open one (the root is 0)."""

    start: int
    end: int
    node_id: int
    token: bytes | None  # the file bytes the lookahead reserved
    spec: ChoiceSpec  # what the lookahead chose among


@dataclass
class GenResult:
    file: bytes
    tree: ParseNode
    seed: bytes
    events: list[ChoiceEvent] = dc_field(default_factory=list)  # lookaheads
    covered: set[int] = dc_field(default_factory=set)
    log: list[tuple[str, str]] = dc_field(default_factory=list)

    def __iter__(self):
        return iter((self.file, self.tree, self.seed))


@dataclass
class ParseOutcome:
    tree: ParseNode
    seed: bytes
    events: list[ChoiceEvent] = dc_field(default_factory=list)  # lookaheads
    covered: set[int] = dc_field(default_factory=set)
    log: list[tuple[str, str]] = dc_field(default_factory=list)

    def __iter__(self):
        return iter((self.tree, self.seed))


class Execution:
    """One generation or parse run over a compiled template."""

    def __init__(self, unit: TemplateUnit, ds: DecisionStream, buf: FileBuffer,
                 splice_id: int = -1):
        if unit.program is None:
            unit.program = _Compiler(unit)
        self.program = unit.program
        self.ds, self.buf = ds, buf
        self.gen = ds.mode is not StreamMode.PARSE_RECORD
        self.scope = Scope(self.program.globals)
        self.big_endian = self.hint_mode = False
        self.steps = 0  # loop iterations so far
        self.covered: set[int] = set()
        self.log: list[tuple[str, str]] = []
        self.events: list[ChoiceEvent] = []
        self.last_lookahead: ChoiceEvent | None = None
        self.root = ParseNode(0, "<file>", unit.source_name)
        self._next_node_id = 1
        self.node_stack = [self.root]
        self.record_stack = [RecordVal("<toplevel>")]
        self._splice_id = splice_id  # the node ds.splice's middle belongs to

    # -- tree bookkeeping ---------------------------------------------------

    def _push_node(self, name: str, type_name: str) -> ParseNode:
        ds = self.ds
        node = ParseNode(self._next_node_id, name, type_name, self.buf.position, ds.cursor)
        self._next_node_id += 1
        if node.id == self._splice_id:
            ds.splice.begin_alt()
        # optional: generated right after a lookahead call, its lead
        lead = self.last_lookahead
        if lead is not None and lead.end == node.seed_start:
            node.lead = lead
        self.node_stack[-1].children.append(node)
        self.node_stack.append(node)
        return node

    def _pop_node(self, node: ParseNode):
        node.file_end = self.buf.position
        node.seed_end = self.ds.cursor
        popped = self.node_stack.pop()
        assert popped is node
        if node.id == self._splice_id:
            self.ds.splice.end_alt()

    # -- toplevel -------------------------------------------------------

    def run(self) -> int:
        """Execute the template; returns the top-level return code (0 if
        the program fell off the end)."""
        code = 0
        try:
            self.program.toplevel(self)
        except _ReturnSignal as sig:
            code = sig.args[0] if isinstance(sig.args[0], int) else 0
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

    # -- fields -----------------------------------------------------------

    def _field(self, spec: ChoiceSpec, signed: bool | None) -> bytes:
        """One field's file bytes, written (GEN) or read (PARSE) at the
        current position.  Bytes a lookahead reserved are taken as they
        are and cost no decision.  signed is None for a whole char array,
        whose value is its bytes."""
        buf = self.buf
        reserved = buf.reserved_block(buf.position, spec.width)
        if self.gen:
            raw = self._choose_raw(spec) if reserved is None else reserved
            buf.write(raw)
            return raw
        raw = buf.read(spec.width)
        if reserved is None:
            value = raw if signed is None else decode_int(raw, signed, self.big_endian)
            self.ds.emit_value(spec, value, raw)
        return raw

    def _choose_raw(self, spec: ChoiceSpec) -> bytes:
        """A drawn value as file bytes; an integer is encoded at the spec's width."""
        _, payload = self.ds.choose_value(spec)
        if isinstance(payload, bytes):
            return payload
        return (payload & ((1 << (8 * spec.width)) - 1)).to_bytes(
            spec.width, "big" if self.big_endian else "little")

    def _bind_field(self, instance: RecordVal, name: str, value, node: ParseNode | None):
        """Bind a declared field in its record instance and in scope.  An
        empty record array has no node and keeps the name's earlier one."""
        instance.fields[name] = value
        if node is not None:
            instance.field_nodes[name] = node
        self.scope.frame[name] = value

    def _redeclare(self, instance: RecordVal, name: str, spec, signed: bool):
        """Fix-up declaration: same name, same record instance.  The bytes
        at the current position are rewritten (GEN) or revalidated (PARSE);
        the node is updated in place and keeps its original decision span."""
        if not isinstance(instance.fields[name], int):
            raise EvalError(f"field {name!r} is redeclared as a scalar, "
                            "but its current field is not one")
        node = instance.field_nodes[name]
        self.node_stack.append(node)  # the node a lookahead here runs in
        start = self.buf.position
        try:
            spec = spec if isinstance(spec, ChoiceSpec) else spec(self)
            value = decode_int(self._field(spec, signed), signed, self.big_endian)
        finally:
            self.node_stack.pop()
        node.file_start, node.file_end = start, self.buf.position
        node.rewritten = True
        self._bind_field(instance, name, value, node)

    # -- builtins: each takes its compiled arguments -----------------------

    def _bi_fseek(self, args):
        self.buf.seek(_int(args[0](self)))
        return 0

    def _bi_feof(self, args):
        if not self.gen:
            eof = self.buf.position >= self.buf.size
            self.ds.emit_index(FEOF_STOP_K, 0 if eof else 1)
            return 1 if eof else 0
        if self.buf.budget - self.buf.position < 1:
            return 1
        return 1 if self.ds.choose_index(FEOF_STOP_K) == 0 else 0

    def _bi_read_byte(self, args):
        pos, choices = _int(args[0](self)), args[1](self)
        if choices is not None and not isinstance(choices, list):
            raise EvalError("ReadByte choices must be a local array")
        spec = ChoiceSpec(width=1, candidates=[c & 0xFF for c in choices] if choices else None)
        start = self.ds.cursor
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
        self._log_lookahead(start, token, spec)
        return token[0]

    def _bi_read_bytes(self, args):
        out = args[0]  # the node itself: it names the variable to set
        if not isinstance(out, ast.Ident):
            raise EvalError("ReadBytes output must be a local variable name")
        pos, length = _int(args[1](self)), _int(args[2](self))
        preferred, possible, prob = args[3](self), args[4](self), args[5](self)
        if not isinstance(preferred, list) or not isinstance(possible, list):
            raise EvalError("ReadBytes preferred/possible must be local arrays")
        spec = ChoiceSpec(width=length, preferred=list(preferred), possible=list(possible),
                          pref_prob=float(prob))
        start = self.ds.cursor
        if self.gen:
            token = self.ds.choose_token(spec)
        else:
            token = self.ds.emit_token(spec, self.buf.peek(pos, length))
        self._log_lookahead(start, token, spec)
        if token is None:
            return 0
        if len(token) != length:
            raise EvalError(f"token {token!r} does not have width {length}")
        self.buf.reserve(pos, token)
        self.scope.assign(out.name, token)
        return 1

    def _log_lookahead(self, start: int, token: bytes | None, spec: ChoiceSpec):
        """Log a lookahead whose decisions began at seed offset start."""
        self.last_lookahead = ChoiceEvent(start, self.ds.cursor, self.node_stack[-1].id,
                                          token, spec)
        self.events.append(self.last_lookahead)

    def _bi_checksum(self, args):
        algo, start, size = (_int(a(self)) for a in args)
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

    def _bi_set_evil(self, args):
        return 1 if self.ds.set_evil(_truthy(args[0](self))) else 0

    def _bi_change_array_length(self, args):
        previous, self.hint_mode = self.hint_mode, not self.hint_mode
        return 1 if previous else 0

    def _log_message(self, kind: str, args):
        fmt = args[0](self)
        if not isinstance(fmt, bytes):
            raise EvalError(f"{kind} format must be a string")
        self.log.append((kind, _format_message(fmt, [a(self) for a in args[1:]])))
        return 0

    def _set_byte_order(self, big: bool):
        self.big_endian = big
        return 0

    def _bi_codec_stream(self, args):
        name_expr = args[0]  # the node itself: it names the stream
        if isinstance(name_expr, ast.Ident):
            name = name_expr.name
        elif isinstance(name_expr, ast.StrLit):
            name = name_expr.value.decode("latin-1")
        else:
            raise EvalError("CodecStream stream name must be an identifier")
        codec_name = args[1](self)
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
            length = _int(args[2](self))
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


def _format_message(fmt: bytes, args: list) -> str:
    it = iter(args)
    def conversion(match) -> str:
        code = match.group(1)
        if code == "d":
            return str(next(it, "?"))
        if code == "x":
            v = next(it, 0)
            return f"{v:x}" if isinstance(v, int) else str(v)
        if code == "s":
            v = next(it, b"")
            return v.decode("latin-1") if isinstance(v, bytes) else str(v)
        return "%" if code == "%" else "%" + code
    return _CONVERSION.sub(conversion, fmt.decode("latin-1"))


def _int(value) -> int:
    if not isinstance(value, int):
        raise EvalError(f"expected an integer, got {type(value).__name__}")
    return value


def _truthy(v) -> bool:
    if not isinstance(v, (int, bytes, list)):
        raise EvalError(f"no truth value for {type(v).__name__}")
    return bool(v)


def _shift(n: int) -> int:
    if not 0 <= n < 64:
        raise EvalError(f"shift amount {n} outside [0, 63]")
    return n


# Binary operators on two ints, by how compiled code finishes them: a
# comparison gives 1 or 0, arithmetic wraps to 64 bits.  == and != also
# compare two strings.  && and || are compiled apart.
_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "&": operator.and_, "|": operator.or_, "^": operator.xor}
_OTHER = {"/": c_div, "%": c_mod, "<<": lambda a, b: wrap64(a << _shift(b)),
          ">>": lambda a, b: wrap64(a >> _shift(b))}
_UNARY = {"-": lambda v: wrap64(-v), "+": lambda v: v, "~": lambda v: wrap64(~v)}


def _binary(op: str, a, b):
    """A binary operator with its operand type checks."""
    if isinstance(a, bytes) and isinstance(b, bytes):
        if op not in ("==", "!="):
            raise EvalError(f"operator {op} not defined on strings")
    elif not isinstance(a, int) or not isinstance(b, int):
        raise EvalError(f"operator {op} on {type(a).__name__} and {type(b).__name__}")
    if op in _COMPARE:
        return 1 if _COMPARE[op](a, b) else 0
    if op in _ARITH:
        return wrap64(_ARITH[op](a, b))
    return _OTHER[op](a, b)


def _fail(cls, message: str):
    """A compiled node that raises when it runs."""
    def fail(ex):
        raise cls(message)
    return fail


def _noop(ex):
    pass


def _norm(v: int, width: int, signed: bool) -> int:
    """v as a field of this width and sign reads it back, in either byte order."""
    return decode_int(encode_int(v, width, False), signed, False)


_VARIES = object()  # what _Compiler.const returns for a value only a run knows


class _Compiler:
    """A TemplateUnit compiled into closures over an Execution.

    Each closure takes the Execution; an expression's returns its value.
    Record and function bodies are looked up by name when they run, so
    they may refer to each other and to themselves.  A run changes nothing
    compiled, so one unit's closures and choice specs serve all its runs.
    """

    def __init__(self, unit: TemplateUnit):
        self.unit = unit
        self.globals = {m.name: m.value for t in unit.typedefs.values() if t.kind == "enum"
                        for m in t.members}
        self.globals.update(CHECKSUM_CRC32=CHECKSUM_CRC32, CHECKSUM_SUM8=CHECKSUM_SUM8)
        # a global that nothing can rebind or shadow reads alike everywhere
        bound = bound_names(unit)
        self.constants = {k: v for k, v in self.globals.items() if k not in bound}
        self.records, self.functions = {}, {}  # filled after: bodies may call each other
        self.records.update((n, self.block(t.body)) for n, t in unit.typedefs.items()
                            if t.kind == "record")
        self.functions.update((n, self.block(f.body)) for n, f in unit.functions.items())
        self.toplevel = self.block(unit.toplevel)

    # -- statements -----------------------------------------------------

    def block(self, stmts):
        fns = tuple(self.stmt(s) for s in stmts)
        if len(fns) <= 1:
            return fns[0] if fns else _noop
        def block(ex):
            for fn in fns:
                fn(ex)
        return block

    def stmt(self, stmt):
        rule = _STMT_RULES.get(type(stmt))
        if rule is None:
            return _fail(EvalError, f"cannot execute {type(stmt).__name__}")
        return rule(self, stmt)

    def _local(self, stmt: ast.LocalDecl):
        name, fill = stmt.name, b"" if stmt.type_name == "string" else 0
        if stmt.array_len is None:
            if isinstance(stmt.init, list):
                return _fail(EvalError, f"brace initializer on scalar local {name!r}")
            init = (lambda ex: fill) if stmt.init is None else self.expr(stmt.init)
            def local(ex):
                value = init(ex)
                ex.scope.frame[name] = wrap64(value) if isinstance(value, int) else value
            return local
        if isinstance(stmt.init, list):
            inits = [self.expr(e) for e in stmt.init]
            def local_array(ex):
                ex.scope.frame[name] = [e(ex) for e in inits]
            return local_array
        if stmt.init is not None:
            return _fail(EvalError, f"array local {name!r} needs a brace initializer")
        length_of = (lambda ex: 0) if stmt.array_len is ast.DYNAMIC_ARRAY \
            else self.expr(stmt.array_len)
        def local_sized(ex):
            length = _int(length_of(ex))
            if length < 0:
                raise EvalError(f"negative length for local array {name!r}")
            if length > MAX_LOCAL_ARRAY:
                raise LocalArrayTooLarge(
                    f"local array {name!r} of {length} elements exceeds {MAX_LOCAL_ARRAY}")
            ex.scope.frame[name] = [fill] * length
        return local_sized

    def _assign(self, stmt: ast.Assign):
        value_of, target = self.expr(stmt.value), stmt.target
        if isinstance(target, ast.Ident):
            name = target.name
            def assign(ex):
                value = value_of(ex)
                ex.scope.assign(name, wrap64(value) if isinstance(value, int) else value)
            return assign
        if isinstance(target, ast.Index):
            seq_of, idx_of = self.expr(target.base), self.expr(target.index)
            def assign_slot(ex):
                value = value_of(ex)
                seq, idx = seq_of(ex), _int(idx_of(ex))
                if not isinstance(seq, list) or not 0 <= idx < len(seq):
                    raise EvalError("array assignment target is not a valid local array slot")
                seq[idx] = wrap64(value) if isinstance(value, int) else value
            return assign_slot
        fail = _fail(EvalError, "unsupported assignment target")
        return lambda ex: (value_of(ex), fail(ex))

    def _extend(self, stmt: ast.ArrayExtend):
        name, op, values_of = stmt.name, stmt.op, [self.expr(e) for e in stmt.values]
        def extend(ex):
            arr = ex.scope.read(name)
            if not isinstance(arr, list):
                raise EvalError(f"{op} target {name!r} is not a local array")
            values = [v(ex) for v in values_of]
            if op == "+=":
                for v in values:
                    if v not in arr:
                        arr.append(v)
            else:
                arr[:] = [x for x in arr if x not in values]
        return extend

    def _if(self, stmt: ast.If):
        test, then, other = self.test(stmt.cond), self.block(stmt.then), self.block(stmt.other)
        return lambda ex: then(ex) if test(ex) else other(ex)

    def _for(self, stmt: ast.For):
        return self._loop(_noop if stmt.init is None else self.stmt(stmt.init),
                          (lambda ex: True) if stmt.cond is None else self.test(stmt.cond),
                          _noop if stmt.step is None else self.stmt(stmt.step),
                          self.block(stmt.body))

    def _loop(self, init, test, advance, body):
        def loop(ex):
            init(ex)
            try:
                while test(ex):
                    ex.steps += 1
                    if ex.steps > MAX_STEPS:
                        raise StepBudgetExceeded(f"loops ran more than {MAX_STEPS} iterations")
                    body(ex)
                    advance(ex)
            except _BreakSignal:
                pass
        return loop

    def _switch(self, stmt: ast.Switch):
        scrutinee = self.expr(stmt.scrutinee)
        matches = [(i, self.expr(c.match)) for i, c in enumerate(stmt.cases) if c.match is not None]
        default = max((i for i, c in enumerate(stmt.cases) if c.match is None), default=None)
        bodies = [self.block(c.body) for c in stmt.cases]
        def switch(ex):
            value = scrutinee(ex)
            start = next((i for i, match in matches if match(ex) == value), default)
            if start is not None:
                try:
                    for body in bodies[start:]:
                        body(ex)
                except _BreakSignal:
                    pass
        return switch

    def _return(self, stmt: ast.Return):
        value_of = (lambda ex: 0) if stmt.value is None else self.expr(stmt.value)
        def return_(ex):
            raise _ReturnSignal(value_of(ex))
        return return_

    # -- input declarations ----------------------------------------------

    def _input(self, decl: ast.InputDecl):
        tdef, native = decl.resolved
        if tdef is not None and tdef.kind == "record":
            return self._record(decl, tdef)
        if native == "string":
            return _fail(EvalError, f"input field {decl.name!r}: string inputs are not "
                         "supported; declare a char array with an explicit length")
        if native not in NATIVE_INTS:
            return _fail(EvalError, f"cannot declare input of type {decl.type_name!r}")
        enum_cands = [m.value for m in tdef.members] if tdef is not None else None
        label = tdef.name if tdef is not None else native
        width, signed = NATIVE_INTS[native]
        if decl.array_len is None:
            return self._scalar(decl, width, signed, label,
                                self._spec(decl, width, signed, enum_cands, None))
        return self._int_array(decl, native, width, signed, label, enum_cands)

    def _spec(self, decl, width: int, signed: bool, enum_cands, elem_idx):
        """The ChoiceSpec of a field or array element, or a closure that
        builds it when it depends on the run."""
        if decl.init_list is not None:
            inits = [self.const(e) for e in decl.init_list]
            if all(type(c) is int for c in inits):
                return ChoiceSpec(width=width, candidates=[_norm(c, width, signed) for c in inits])
            inits = [self.expr(e) for e in decl.init_list]
            return lambda ex: ChoiceSpec(
                width=width, candidates=[_norm(_int(e(ex)), width, signed) for e in inits])
        mined = [_norm(v, width, signed) for v in self.unit.magic.get((decl.name, elem_idx), ())
                 if isinstance(v, int)]
        if mined or enum_cands is not None:
            return ChoiceSpec(width=width, candidates=mined or [
                _norm(c, width, signed) for c in enum_cands])
        if not decl.attrs:
            return ChoiceSpec(width=width)
        type_lo = -(1 << (8 * width - 1)) if signed else 0
        type_hi = (1 << (8 * width - 1)) - 1 if signed else (1 << (8 * width)) - 1
        lo = self.const(decl.attrs["min"]) if "min" in decl.attrs else type_lo
        hi = self.const(decl.attrs["max"]) if "max" in decl.attrs else type_hi
        if type(lo) is int and type(hi) is int and lo <= hi:
            return ChoiceSpec(width=width, bounds=(lo, hi))
        lo_of = self.expr(decl.attrs["min"]) if "min" in decl.attrs else (lambda ex: type_lo)
        hi_of = self.expr(decl.attrs["max"]) if "max" in decl.attrs else (lambda ex: type_hi)
        def bounded(ex):
            lo, hi = _int(lo_of(ex)), _int(hi_of(ex))
            if lo > hi:
                raise EvalError(f"field {decl.name!r}: min {lo} exceeds max {hi}")
            return ChoiceSpec(width=width, bounds=(lo, hi))
        return bounded

    def _scalar(self, decl, width, signed, label, spec):
        name, did, fixed = decl.name, decl.decl_id, isinstance(spec, ChoiceSpec)
        def scalar(ex):
            ex.covered.add(did)
            instance = ex.record_stack[-1]
            if name in instance.fields:
                return ex._redeclare(instance, name, spec, signed)
            node = ex._push_node(name, label)
            try:
                raw = ex._field(spec if fixed else spec(ex), signed)
            finally:
                ex._pop_node(node)
            value = int.from_bytes(raw, "big" if ex.big_endian else "little", signed=signed)
            ex._bind_field(instance, name, value, node)
        return scalar

    def _length(self, decl, width: int):
        """A closure giving an input array's length, checked against the budget."""
        if decl.array_len is ast.DYNAMIC_ARRAY:
            return _fail(EvalError, f"input array {decl.name!r} needs an explicit length")
        name, width, length_of = decl.name, max(width, 1), self.expr(decl.array_len)
        def length(ex):
            n = _int(length_of(ex))
            remaining = ex.buf.budget - ex.buf.position
            if n < 0 or n * width > remaining:
                if ex.gen and ex.hint_mode:
                    return ex.ds.draw_raw(1)[0] % HINT_LENGTH_MOD
                raise BudgetExceeded(
                    f"array {name}[{n}] does not fit the remaining {remaining} byte(s)")
            return n
        return length

    def _int_array(self, decl, native, width, signed, label, enum_cands):
        """An integer array, element by element unless one choice decides a
        char array whole (string initializers, or mined strings of its
        length).  One spec serves every element unless some element has
        its own mined magic.  An unconstrained one-byte array with no
        reservation over its span is decided in one stream call.  A
        repeated declaration (loop body) starts a fresh instance."""
        name, did, is_char = decl.name, decl.decl_id, native == "char"
        length_of = self._length(decl, width)
        spec = self._spec(decl, width, signed, enum_cands, -1)
        per_index = {i: self._spec(decl, width, signed, enum_cands, i)
                     for n, i in self.unit.magic if n == name and i is not None}
        shared = not per_index and decl.init_list is None
        inits = [self.expr(e) for e in decl.init_list or ()]
        mined: dict[int, ChoiceSpec] = {}  # by length
        for v in self.unit.magic.get((name, None), ()):
            if isinstance(v, bytes):
                mined.setdefault(len(v), ChoiceSpec(width=len(v), candidates=[])).candidates += [v]
        def whole(ex, length):
            if decl.init_list is None:
                return mined.get(length)
            cands = [e(ex) for e in inits]
            if not all(isinstance(c, bytes) for c in cands):
                return None
            bad = [c for c in cands if len(c) != length]
            if bad:
                raise EvalError(f"initializer for {name!r} has length {len(bad[0])}, "
                                f"array holds {length}")
            return ChoiceSpec(width=length, candidates=cands)
        def elements(ex, length):
            spec0 = (spec if isinstance(spec, ChoiceSpec) else spec(ex)) if shared else None
            buf, pos0 = ex.buf, ex.buf.position
            if (width == 1 and spec0 is not None and not spec0.candidates
                    and spec0.bounds is None and not buf.reserved_offsets(pos0, pos0 + length)):
                if ex.gen:
                    raw = ex.ds.choose_bytes(length)
                    buf.write(raw)
                else:
                    raw = buf.read(length)
                    ex.ds.emit_bytes(raw, signed)
                return raw if is_char else memoryview(raw).cast("b" if signed else "B").tolist()
            raws, elems = bytearray(), []
            for i in range(length):
                s = spec0 or per_index.get(i, spec)
                raw = ex._field(s if isinstance(s, ChoiceSpec) else s(ex), signed)
                raws += raw
                elems.append(decode_int(raw, signed, ex.big_endian))
            return bytes(raws) if is_char else elems
        def int_array(ex):
            ex.covered.add(did)
            instance = ex.record_stack[-1]
            length = length_of(ex)
            node = ex._push_node(name, f"{label}[{length}]")
            try:
                at_once = whole(ex, length) if is_char else None
                value = elements(ex, length) if at_once is None else ex._field(at_once, None)
            finally:
                ex._pop_node(node)
            ex._bind_field(instance, name, value, node)
        return int_array

    def _record(self, decl: ast.InputDecl, tdef):
        # repeated declarations of one record name (chunk loops) each
        # produce a fresh instance; bindings track the newest one
        if decl.init_list is not None or decl.attrs:
            return _fail(EvalError, f"record field {decl.name!r} takes no initializer or bounds")
        name, did, tname, bodies = decl.name, decl.decl_id, tdef.name, self.records
        params, args_of = [p for p, _ in tdef.params], [self.expr(a) for a in decl.args]
        length_of = None if decl.array_len is None else self._length(decl, 1)
        def instantiate(ex) -> tuple[RecordVal, ParseNode]:
            args = [a(ex) for a in args_of]
            frame = ex.scope.push_activation()
            node = ex._push_node(name, tname)
            if args:  # a snapshot: local arrays may change after the call
                node.args = tuple(tuple(a) if isinstance(a, list) else a for a in args)
            rec = RecordVal(tname)
            ex.record_stack.append(rec)
            try:
                for pname, value in zip(params, args):
                    frame[pname] = wrap64(value) if isinstance(value, int) else value
                bodies[tname](ex)
            finally:
                ex.scope.pop_activation()
                ex.record_stack.pop()
                ex._pop_node(node)
            return rec, node
        def record(ex):
            ex.covered.add(did)
            instance = ex.record_stack[-1]
            if length_of is None:
                value, node = instantiate(ex)
            else:
                value, node = [], None
                for _ in range(length_of(ex)):
                    rec, node = instantiate(ex)
                    value.append(rec)
            ex._bind_field(instance, name, value, node)
        return record

    # -- expressions ------------------------------------------------------

    def const(self, expr):
        """The value expr has in every run, or _VARIES."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StrLit)):
            return expr.value
        if isinstance(expr, ast.Ident):
            return self.constants.get(expr.name, _VARIES)
        return _VARIES

    def expr(self, expr):
        rule = _EXPR_RULES.get(type(expr))
        if rule is None:
            return _fail(EvalError, f"cannot evaluate {type(expr).__name__}")
        return rule(self, expr)

    def test(self, expr):
        """A closure whose Python truth is expr's truth in the template."""
        fn = self.expr(expr)
        return fn if isinstance(expr, ast.Binary) else lambda ex: _truthy(fn(ex))  # Binary: ints

    def _constant(self, expr):
        value = self.const(expr)
        return lambda ex: value

    def _ident(self, expr: ast.Ident):
        name = expr.name
        if name in self.constants:
            return self._constant(expr)
        def ident(ex):
            try:
                return ex.scope.frame[name]
            except KeyError:
                return ex.scope.read(name)
        return ident

    def _member(self, expr: ast.Member):
        obj_of, name = self.expr(expr.obj), expr.name
        def member(ex):
            obj = obj_of(ex)
            if isinstance(obj, RecordVal):
                try:
                    return obj.fields[name]
                except KeyError:
                    raise InvalidFieldAccess(
                        f"record {obj.type_name} has no field {name!r}") from None
            raise EvalError(f"member access on non-record value {type(obj).__name__}")
        return member

    def _index(self, expr: ast.Index):
        base_of, idx_of = self.expr(expr.base), self.expr(expr.index)
        def index(ex):
            base, idx = base_of(ex), _int(idx_of(ex))
            if isinstance(base, (list, bytes, bytearray)):
                if not 0 <= idx < len(base):
                    raise InvalidFieldAccess(f"index {idx} outside array of {len(base)}")
                v = base[idx]  # bytes hold chars, and char is signed
                return v if isinstance(base, list) or v < 0x80 else v - 256
            raise EvalError(f"indexing non-array value {type(base).__name__}")
        return index

    def _unary(self, expr: ast.Unary):
        op = expr.op
        if op == "!":
            test = self.test(expr.operand)
            return lambda ex: 0 if test(ex) else 1
        operand, fn = self.expr(expr.operand), _UNARY.get(op)
        if fn is None:
            return _fail(EvalError, f"unknown unary operator {op}")
        def unary(ex):
            v = operand(ex)
            if not isinstance(v, int):
                raise EvalError(f"unary {op} on {type(v).__name__}")
            return fn(v)
        return unary

    def _binary(self, expr: ast.Binary):
        op = expr.op
        if op in ("&&", "||"):
            left, right = self.test(expr.left), self.test(expr.right)
            if op == "&&":
                return lambda ex: 1 if left(ex) and right(ex) else 0
            return lambda ex: 1 if left(ex) or right(ex) else 0
        left, right = self.expr(expr.left), self.expr(expr.right)
        compare, arith = _COMPARE.get(op), _ARITH.get(op)
        fast = (int, bytes) if op in ("==", "!=") else (int,)
        if compare is not None:
            def compare_(ex):
                a, b = left(ex), right(ex)
                if type(a) is type(b) and type(a) in fast:
                    return 1 if compare(a, b) else 0
                return _binary(op, a, b)
            return compare_
        if arith is not None:
            def arith_(ex):
                a, b = left(ex), right(ex)
                if type(a) is int and type(b) is int:
                    return ((arith(a, b) + _SIGN) & _U64) - _SIGN  # wrap64, inline
                return _binary(op, a, b)
            return arith_
        return lambda ex: _binary(op, left(ex), right(ex))

    def _ternary(self, expr: ast.Ternary):
        test, then, other = self.test(expr.cond), self.expr(expr.then), self.expr(expr.other)
        return lambda ex: then(ex) if test(ex) else other(ex)

    def _postfix(self, expr: ast.Postfix):
        op, target = expr.op, expr.target
        delta = 1 if op == "++" else -1
        if isinstance(target, ast.Ident):
            name = target.name
            def postfix(ex):
                old = ex.scope.read(name)
                if not isinstance(old, int):
                    raise EvalError(f"{op} on non-integer {name!r}")
                ex.scope.assign(name, wrap64(old + delta))
                return old
            return postfix
        if isinstance(target, ast.Index):
            seq_of, idx_of = self.expr(target.base), self.expr(target.index)
            def postfix_slot(ex):
                seq, idx = seq_of(ex), _int(idx_of(ex))
                if not isinstance(seq, list) or not 0 <= idx < len(seq):
                    raise EvalError(f"{op} target is not a valid array slot")
                old = seq[idx]
                seq[idx] = wrap64(old + delta)
                return old
            return postfix_slot
        return _fail(EvalError, f"{op} needs a variable or array element")

    def _call(self, expr: ast.Call):
        name = expr.name
        if name in _BUILTINS:
            builtin, args = _BUILTINS[name], [self.expr(a) for a in expr.args]
            if name in ("ReadBytes", "CodecStream"):
                args[0] = expr.args[0]  # a name, not a value
            return lambda ex: builtin(ex, args)
        fdef = self.unit.functions.get(name)
        if fdef is None:
            return _fail(EvalError, f"unknown function {name!r}")
        params, bodies = [p for p, _ in fdef.params], self.functions
        args_of = [self.expr(a) for a in expr.args]
        def call(ex):
            args = [a(ex) for a in args_of]
            frame = ex.scope.push_activation()
            try:
                for pname, value in zip(params, args):
                    frame[pname] = value
                try:
                    bodies[name](ex)
                except _ReturnSignal as sig:
                    return sig.args[0]
                return 0
            finally:
                ex.scope.pop_activation()
        return call


# How each statement and expression node class compiles, and what runs
# each builtin the analyzer accepts.
_STMT_RULES = {
    ast.InputDecl: _Compiler._input,
    ast.LocalDecl: _Compiler._local,
    ast.Assign: _Compiler._assign,
    ast.ArrayExtend: _Compiler._extend,
    ast.If: _Compiler._if,
    ast.While: lambda self, stmt: self._loop(_noop, self.test(stmt.cond), _noop,
                                             self.block(stmt.body)),
    ast.For: _Compiler._for,
    ast.Switch: _Compiler._switch,
    ast.Break: lambda self, stmt: _fail(_BreakSignal, "break"),
    ast.Return: _Compiler._return,
    ast.ExprStmt: lambda self, stmt: self.expr(stmt.expr),
    ast.BlockStmt: lambda self, stmt: self.block(stmt.body),
}

_EXPR_RULES = {
    **dict.fromkeys((ast.IntLit, ast.FloatLit, ast.StrLit), _Compiler._constant),
    ast.Ident: _Compiler._ident,
    ast.Member: _Compiler._member,
    ast.Index: _Compiler._index,
    ast.Call: _Compiler._call,
    ast.Unary: _Compiler._unary,
    ast.Binary: _Compiler._binary,
    ast.Ternary: _Compiler._ternary,
    ast.Postfix: _Compiler._postfix,
}

_BUILTINS = {
    "FTell": lambda ex, args: ex.buf.position,
    "FSeek": Execution._bi_fseek,
    "FEof": Execution._bi_feof,
    "FileSize": lambda ex, args: ex.buf.high_water if ex.gen else ex.buf.size,
    "ReadByte": Execution._bi_read_byte,
    "ReadBytes": Execution._bi_read_bytes,
    "Checksum": Execution._bi_checksum,
    "SetEvilBit": Execution._bi_set_evil,
    "ChangeArrayLength": Execution._bi_change_array_length,
    "Warning": lambda ex, args: ex._log_message("warning", args),
    "Printf": lambda ex, args: ex._log_message("printf", args),
    "BigEndian": lambda ex, args: ex._set_byte_order(True),
    "LittleEndian": lambda ex, args: ex._set_byte_order(False),
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
    return GenResult(data, ex.root, ds.seed, ex.events, ex.covered, ex.log)


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
    return ParseOutcome(ex.root, ds.seed, ex.events, ex.covered, ex.log)


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
    return GenResult(data, ex.root, ds.seed, ex.events, ex.covered, ex.log)
