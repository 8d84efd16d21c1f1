"""Dual-mode template evaluator.

Each TemplateUnit compiles into up to four Python programs, each on its
first run: one function per record body and per user function, and one
for the top level, registered with linecache so tracebacks show it.
Control flow becomes Python statements, each input declaration's work
runs inline, and what the template fixes statically is bound in then:
literal operands, each field's stream call and its constant arguments,
native widths and signs.  A run calls a compiled top level on an
Execution, which holds the run's state; an activation's state is its
compiled function's arguments.

Every program runs one direction, fixed when it is compiled.  A generate
program turns each input declaration's decisions into file bytes; a
parse program consumes file bytes and emits the canonical decision
encoding.  Both compile from the same template into the same control
flow, which is what keeps generation and parsing synchronized.  Each
direction has a tree program, which builds the parse tree, lookahead
events and coverage, and a lean one for callers that read only the file
and seed: it builds none of them, but the lean generate program numbers
the nodes it does not build as the tree program does, so a splice finds
its record.  A lean program gives the tree program's file, seed and log,
or its error.  The entry points run a lean program unless passed
tree=True; `unit.programs` holds what has been compiled, by (gen, tree).
"""

from __future__ import annotations

import itertools
import linecache
import operator
import random
import re
import weakref
import zlib
from dataclasses import dataclass
from functools import partial

from .decisionstream import ChoiceSpec, DecisionStream, RandomSource, SeedSource, _Splice
from .errors import (
    BudgetExceeded, ChecksumAlgoUnknown, DecodeError, EvalError, GenerationFailed,
    InvalidFieldAccess, LocalArrayTooLarge, OutOfRange, ParseRejected, RecursionTooDeep,
    SeedExhausted, SpliceMisaligned, StepBudgetExceeded, TemplateAbort, TrailingBytes,
    UnrepresentableValue)
from .formats.zstream import StoredZlibCodec
from .runtime import DEFAULT_BUDGET, MAX_DEPTH, FileBuffer, ParseNode, RecordVal
from .templatelang import NATIVE_INTS, TemplateUnit, scoping
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


# The codecs a CodecStream names, by name.  Each has encode(raw) -> bytes
# and decode(container) -> bytes, which raises DecodeError on bad input.
CODECS = {StoredZlibCodec.name: StoredZlibCodec}

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
    """What a run returns in either direction: the file it generated or
    parsed, its parse tree, and the seed it consumed or emitted.  Only a
    tree run (tree=True) has a tree; a lean run's is None, and it has no
    events or coverage."""

    file: bytes
    tree: ParseNode | None
    seed: bytes
    events: list[ChoiceEvent]  # lookaheads
    covered: set[int]
    log: list[tuple[str, str]]

    def __iter__(self):
        return iter((self.file, self.tree, self.seed))


def compiled(unit: TemplateUnit, gen: bool, tree: bool = False) -> _Compiler:
    """unit's generate (gen) or parse program, its tree program if tree
    else its lean one, compiled on its first use."""
    if (program := unit.programs.get((gen, tree))) is None:
        program = unit.programs[gen, tree] = _Compiler(unit, gen, tree)
    return program


class Execution:
    """One run over a compiled template: of the tree or the lean program of
    its direction; a lean one builds no parse tree, events or coverage.  A
    stream with a source generates; one without parses."""

    def __init__(self, unit: TemplateUnit, ds: DecisionStream, buf: FileBuffer,
                 splice: _Splice | None = None, tree: bool = False):
        self.gen = ds.source is not None
        self.program = compiled(unit, self.gen, tree)
        self.ds, self.buf = ds, buf
        self.order, self.hint_mode = "little", False  # byte order of integer fields
        self.steps = 0  # loop iterations so far
        self.covered: set[int] = set()
        self.log: list[tuple[str, str]] = []
        self.events: list[ChoiceEvent] = []
        self.root = ParseNode(0, "<file>", unit.source_name) if tree else None
        self.ids = itertools.count(1)  # of the parse tree's nodes after the root
        self.node_stack = [self.root]
        self.splice = splice
        self.splice_id = -1 if splice is None else splice.node_id  # -1 matches no node

    def run(self) -> GenResult:
        """Execute the template; what the run generated or parsed."""
        try:
            code = self.program.toplevel(self, RecordVal("<toplevel>"), 0,
                                         (dict(self.program.globals), None))
        except _ReturnSignal as sig:  # from a record body or a split-off block
            code = sig.args[0]
        except _BreakSignal:
            raise EvalError("break outside of a loop or switch")
        except RecursionError:
            raise RecursionTooDeep("template recursion exceeds the interpreter stack") from None
        if isinstance(code, int) and code < 0:
            if self.gen:
                raise TemplateAbort(code)
            raise ParseRejected(f"template rejected the input with return code {code}")
        buf = self.buf
        if not self.gen and buf.position < len(buf.data):
            raise TrailingBytes(buf.position, len(buf.data))
        data = buf.finalize()
        if self.root is not None:
            self.root.file_end, self.root.seed_end = len(data), self.ds.cursor
        return GenResult(data, self.root, self.ds.seed, self.events, self.covered, self.log)

    # -- what compiled code calls outside its inline field path -----------

    def _put(self, raw, width: int) -> bytes:
        """Write a drawn value (an int, encoded at width) or file bytes; gives the bytes."""
        if isinstance(raw, int):
            raw = (raw % 256 ** width).to_bytes(width, self.order)  # as C stores it
        self.buf.write(raw)
        return raw

    # -- builtins: each takes its evaluated arguments ----------------------

    def _feof(self):
        if not self.gen:
            eof = self.buf.position >= len(self.buf.data)
            self.ds.emit_index(FEOF_STOP_K, 0 if eof else 1)
            return 1 if eof else 0
        if self.buf.budget - self.buf.position < 1:
            return 1
        return 1 if self.ds.choose_index(FEOF_STOP_K) == 0 else 0

    def _read_byte(self, pos: int, choices):
        if choices is not None and not isinstance(choices, list):
            raise EvalError("ReadByte choices must be a local array")
        if choices and not all(isinstance(c, int) for c in choices):
            raise EvalError("ReadByte choices must be integers")
        cands = [c & 0xFF for c in choices] if choices else None
        start = None if self.root is None else self.ds.cursor  # a lean run logs no lookahead
        # a reserved byte is taken as it is and costs no decision
        token = self.buf.reserved_block(pos, 1)
        if token is None:
            ds = self.ds
            if self.gen:
                token = ds.pick(cands, 1) if cands else ds.plain(1)
                token = token if isinstance(token, bytes) else bytes((token,))
            else:
                if (token := self.buf.peek(pos, 1)) is None:
                    raise OutOfRange(f"lookahead at {pos} is past the end of input")
                ds.emit_pick(token[0], token, cands) if cands else ds.emit_plain(token[0], token)
            self.buf.reserve(pos, token)
        if start is not None:  # a tree run's lookahead, whose decisions began at start
            self.events.append(ChoiceEvent(start, self.ds.cursor, self.node_stack[-1].id, token,
                                           ChoiceSpec(width=1, candidates=cands)))
        return token[0]

    def _read_bytes(self, pos: int, length: int, preferred, possible, prob, known=False):
        """The token a ReadBytes lookahead reserved at pos, or None; known if
        the compiler checked prob."""
        if not isinstance(preferred, list) or not isinstance(possible, list):
            raise EvalError("ReadBytes preferred/possible must be local arrays")
        if not known and (not isinstance(prob, _REAL) or not 0 <= prob <= 1):
            raise EvalError("ReadBytes probability must be a number in [0, 1]")
        start = None if self.root is None else self.ds.cursor
        if self.gen:
            token = self.ds.choose_token(length, preferred, possible, prob)
        else:
            token = self.ds.emit_token(preferred, possible, prob, self.buf.peek(pos, length))
        if start is not None:  # the event keeps copies: the arrays may change
            self.events.append(ChoiceEvent(start, self.ds.cursor, self.node_stack[-1].id, token,
                                           ChoiceSpec(width=length, preferred=list(preferred),
                                                      possible=list(possible),
                                                      pref_prob=float(prob))))
        if token is not None:
            if len(token) != length:
                raise EvalError(f"token {token!r} does not have width {length}")
            self.buf.reserve(pos, token)
        return token

    def _checksum(self, algo: int, start: int, size: int):
        if size < 0 or start < 0:
            raise EvalError(f"checksum over invalid range [{start}, {start}+{size})")
        if start + size > len(data := self.buf.data):
            raise EvalError(f"checksum range [{start}, {start + size}) is not materialized")
        region = data[start:start + size]
        if algo == CHECKSUM_CRC32:
            return crc32(region)
        if algo == CHECKSUM_SUM8:
            return sum8(region)
        raise ChecksumAlgoUnknown(f"checksum algorithm {algo} not implemented")

    def _change_array_length(self):
        previous, self.hint_mode = self.hint_mode, not self.hint_mode
        return 1 if previous else 0

    def _log_message(self, kind: str, fmt):
        """Check a Warning or Printf format, before its arguments run; gives
        what logs the message with them."""
        if not isinstance(fmt, bytes):
            raise EvalError(f"{kind} format must be a string")
        return lambda args: self.log.append((kind, _format_message(fmt, args))) or 0

    def _codec_stream(self, name: str, codec, length: int | None):
        """A codec stream's body, inside its node; length is given when parsing."""
        if self.gen:
            raw_len = self.ds.choose_bounded(0, CODEC_RAW_MAX)
            raw = self.ds.draw_raw(raw_len) if raw_len else b""
            body = codec.encode(raw)
            self.buf.write(body)
            return len(body)
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


# --- what compiled code calls: checks and the operators' slow paths ---------


def _fail(cls, message: str):
    raise cls(message)


def _read_var(env, name: str):
    """name's value in the innermost frame that binds it.  env is the frame
    chain, innermost first, as (frame, outer) pairs that end in None."""
    while env is not None:
        frame, env = env
        if name in frame:
            return frame[name]
    raise EvalError(f"undefined variable {name!r}")


def _assign_var(env, name: str, value):
    """Rebind name in the innermost frame that binds it."""
    while env is not None:
        frame, env = env
        if name in frame:
            frame[name] = value
            return
    raise EvalError(f"assignment to undefined variable {name!r}")


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
_INT_OR_BYTES = (int, bytes)  # the operand types == and != take
_REAL = (int, float)


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


def _member(obj, name: str):
    if isinstance(obj, RecordVal):
        try:
            return obj.fields[name]
        except KeyError:
            raise InvalidFieldAccess(f"record {obj.type_name} has no field {name!r}") from None
    raise EvalError(f"member access on non-record value {type(obj).__name__}")


def _index(base, idx):
    idx = _int(idx)
    if isinstance(base, (list, bytes, bytearray)):
        if not 0 <= idx < len(base):
            raise InvalidFieldAccess(f"index {idx} outside array of {len(base)}")
        v = base[idx]  # bytes hold chars, and char is signed
        return v if isinstance(base, list) or v < 0x80 else v - 256
    raise EvalError(f"indexing non-array value {type(base).__name__}")


def _postfix_slot(seq, idx, delta: int, op: str):
    idx = _int(idx)
    if not isinstance(seq, list) or not 0 <= idx < len(seq):
        raise EvalError(f"{op} target is not a valid array slot")
    old, seq[idx] = seq[idx], wrap64(seq[idx] + delta)
    return old


def _whole(name: str, length: int, cands: list) -> list | None:
    """The strings that decide a char array with string initializers whole."""
    if not all(isinstance(c, bytes) for c in cands):
        return None
    bad = [c for c in cands if len(c) != length]
    if bad:
        raise EvalError(f"initializer for {name!r} has length {len(bad[0])}, "
                        f"array holds {length}")
    return cands


def _norm(v: int, width: int, signed: bool) -> int:
    """v as a field of this width and sign reads it back, in either byte order."""
    v &= (1 << (8 * width)) - 1
    return v - (1 << (8 * width)) if signed and v >> (8 * width - 1) else v


_VARIES = object()  # what _Compiler.const returns for a value only a run knows
_EMIT = {"plain": "emit_plain", "bounded": "emit_within", "pick": "emit_pick",
         "forced": "emit_forced"}  # the inverse of each kind of stream call
_WRAP = f"(((({{}}) + {_SIGN}) & {_U64}) - {_SIGN})"  # wrap64, as source

# Locals a compiled function sets up when its source holds their key, in
# this order; each may use the ones before it.  The innermost frame, fr,
# is keyed on a store into it, which no other source spells.
_LOCALS = {"fr[": "fr = env[0]", "buf": "buf = ex.buf", "ds": "ds = ex.ds",
           "sd": "sd = ds._recorded",  # a parse's seed so far: its length is ds.cursor
           "stack": "stack = ex.node_stack", "cov": "cov = ex.covered"}
_NEEDS = {"sd": "ds"}

# What a record or function body runs first: the depth bound, then its own
# frame, which goes when the body returns or raises.
_ACTIVATE = [f"if d > {MAX_DEPTH}: _fail(RecursionTooDeep, "
             f"{f'records and functions nested deeper than {MAX_DEPTH}'!r})", "env = {}, env"]


# Source that opens a parse tree node, as {0}, with name {1} and type {2};
# and source that closes the innermost node, {0}.  {3} is the seed's length.
_PUSH = """{0} = ParseNode(next(ex.ids), {1}, {2}, buf.position, {3})
if ex.events and (lead := ex.events[-1]).end == {0}.seed_start: {0}.lead = lead
stack[-1].children.append({0})
stack.append({0})"""
_POP = """{0}.file_end, {0}.seed_end = buf.position, {1}
stack.pop()"""


def _forget_lines(filename: str, entry):
    if linecache.cache.get(filename) is entry:
        del linecache.cache[filename]


def _indent(lines, depth: int = 1) -> list[str]:
    return ["    " * depth + one for line in lines for one in line.split("\n")]


class _Compiler:
    """A TemplateUnit compiled into Python source, and its functions: one
    per record body (r<i>), user function (f<i>), block or expression too
    deep for one function and codec stream call (s<i>), and `toplevel`.
    Each takes the Execution and the activation's state: the record that
    input declarations write to (rec, a record body's own), the depth (d)
    and the frame chain (env).  A name that dynamic scope cannot reach
    (scoping()) is a Python local (l<i>), else it lives in a frame dict.
    Template text enters the source only as repr() of a name or literal,
    or as a named constant (c<i>).  Records and functions are called by
    generated names, so they may call each other and themselves.  A run
    changes nothing compiled: one program serves all runs.

    Every program runs one direction: it generates if gen, else it parses.
    A tree program builds the parse tree, the lookahead events and the
    coverage.  A lean one opens no node, but the lean generate program
    takes each node's id from ex.ids, so a splice opens at the record the
    tree program gave that id; a parse never splices.
    """

    def __init__(self, unit: TemplateUnit, gen: bool, tree: bool):
        self.unit, self.gen, self.tree = unit, gen, tree
        self.cursor = "ds.cursor" if gen else "len(sd)"  # the seed's length, as source
        if unit.analysis is None:  # the same for all four programs
            names = {m.name: m.value for t in unit.typedefs.values() if t.kind == "enum"
                     for m in t.members}
            names.update(CHECKSUM_CRC32=CHECKSUM_CRC32, CHECKSUM_SUM8=CHECKSUM_SUM8)
            unit.analysis = names, scoping(unit, names)
        self.globals, self.scoping = unit.analysis
        # the constants the source names, its functions, temporaries, expression depth
        self.names, self.defs, self.count, self.nesting = {}, [], 0, 0
        records = [t for t in unit.typedefs.values() if t.kind == "record"]
        self.records = {t.name: f"r{i}" for i, t in enumerate(records)}
        self.functions = {n: f"f{i}" for i, n in enumerate(unit.functions)}
        for t in records:
            self._scoped(t.name, self._record_body, t)
        for name, fdef in unit.functions.items():
            self._scoped(name, self._function_body, name, fdef)
        self._scoped(None, lambda: self._define("def toplevel(ex, rec, d, env):",
                                                self.body(unit.toplevel, 0)))
        self.source = source = "\n".join(self.defs) + "\n"
        stem = f"<btfuzz:{unit.source_name}" + (("" if gen else ":parse") if tree
                                                 else ":lean" if gen else ":lean-parse")
        filename, n = stem + ">", 1
        while filename in linecache.cache:  # another live program's
            n += 1
            filename = f"{stem}#{n}>"
        entry = linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        weakref.finalize(self, _forget_lines, filename, entry)
        namespace, offset = dict(globals(), **self.names), ""
        for text in self.defs:  # one function at a time bounds the compiler's memory
            exec(compile(offset + text, filename, "exec"), namespace)
            offset += "\n" * (text.count("\n") + 1)
        self.toplevel = namespace["toplevel"]
        del self.defs, self.lines  # the source's other copies: nothing reads them now

    # -- functions --------------------------------------------------------

    def _define(self, header: str, lines: list[str], opening=()):
        """Add a function: header, opening, the _LOCALS its lines name, then lines."""
        text = "\n".join(lines)
        # maybe one too many; a lean program never names stack or cov
        used = {n for n in _LOCALS if n in text and (self.tree or n not in ("stack", "cov"))}
        used |= {_NEEDS[n] for n in used if n in _NEEDS}
        self.defs.append("\n".join([header, *_indent([*opening, *(v for n, v in _LOCALS.items()
                                                                   if n in used), *lines])]))

    def _deferred(self, lines: list[str], params: str = "") -> str:
        """A function of the activation's state (and params), run where it is called."""
        name = f"s{len(self.defs)}"
        self._define(f"def {name}(ex, rec, d, env{params}):", lines)
        self.clash.update(n for n, s in self.slots.items() if re.search(rf"\b{s}\b", self.defs[-1]))
        return name

    def _scoped(self, key, define, *args):
        """define(*args) adds body key's function, in which each name that
        scoping() keeps is a Python local (l<i>); again without those that
        an s<i> function names, since it cannot see them."""
        kept, defs, names = self.scoping.kept[key], len(self.defs), list(self.names)
        self.typed = partial(self.scoping.typed, body=key)
        while True:
            self.slots, self.clash = {n: f"l{i}" for i, n in enumerate(kept)}, set()
            define(*args)
            if not self.clash:
                return
            kept = [n for n in kept if n not in self.clash]
            del self.defs[defs:]
            self.names = {n: self.names[n] for n in names}

    def _slot(self, name: str) -> str:
        """Where a declaration stores name: its Python local, if scoping()
        keeps it, else the frame.  A use reads the local (self.slots) alike:
        a declaration covers each use of a kept name."""
        return self.slots.get(name) or f"fr[{name!r}]"

    def _store(self, name: str, value: str) -> str:
        """Source storing value in name's Python local, or in the frames."""
        slot = self.slots.get(name)
        return f"({slot} := {value})" if slot else f"_assign_var(env, {name!r}, {value})"

    def _record_body(self, tdef):
        params = [p for p, _ in tdef.params]
        binds = [f"{self._slot(p)} = {self.stored(f'args[{i}]', 0)}" for i, p in enumerate(params)]
        rid = "rn.id" if self.tree else "rn"
        # a splice opens and closes at a record; a parse never splices
        begin, end = ([f"if {rid} == ex.splice_id: ex.splice.{step}()"] if self.gen else []
                      for step in ("begin_alt", "end_alt"))
        close = [*self._shut("rn"), *end]  # what runs however the body ends
        body = self.body(tdef.body, 1 if close else 0, True)
        lines = [*self._open("rn", "name", repr(tdef.name)), *begin,
                 *(["rn.args = tuple(tuple(a) if isinstance(a, list) else a for a in args)"]
                   if params and self.tree else []),  # a snapshot: local arrays may change
                 f"rec = RecordVal({tdef.name!r})",
                 *(["try:", *_indent(binds), *body, "finally:", *_indent(close)] if close
                   else binds + body),
                 "return rec"]
        self._define(f"def {self.records[tdef.name]}(ex, d, env, name, args):", lines, _ACTIVATE)

    def _function_body(self, name: str, fdef):
        params = [p for p, _ in fdef.params]
        lines = ["try:", *_indent(f"{self._slot(p)} = args[{i}]" for i, p in enumerate(params)),
                 *self.body(fdef.body, 1), "    return 0", "except _ReturnSignal as sig:",
                 "    return sig.args[0]"]
        self._define(f"def {self.functions[name]}(ex, rec, d, env, *args):", lines, _ACTIVATE)

    def ref(self, value) -> str:
        """The name under which the source refers to a constant."""
        self.names[name := f"c{len(self.names)}"] = value
        return name

    def temp(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def _open(self, var: str, name: str, type_name: str) -> list[str]:
        """Source that opens a node as var; the lean generate program only
        takes its id, which a splice reads, and the lean parse one nothing."""
        if self.tree:
            return [_PUSH.format(var, name, type_name, self.cursor)]
        return [f"{var} = next(ex.ids)"] if self.gen else []

    def _shut(self, var: str) -> list[str]:
        return [_POP.format(var, self.cursor)] if self.tree else []

    def _cover(self, decl):
        if self.tree:
            self.put(f"cov.add({decl.decl_id})")

    # -- statements -----------------------------------------------------

    def body(self, stmts, depth: int, in_record: bool = False) -> list[str]:
        """The source of a function body's statements, at this depth."""
        self.lines, self.depth, self.loops, self.in_record = [], depth - 1, 0, in_record
        self.block(stmts)
        return self.lines

    def put(self, *lines: str):
        self.lines += _indent(lines, self.depth)

    def block(self, stmts):
        """Statements one level in; `pass` if they emit nothing.  Deep ones
        are a function of their own: Python nests only 20 blocks in one."""
        self.depth += 1
        before = len(self.lines)
        if self.depth > 12 and stmts:
            state = self.lines, self.depth, self.loops, self.in_record
            # break and return raise out of it
            call = self._deferred(self.body(stmts, 0, True)) + "(ex, rec, d, env)"
            self.lines, self.depth, self.loops, self.in_record = state
            self.put(call)
        else:
            for stmt in stmts:
                self.stmt(stmt)
        if len(self.lines) == before:
            self.put("pass")
        self.depth -= 1

    def stmt(self, stmt):
        _STMT_RULES[type(stmt)](self, stmt)

    def _local(self, stmt: ast.LocalDecl):
        name, fill = repr(stmt.name), b"" if stmt.type_name == "string" else 0
        if stmt.array_len is None:
            if isinstance(stmt.init, list):
                return self.fail(f"brace initializer on scalar local {stmt.name!r}")
            value = repr(fill) if stmt.init is None else self.stored(self.expr(stmt.init),
                                                                  self.typed(stmt.init))
        elif isinstance(stmt.init, list):
            value = f"[{', '.join(self.expr(e) for e in stmt.init)}]"
        elif stmt.init is not None:
            return self.fail(f"array local {stmt.name!r} needs a brace initializer")
        else:
            n, what = self.temp(), f"local array {stmt.name!r}"
            big = f"{what} of %s elements exceeds {MAX_LOCAL_ARRAY}"
            self.put(f"{n} = " + ("0" if stmt.array_len is ast.DYNAMIC_ARRAY
                                  else self.integer(stmt.array_len)),
                     f"if {n} < 0: _fail(EvalError, {'negative length for ' + what!r})",
                     f"if {n} > {MAX_LOCAL_ARRAY}: _fail(LocalArrayTooLarge, {big!r} % {n})")
            value = f"[{fill!r}] * {n}"
        self.put(f"{self._slot(stmt.name)} = {value}")

    def _assign(self, stmt: ast.Assign):
        value, target = self.expr(stmt.value), stmt.target
        if isinstance(target, ast.Ident):
            self.put(self._store(target.name, self.stored(value, self.typed(stmt.value))))
        elif isinstance(target, ast.Index):
            v, seq, i = self.temp(), self.temp(), self.temp()
            self.put(f"{v}, {seq} = {value}, {self.expr(target.base)}",
                     f"{i} = {self.integer(target.index)}",
                     f"if not isinstance({seq}, list) or not 0 <= {i} < len({seq}): _fail("
                     "EvalError, 'array assignment target is not a valid local array slot')",
                     f"{seq}[{i}] = {self.stored(v, 0)}")
        else:
            self.put(value)
            self.fail("unsupported assignment target")

    def _extend(self, stmt: ast.ArrayExtend):
        arr, values = self.slots.get(stmt.name), ", ".join(self.expr(e) for e in stmt.values)
        read = arr or f"{(arr := self.temp())} := _read_var(env, {stmt.name!r})"
        self.put(f"if not isinstance({read}, list): _fail(EvalError, "
                 f"{f'{stmt.op} target {stmt.name!r} is not a local array'!r})",
                 f"for v in [{values}]:", f"    while v in {arr}: {arr}.remove(v)"
                 if stmt.op == "-=" else f"    if v not in {arr}: {arr}.append(v)")

    def _if(self, stmt: ast.If):
        word = "if"
        for arm in stmt.arms:
            self.put("else:" if arm.match is None else f"{word} {self.test(arm.match)}:")
            self.block(arm.body)
            word = "elif"

    def _while(self, stmt: ast.While):
        """A loop; a break in a record or function it calls ends it too."""
        cond = "True" if stmt.cond is None else self.test(stmt.cond)
        self.put("try:", f"    while {cond}:", "        ex.steps += 1", "        if ex.steps > "
                 f"{MAX_STEPS}: _fail(StepBudgetExceeded, "
                 f"{f'loops ran more than {MAX_STEPS} iterations'!r})")
        self.depth, self.loops = self.depth + 1, self.loops + 1
        self.block(stmt.body)
        self.depth, self.loops = self.depth - 1, self.loops - 1
        self.put("except _BreakSignal:", "    pass")

    def _switch(self, stmt: ast.Switch):
        value, start = self.temp(), self.temp()
        default = max((i for i, c in enumerate(stmt.cases) if c.match is None), default=None)
        self.put(f"{value} = {self.expr(stmt.scrutinee)}", f"{start} = {default}")
        word = "if"
        for i, case in enumerate(stmt.cases):
            if case.match is not None:
                self.put(f"{word} {self.expr(case.match)} == {value}: {start} = {i}")
                word = "elif"
        # the cases from the one matched on, as a loop a break leaves
        self.put(f"if {start} is not None:", "    try:", "        while True:")
        self.depth, self.loops = self.depth + 2, self.loops + 1
        for i, case in enumerate(stmt.cases):
            if case.body:
                self.put(f"    if {start} <= {i}:")
                self.depth += 1
                self.block(case.body)
                self.depth -= 1
        self.put("    break")
        self.depth, self.loops = self.depth - 2, self.loops - 1
        self.put("    except _BreakSignal:", "        pass")

    def _return(self, stmt: ast.Return):
        value = "0" if stmt.value is None else self.expr(stmt.value)
        # a record body returns from the function or run that declared it
        self.put(f"raise _ReturnSignal({value})" if self.in_record else f"return {value}")

    def fail(self, message: str):
        self.put(f"_fail(EvalError, {message!r})")

    # -- input declarations ----------------------------------------------

    def _input(self, decl: ast.InputDecl):
        tdef, native = decl.resolved
        if tdef is not None and tdef.kind == "record":
            return self._record(decl, tdef)
        if native == "string":
            return self.fail(f"input field {decl.name!r}: string inputs are not "
                             "supported; declare a char array with an explicit length")
        if native not in NATIVE_INTS:
            return self.fail(f"cannot declare input of type {decl.type_name!r}")
        enum_cands = [m.value for m in tdef.members] if tdef is not None else None
        label = tdef.name if tdef is not None else native
        width, signed = NATIVE_INTS[native]
        if decl.array_len is None:
            mined = [v for v in self.unit.magic.get((decl.name, None), ()) if isinstance(v, int)]
            return self._scalar(decl, width, signed, label, mined or enum_cands)
        self._int_array(decl, native, width, signed, label, enum_cands)

    def _decision(self, decl, width: int, signed: bool, cands):
        """How a field or an array's element is decided: the lines before
        its stream call that set up what the run decides of it, the call's
        kind (see _stream_call) and arguments, and whether an int the call
        draws is the value as read back.  The candidates of an init list,
        else cands (mined magic values or an enum's, or None), are
        normalized to the field; one candidate is forced (a fix-up).  A
        field without any may have <min, max>; at run time, a min that
        exceeds max fails."""
        if decl.init_list is not None:
            cands = [self.const(e) for e in decl.init_list]
            if not all(type(c) is int for c in cands):
                mask, half = (1 << (8 * width)) - 1, 1 << (8 * width - 1)
                norm = f"((({{}} + {half}) & {mask}) - {half})" if signed else f"({{}} & {mask})"
                cands = [norm.format(self.integer(e)) for e in decl.init_list]
                one = len(cands) == 1
                return ([f"sp = {cands[0] if one else '[' + ', '.join(cands) + ']'}"],
                        "forced" if one else "pick", ["sp"], True)
        if cands is None and decl.attrs:
            type_lo = -(1 << (8 * width - 1)) if signed else 0
            type_hi = (1 << (8 * width - 1)) - 1 if signed else (1 << (8 * width)) - 1
            lo = self.const(decl.attrs["min"]) if "min" in decl.attrs else type_lo
            hi = self.const(decl.attrs["max"]) if "max" in decl.attrs else type_hi
            if type(lo) is int and type(hi) is int and lo <= hi:
                exact = _norm(lo, width, signed) == lo and _norm(hi, width, signed) == hi
                return [], "bounded", [str(lo), str(hi - lo + 1)], exact
            lo = self.integer(decl.attrs["min"]) if "min" in decl.attrs else repr(type_lo)
            hi = self.integer(decl.attrs["max"]) if "max" in decl.attrs else repr(type_hi)
            a, b, bad = self.temp(), self.temp(), f"field {decl.name!r}: min %s exceeds max %s"
            check = f"(({a} := {lo}) <= ({b} := {hi}) or _fail(EvalError, {bad!r} % ({a}, {b})))"
            return [check], "bounded", [a, f"{b} - {a} + 1"], False
        if cands := [_norm(c, width, signed) for c in cands or ()]:
            if len(cands) == 1:
                return [], "forced", [repr(cands[0])], True
            return [], "pick", [self.ref(cands)], True
        return [], "plain", [], width > 1 or not signed  # a SMALL value is 0..255

    def _stream_call(self, kind: str, args: list[str], width, read: str = "v, raw") -> str:
        """The stream call of a decision's kind (plain, bounded, pick or
        forced): what draws it (GEN), or its inverse, which emits the value
        and file bytes that read gives (PARSE)."""
        if self.gen:
            return f"ds.{kind}({', '.join([*args, str(width)])})"
        return f"ds.{_EMIT[kind]}({read}{''.join(', ' + a for a in args)})"

    def _field(self, call: str, width: int, signed: bool, exact: bool) -> list[str]:
        """Source that decides a value by call, as v, and writes (GEN) or
        reads (PARSE, also binding its bytes as raw) its bytes: inline where
        FileBuffer._hold allows, else through Execution._put or
        FileBuffer.read and the reservations, which are taken as they are."""
        order = "ex.order, signed=True" if signed else "ex.order"
        half, mask = 1 << (8 * width - 1), (1 << 8 * width) - 1  # an int drawn is v as it is read
        wrap = "raw" if exact else \
            f"((raw + {half}) & {mask}) - {half}" if signed else f"raw & {mask}"
        return [f"if (p := buf.position) + {width} <= buf._hold:"] + ([
            f"    if isinstance(raw := {call}, int): raw = (v := {wrap}).to_bytes({width}, "
            f"{order})", f"    else: v = int.from_bytes(raw, {order})", "    buf.data += raw",
            f"    buf.position = buf.high_water = p + {width}", "else:",
            f"    v = int.from_bytes(ex._put({call}, {width}) if p + {width} <= buf._free "
            f"or (raw := buf.claim({width})) is None else raw, {order})"] if self.gen else [
            f"    v = int.from_bytes(raw := buf.data[p:p + {width}], {order})",
            f"    buf.position = p + {width}", f"    {call}", "else:",
            f"    v = int.from_bytes(raw := buf.read({width}), {order})",
            f"    if buf.reserved_block(p, {width}) is None: {call}"])

    def _scalar(self, decl, width, signed, label, cands):
        """A scalar field, decided by its stream call."""
        setup, kind, args, exact = self._decision(decl, width, signed, cands)
        field = self._field(self._stream_call(kind, args, width), width, signed, exact)
        name = repr(decl.name)
        self._cover(decl)
        shut = self._shut("node")  # only set-up that runs template code can raise a break or return
        bad = f"not isinstance(rec.fields[{name}], int): _fail(EvalError, " \
              f"{f'field {name} is redeclared as a scalar, but its current field is not one'!r})"
        if id(decl) in self.scoping.fresh:  # rec.fields cannot hold it yet
            field = [*self._open("node", name, repr(label)),
                     *(["try:", *_indent(setup + field), "finally:", *_indent(shut)]
                       if setup and self.tree else setup + field + shut),
                     *([f"rec.field_nodes[{name}] = node"] if self.tree else [])]
        elif self.tree:  # where rec.fields holds it, a fix-up: its node keeps its decision span
            fix, start = self.temp(), self.temp()
            field = [f"if {fix} := {name} in rec.fields:", f"    if {bad}",
                     f"    stack.append(node := rec.field_nodes[{name}])",  # where a lookahead runs
                     "else:", *_indent(self._open("node", name, repr(label))),
                     "try:", *_indent([*setup, f"{start} = buf.position", *field]),
                     "finally:", f"    if {fix}:", "        stack.pop()", "    else:",
                     *_indent(shut, 2),
                     f"if {fix}: node.file_start, node.file_end = {start}, buf.position",
                     f"else: rec.field_nodes[{name}] = node"]
        else:
            field = [*([f"if {name} not in rec.fields: node = next(ex.ids)", f"elif {bad}"]
                       if self.gen else [f"if {name} in rec.fields and {bad}"]), *setup, *field]
        self.put(*field, f"rec.fields[{name}] = {self._slot(decl.name)} = v")

    def _length(self, decl, width: int) -> bool:
        """Source setting n to an input array's length; False if it has none."""
        if decl.array_len is ast.DYNAMIC_ARRAY:
            self.fail(f"input array {decl.name!r} needs an explicit length")
            return False
        # one that is negative or does not fit is replaced in hint mode generation
        misfit = f"array {decl.name}[%s] does not fit the remaining %s byte(s)"
        hint = f"ds.draw_raw(1)[0] % {HINT_LENGTH_MOD} if ex.hint_mode else " if self.gen else ""
        self.put(f"n = {self.integer(decl.array_len)}",
                 f"if n < 0 or n * {max(width, 1)} > buf.budget - buf.position:",
                 f"    n = {hint}_fail(BudgetExceeded, "
                 f"{misfit!r} % (n, buf.budget - buf.position))")
        return True

    def _int_array(self, decl, native, width, signed, label, enum_cands):
        """An integer array, by one element body that decides element i as
        a scalar is decided; where magic values were mined for element i,
        i picks its stream call.  Unconstrained bytes take one stream call
        for the array (choose_bytes) where nothing is reserved over it.  A
        char array is decided whole by one choice among its string
        initializers, or among the mined strings of its length.  A repeated
        declaration (loop body) starts a fresh instance."""
        name, is_char = decl.name, native == "char"
        setup, kind, args, exact = self._decision(decl, width, signed, enum_cands)
        call = self._stream_call(kind, args, width)
        own = {} if decl.init_list is not None else {  # an init list serves every element
            i: mined for (n, i), values in self.unit.magic.items() if n == name and i is not None
            and (mined := [_norm(v, width, signed) for v in values if isinstance(v, int)])}
        if own:  # forced(x) draws as pick([x]) does
            one = all(len(mined) == 1 for mined in own.values())
            table = self.ref({i: mined[0] if one else mined for i, mined in own.items()})
            call = f"({self._stream_call('forced' if one else 'pick', [f'{table}[i]'], width)} " \
                   f"if i in {table} else {call})"
        # an init list runs per element; <min, max> once per array, but only
        # for the elements without mined values if some have them
        each = setup if decl.init_list is not None else \
            [f"if i not in {table}:", *_indent(setup)] if own and setup else []
        body = [*each, *self._field(call, width, signed, exact),
                "e.append(v & 255)" if is_char else "e.append(v)"]
        lines = [*([] if each else setup), f"e = {'bytearray()' if is_char else '[]'}",
                 "for i in range(n):", *_indent(body), f"v = {'bytes(e)' if is_char else 'e'}"]
        if kind == "plain" and width == 1 and not own:
            kernel = "buf.write(v := ds.choose_bytes(n))" if self.gen else \
                f"ds.emit_bytes(v := buf.read(n), {signed})"
            cast = f"v = memoryview(v).cast({'b' if signed else 'B'!r}).tolist()"
            lines = ["if min(buf.position + n, buf.budget) <= buf._free:", f"    {kernel}",
                     *([] if is_char else [f"    {cast}"]), "else:", *_indent(lines)]
        whole = None
        if is_char and decl.init_list is not None:
            whole = f"_whole({name!r}, n, [{', '.join(self.expr(e) for e in decl.init_list)}])"
        elif is_char:
            strings = [v for v in self.unit.magic.get((name, None), ()) if isinstance(v, bytes)]
            mined = {n: [v for v in strings if len(v) == n] for n in map(len, strings)}  # by length
            whole = f"{self.ref(mined)}.get(n)" if mined else None
        if whole is not None:  # an empty init list is plain, as for a scalar
            kind, args = ("pick", ["sp"]) if decl.init_list != [] else ("plain", [])
            call = self._stream_call(kind, args, "n", "v := buf.read(n), v")
            lines = [f"if (sp := {whole}) is not None:", *([
                f"    v = ex._put({call}, n) if buf.position + n <= buf._free "
                "or (v := buf.claim(n)) is None else v"] if self.gen else [
                f"    if (p := buf.position) + n <= buf._free or buf.reserved_block(p, n) is None: "
                f"{call}", "    else: v = buf.read(n)"]), "else:", *_indent(lines)]
        self._cover(decl)
        if self._length(decl, width):
            self.put(*self._open("node", repr(name), f"'%s[%s]' % ({label!r}, n)"),
                     *(["try:", *_indent(lines), "finally:", *_indent(self._shut("node"))]
                       if self.tree else lines),
                     f"rec.fields[{name!r}] = {self._slot(name)} = v")

    def _record(self, decl: ast.InputDecl, tdef):
        # repeated declarations of one record name (chunk loops) each
        # produce a fresh instance; bindings track the newest one
        if decl.init_list is not None or decl.attrs:
            return self.fail(f"record field {decl.name!r} takes no initializer or bounds")
        name, args = repr(decl.name), "".join(self.expr(a) + ", " for a in decl.args)
        call = f"{self.records[tdef.name]}(ex, d + 1, env, {name}, ({args}))"
        self._cover(decl)
        if decl.array_len is None:
            self.put(f"v = {call}")
        elif self._length(decl, 1):
            self.put("v = []", "for _ in range(n):", f"    v.append({call})")
        else:
            return
        self.put(f"rec.fields[{name}] = {self._slot(decl.name)} = v")

    # -- expressions ------------------------------------------------------

    def const(self, expr):
        """The value expr has in every run, or _VARIES."""
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StrLit)):
            return expr.value
        if isinstance(expr, ast.Ident):
            return self.scoping.constants.get(expr.name, _VARIES)
        return _VARIES

    def expr(self, expr) -> str:
        self.nesting += 1
        return self._close(_EXPR_RULES[type(expr)](self, expr))

    def test(self, expr) -> str:
        """Source whose Python truth is expr's truth in the template."""
        if isinstance(expr, ast.Binary):
            self.nesting += 1
            return self._close(self._binary(expr, test=True))
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self.nesting += 1
            return self._close(f"(not {self.test(expr.operand)})")
        return self.expr(expr) if self.typed(expr) else f"_truthy({self.expr(expr)})"

    def _close(self, source: str) -> str:
        """The source of an expression level that nesting += 1 opened.
        Python parses only 200 nested parentheses: deep ones run apart."""
        self.nesting -= 1
        return self._deferred([f"return {source}"]) + "(ex, rec, d, env)" \
            if self.nesting % 16 == 15 else source

    def integer(self, expr, source: str | None = None) -> str:
        """expr's source (or source, if given), checked to be an int."""
        source = self.expr(expr) if source is None else source
        if self.typed(expr) in (1, 2):
            return source
        t = self.temp()
        return f"({t} if type({t} := {source}) is int else _int({t}))"

    def stored(self, source: str, kind) -> str:
        """A value of the kind typed() gives as a variable stores it: an int wraps to 64 bits."""
        if kind:
            return source if kind in (2, bytes) else _WRAP.format(source)
        t = self.temp()
        return f"({_WRAP.format(t)} if isinstance({t} := {source}, int) else {t})"

    def _constant(self, expr):
        value = self.const(expr)
        return f"({value!r})" if type(value) in (int, bytes) else self.ref(value)

    def _ident(self, expr: ast.Ident):
        if expr.name in self.scoping.constants:
            return self._constant(expr)
        return self.slots.get(expr.name) or f"_read_var(env, {expr.name!r})"

    def _unary(self, expr: ast.Unary):
        if expr.op == "!":
            return f"(0 if {self.test(expr.operand)} else 1)"
        t = self.temp()
        value = t if expr.op == "+" else _WRAP.format(expr.op + t)
        return f"({value} if isinstance({t} := {self.expr(expr.operand)}, int) else " \
               f"_fail(EvalError, {'unary ' + expr.op + ' on '!r} + type({t}).__name__))"

    def _binary(self, expr: ast.Binary, test: bool = False):
        op = expr.op
        if op in ("&&", "||"):
            both = f"({self.test(expr.left)} {'and' if op == '&&' else 'or'} " \
                   f"{self.test(expr.right)})"
            return both if test else f"(1 if {both} else 0)"
        left, right = self.expr(expr.left), self.expr(expr.right)
        if op not in _COMPARE and op not in _ARITH:
            return f"_binary({op!r}, {left}, {right})"
        # the int fast path (or, for == and !=, two strings), else _binary
        fast = _INT_OR_BYTES if op in ("==", "!=") else (int,)
        lt, rt = (bytes if (t := self.typed(e)) is bytes else int if t else type(self.const(e))
                  for e in (expr.left, expr.right))
        check = None
        if object not in (lt, rt):  # both types known
            if lt is not rt or lt not in fast:
                return f"_binary({op!r}, {left}, {right})"
        elif lt is rt or rt is object and self.const(expr.left) is _VARIES:
            a, b = self.temp(), self.temp()  # both bound before any check
            check = f"type({a} := {left}) is type({b} := {right}) " + (
                "in _INT_OR_BYTES" if len(fast) == 2 else "is int")
            left, right = a, b
        else:  # one side unknown; the other a literal or evaluated after it
            known = rt if lt is object else lt
            if known not in fast:
                return f"_binary({op!r}, {left}, {right})"
            t = self.temp()
            check = f"type({t} := {left if lt is object else right}) is {known.__name__}"
            left, right = (t, right) if lt is object else (left, t)
        result = f"{left} {op} {right}"
        if op in _ARITH:
            result = _WRAP.format(result)
        elif not test:
            result = f"(1 if {result} else 0)"
        if check is None:
            return f"({result})"
        return f"({result} if {check} else _binary({op!r}, {left}, {right}))"

    def _postfix(self, expr: ast.Postfix):
        target, t = expr.target, self.temp()
        if isinstance(target, ast.Ident):
            step = self._store(target.name, _WRAP.format(f"{t} {expr.op[0]} 1"))
            return f"(({t}, {step})[0] if type({t} := {self._ident(target)}) is int else " \
                   f"_fail(EvalError, {f'{expr.op} on non-integer {target.name!r}'!r}))"
        if isinstance(target, ast.Index):
            return f"_postfix_slot({self.expr(target.base)}, {self.expr(target.index)}, " \
                   f"{1 if expr.op == '++' else -1}, {expr.op!r})"
        return f"_fail(EvalError, {expr.op + ' needs a variable or array element'!r})"

    def _call(self, expr: ast.Call):
        if expr.name == "CodecStream":
            return self._codec_stream(expr)
        name, args = expr.name, [self.expr(a) for a in expr.args]
        if name in _BUILTINS:
            ints = {f"i{i}": self.integer(e, a) for i, (e, a) in enumerate(zip(expr.args, args))}
            if name == "ReadBytes":
                if not isinstance(out := expr.args[0], ast.Ident):
                    return "_fail(EvalError, 'ReadBytes output must be a local variable name')"
                ints.update(t=(t := self.temp()), store=self._store(out.name, t), known=", True"
                            if type(p := self.const(expr.args[5])) in _REAL and 0 <= p <= 1 else "")
            return _BUILTINS[name].format(*args, **ints, rest=", ".join(args[1:]))
        return f"{self.functions[name]}(ex, rec, d + 1, env{''.join(', ' + a for a in args)})"

    def _codec_stream(self, expr: ast.Call):
        """A codec stream's call: its own function, which opens its node."""
        named = expr.args[0]  # the node itself: it names the stream
        name = named.name if isinstance(named, ast.Ident) else named.value.decode(
            "latin-1") if isinstance(named, ast.StrLit) else None
        if name is None:
            return "_fail(EvalError, 'CodecStream stream name must be an identifier')"
        # the stream's length, which only a parse reads: once the node is open.
        # analysis refuses a length that stores, which would bind the lambda's own local
        length = "None" if self.gen else f"(lambda ex: {self.integer(expr.args[2])})"
        call = f"return ex._codec_stream({name!r}, codec, {'None' if self.gen else 'length(ex)'})"
        codec_call = self._deferred([
            "if not isinstance(codec, bytes): "
            "_fail(EvalError, 'CodecStream codec must be a string')",
            "codec_name = codec.decode('latin-1')", "if (codec := CODECS.get(codec_name)) is None:"
            " _fail(EvalError, f'no codec named {codec_name!r}')",
            *self._open("node", repr(name), "codec_name"),
            *(["try:", f"    {call}", "finally:", *_indent(self._shut("node"))]
              if self.tree else [call])], ", codec, length")
        return f"{codec_call}(ex, rec, d, env, {self.expr(expr.args[1])}, {length})"


# How each statement and expression node class compiles, and the source of
# each builtin the analyzer accepts: {0}.. are its arguments, {i0}.. the
# same checked to be ints, {b0}.. their truth, {rest} all but the first;
# ReadBytes stores its token {t} by {store}, and {known} says that its
# probability is a constant in [0, 1].  An argument a builtin does not use
# never runs.
_STMT_RULES = {
    ast.InputDecl: _Compiler._input,
    ast.LocalDecl: _Compiler._local,
    ast.Assign: _Compiler._assign,
    ast.ArrayExtend: _Compiler._extend,
    ast.If: _Compiler._if,
    ast.While: _Compiler._while,
    ast.Switch: _Compiler._switch,
    ast.Break: lambda self, stmt: self.put("break" if self.loops
                                           else "raise _BreakSignal('break')"),
    ast.Return: _Compiler._return,
    ast.ExprStmt: lambda self, stmt: self.put(self.expr(stmt.expr)),
}

_EXPR_RULES = {
    **dict.fromkeys((ast.IntLit, ast.FloatLit, ast.StrLit), _Compiler._constant),
    ast.Ident: _Compiler._ident,
    ast.Member: lambda self, e: f"_member({self.expr(e.obj)}, {e.name!r})",
    ast.Index: lambda self, e: f"_index({self.expr(e.base)}, {self.expr(e.index)})",
    ast.Call: _Compiler._call,
    ast.Unary: _Compiler._unary,
    ast.Binary: _Compiler._binary,
    ast.Ternary: lambda self, e: f"({self.expr(e.then)} if {self.test(e.cond)} "
                                 f"else {self.expr(e.other)})",
    ast.Postfix: _Compiler._postfix,
}

_BUILTINS = {
    "FTell": "buf.position",
    "FSeek": "(buf.seek({i0}) or 0)",
    "FEof": "ex._feof()",
    "FileSize": "buf.high_water",
    "ReadByte": "ex._read_byte({i0}, {1})",
    "ReadBytes": "(0 if ({t} := ex._read_bytes({i1}, {i2}, {3}, {4}, {5}{known})) is None "
                 "else ({store}, 1)[1])",
    "Checksum": "ex._checksum({i0}, {i1}, {i2})",
    "SetEvilBit": "(1 if ds.set_evil(_truthy({0})) else 0)",
    "ChangeArrayLength": "ex._change_array_length()",
    "Warning": "ex._log_message('warning', {0})([{rest}])",
    "Printf": "ex._log_message('printf', {0})([{rest}])",
    "BigEndian": "(setattr(ex, 'order', 'big') or 0)",
    "LittleEndian": "(setattr(ex, 'order', 'little') or 0)",
    "CodecStream": None,  # _Compiler._codec_stream
}


# --- public entry points ----------------------------------------------------


def generate_from_seed(unit: TemplateUnit, seed: bytes, *, evil: bool = True,
                       budget: int = DEFAULT_BUDGET, tree: bool = False) -> GenResult:
    """Run the template forward on seed.  Deterministic: the same unit and
    the same consumed seed bytes yield a bit-identical file (and tree).
    It runs the lean program unless tree=True, which runs the tree program:
    the same file, seed and log, with the tree, events and coverage."""
    ds = DecisionStream(SeedSource(seed), evil_enabled=evil)
    return Execution(unit, ds, FileBuffer(budget), tree=tree).run()


def generate_random(unit: TemplateUnit, rng: random.Random | int | None = None, *,
                    evil: bool = True, budget: int = DEFAULT_BUDGET,
                    tree: bool = False) -> GenResult:
    """Run the template forward on decisions drawn from rng; tree=True as
    for generate_from_seed."""
    ds = DecisionStream(RandomSource(rng), evil_enabled=evil)
    return Execution(unit, ds, FileBuffer(budget), tree=tree).run()


def parse(unit: TemplateUnit, data: bytes, *, evil: bool = True,
          tree: bool = False) -> GenResult:
    """Run the template backward over `data`, emitting the canonical seed.

    On success, generate_from_seed(unit, result.seed) reproduces `data`
    (result.file) bit-exactly.  Engine-level failures surface as
    ParseRejected; leftover input raises TrailingBytes.  It runs the lean
    parse program unless tree=True, which also gives the parse tree, the
    lookahead events and the coverage; the seed and errors are the same.
    """
    ex = Execution(unit, DecisionStream(evil_enabled=evil), FileBuffer(data=bytes(data)),
                   tree=tree)
    try:
        return ex.run()
    except GenerationFailed as exc:
        raise ParseRejected(f"{type(exc).__name__}: {exc}") from exc


def run_with_splice(unit: TemplateUnit, base_seed: bytes, span: tuple[int, int],
                    node_id: int, alt, *, evil: bool = True,
                    budget: int = DEFAULT_BUDGET, tree: bool = False) -> GenResult:
    """Generate with base_seed's decisions replayed around `span` and `alt`
    (donor seed bytes, or an int/Random for random bytes) consumed inside
    it: base_seed[:start] until record node `node_id` opens, which must be
    at the span start, `alt` until it closes, then base_seed from the span
    end.  Node ids match the base's parse tree, as the prefix replays it
    exactly; only a record node opens a splice.  Any desynchronization
    raises SpliceMisaligned: a seed source running dry (SeedExhausted) or
    any failure outside the node, the node opening elsewhere or never
    (any id that is not a record's), and donor or base bytes left over.
    tree=True runs the tree program, as for generate_from_seed.
    """
    start, end = span
    if not 0 <= start <= end <= len(base_seed):
        raise SpliceMisaligned(f"span [{start}, {end}) outside seed of {len(base_seed)}")
    alt = SeedSource(bytes(alt)) if isinstance(alt, (bytes, bytearray)) else RandomSource(alt)
    ds = DecisionStream(SeedSource(base_seed[:start]), evil_enabled=evil)
    splice = _Splice(ds, base_seed, span, node_id, alt)
    ex = Execution(unit, ds, FileBuffer(budget), splice, tree)
    try:
        result = ex.run()
    except GenerationFailed as exc:
        if splice.phase == splice.ALT and not isinstance(exc, SeedExhausted):
            raise
        where = ("before the splice region", "in the donor bytes",
                 "after the splice region")[splice.phase]
        raise SpliceMisaligned(f"replay failed {where}: {exc}") from exc
    if splice.phase != splice.SUFFIX:
        raise SpliceMisaligned(f"generation finished before node {node_id} completed")
    leftover = len(base_seed) - ds.source.pos
    if leftover:
        raise SpliceMisaligned(f"{leftover} base seed byte(s) left after the splice")
    return result
