"""Execution-time state: file buffer, variable scope, and parse tree.

The same FileBuffer type backs both directions.  Generating writes into a
growable buffer capped by a byte budget; parsing reads the input bytes
themselves, whose size is the budget and the high-water mark from the
start.  Reservations pin bytes that a lookahead has already fixed, at
single byte granularity.
"""

from __future__ import annotations

from .errors import (
    BudgetExceeded,
    EvalError,
    GenerationFailed,
    OutOfRange,
    RecursionTooDeep,
    ReservationConflict,
)

DEFAULT_BUDGET = 65536

# Record and function activations nested at once, far above what a
# bundled template needs.
MAX_DEPTH = 100


class FileBuffer:
    """Byte buffer with position, budget, reservations, and gap tracking."""

    def __init__(self, budget: int = DEFAULT_BUDGET, data: bytes | None = None):
        if data is None:
            self.data, self.budget = bytearray(), budget
        else:  # parsing: the input itself, never written
            self.data, self.budget = data, len(data)
        self.position = 0
        self.high_water = len(self.data)
        self.reservations: dict[int, int] = {}
        self._reserved_end = 0  # past the highest reserved offset
        self._gaps: set[int] = set()

    @property
    def size(self) -> int:
        return len(self.data)

    def tell(self) -> int:
        return self.position

    def seek(self, pos: int):
        if pos < 0 or pos > self.budget:
            raise OutOfRange(f"seek to {pos} outside [0, {self.budget}]")
        self.position = pos

    # -- generation side ------------------------------------------------

    def write(self, payload: bytes):
        pos = self.position
        end = pos + len(payload)
        if end > self.budget:
            raise BudgetExceeded(f"write of {len(payload)} bytes at {pos} exceeds budget {self.budget}")
        if pos < self._reserved_end:
            for off in self.reserved_offsets(pos, end):
                b, held = payload[off - pos], self.reservations[off]
                if held != b:
                    raise ReservationConflict(
                        f"byte {b:#04x} at offset {off} conflicts with reserved {held:#04x}")
        if pos == len(self.data):
            self.data += payload  # appending: no gap below it is touched
        else:
            if pos > len(self.data):
                # forward seek left a hole; it must be filled before finalize
                self._gaps.update(range(len(self.data), pos))
                self.data.extend(b"\x00" * (pos - len(self.data)))
            if end <= len(self.data):
                self.data[pos:end] = payload
            else:
                self.data[pos:] = payload[: len(self.data) - pos]
                self.data.extend(payload[len(self.data) - pos:])
            if self._gaps:
                self._gaps.difference_update(range(pos, end))
        self.position = end
        if end > self.high_water:
            self.high_water = end

    def reserve(self, pos: int, payload: bytes):
        """Pin bytes chosen by a lookahead before they are declared."""
        end = pos + len(payload)
        if pos < 0 or end > self.budget:
            raise OutOfRange(f"reservation [{pos}, {end}) outside budget")
        # written bytes are checked one by one only when they differ (never on a parse)
        differs = not payload.startswith(self.data[pos:end])
        for off, b in enumerate(payload, pos):
            held = self.reservations.get(off)
            if held is not None and held != b:
                raise ReservationConflict(
                    f"reservation {b:#04x} at offset {off} conflicts with reserved {held:#04x}")
            if differs and off < len(self.data) and off not in self._gaps:
                if self.data[off] != b:
                    raise ReservationConflict(
                        f"reservation {b:#04x} at offset {off} conflicts with written "
                        f"{self.data[off]:#04x}")
            self.reservations[off] = b
        self._reserved_end = max(self._reserved_end, end)

    def reserved_offsets(self, pos: int, end: int) -> list[int]:
        """The reserved offsets in [pos, end), ascending.  Costs the smaller
        of the span length and the reservation count."""
        res = self.reservations
        if not res:
            return []
        if len(res) < end - pos:
            return sorted(off for off in res if pos <= off < end)
        return [off for off in range(pos, end) if off in res]

    def reserved_block(self, pos: int, length: int) -> bytes | None:
        """The reserved bytes covering [pos, pos+length), or None if any
        byte in the range is unreserved."""
        if length and pos not in self.reservations:
            return None
        out = bytearray()
        for off in range(pos, pos + length):
            held = self.reservations.get(off)
            if held is None:
                return None
            out.append(held)
        return bytes(out)

    def finalize(self) -> bytes:
        if self._gaps:
            first = min(self._gaps)
            raise GenerationFailed(f"{len(self._gaps)} gap byte(s) never written, first at {first}")
        if self._reserved_end > self.high_water:
            if unwritten := [off for off in self.reservations if off >= self.high_water]:
                raise GenerationFailed(
                    f"{len(unwritten)} reserved byte(s) never declared, first at {min(unwritten)}")
        return bytes(self.data)  # a parse's input as it is: bytes(b) of bytes is b

    # -- parse side -------------------------------------------------------

    def read(self, n: int) -> bytes:
        if self.position + n > len(self.data):
            raise OutOfRange(f"read of {n} bytes at {self.position} past end ({len(self.data)})")
        out = self.data[self.position:self.position + n]
        self.position += n
        return out

    def peek(self, pos: int, n: int) -> bytes | None:
        """Bytes at [pos, pos+n) without moving, or None past the end."""
        if pos < 0:
            raise OutOfRange(f"peek at negative offset {pos}")
        if pos + n > len(self.data):
            return None
        return bytes(self.data[pos:pos + n])


class Scope:
    """Name bindings, one frame per activation.

    Reads and assignments fall through every frame, so record and function
    bodies can consult and update enclosing locals.  A declaration binds in
    the innermost frame, `frame`: it rebinds a name declared earlier in the
    same activation (so loop-carried state survives braces) and shadows one
    that lives outside it from that declaration on.
    """

    def __init__(self, bindings: dict[str, object] | None = None):
        self.frame: dict[str, object] = dict(bindings or {})
        self.frames = [self.frame]

    def push_activation(self) -> dict[str, object]:
        if len(self.frames) > MAX_DEPTH:
            raise RecursionTooDeep(f"records and functions nested deeper than {MAX_DEPTH}")
        self.frame = {}
        self.frames.append(self.frame)
        return self.frame

    def pop_activation(self):
        self.frames.pop()
        self.frame = self.frames[-1]

    def read(self, name: str) -> object:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        raise EvalError(f"undefined variable {name!r}")

    def assign(self, name: str, value: object):
        for frame in reversed(self.frames):
            if name in frame:
                frame[name] = value
                return
        raise EvalError(f"assignment to undefined variable {name!r}")


class RecordVal:
    """Value of a record instance: ordered fields, and the tree node of
    each scalar field (what a fix-up declaration of it rewrites)."""

    __slots__ = ("type_name", "fields", "field_nodes")

    def __init__(self, type_name: str):
        self.type_name = type_name
        self.fields: dict[str, object] = {}
        self.field_nodes: dict[str, ParseNode] = {}

    def __repr__(self) -> str:
        return f"RecordVal({self.type_name}, {list(self.fields)})"


class ParseNode:
    """One node of the parse tree shared by both directions.

    file span and seed span are half-open offset pairs.  lead is the
    lookahead event that ended where an optional node starts (the token
    decision that selected it), None otherwise.  args holds a
    parameterized record's argument values.
    """

    __slots__ = ("id", "name", "type_name", "file_start", "file_end",
                 "seed_start", "seed_end", "lead", "args", "children")

    def __init__(self, node_id: int, name: str, type_name: str,
                 file_start: int = 0, seed_start: int = 0):
        self.id = node_id
        self.name = name
        self.type_name = type_name
        self.file_start = self.file_end = file_start
        self.seed_start = self.seed_end = seed_start
        self.lead = None
        self.args = ()
        self.children: list[ParseNode] = []

    @property
    def optional(self) -> bool:
        """Generated right after a lookahead call."""
        return self.lead is not None

    @property
    def file_span(self) -> tuple[int, int]:
        return (self.file_start, self.file_end)

    @property
    def seed_span(self) -> tuple[int, int]:
        return (self.seed_start, self.seed_end)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "type": self.type_name,
            "file": [self.file_start, self.file_end],
            "seed": [self.seed_start, self.seed_end],
            "optional": self.optional,
            "children": [child.to_json() for child in self.children],
        }

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"ParseNode({self.id}, {self.name!r}, {self.type_name!r}, "
                f"file={self.file_span}, seed={self.seed_span})")
