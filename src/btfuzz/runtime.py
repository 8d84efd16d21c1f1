"""Execution-time state: file buffer, record values, and parse tree.

The same FileBuffer type backs both directions.  Generating writes into a
growable buffer capped by a byte budget; parsing reads the input bytes
themselves, whose size is the budget and the high-water mark from the
start.  Reservations pin the spans of bytes that a lookahead has fixed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .errors import BudgetExceeded, GenerationFailed, OutOfRange, ReservationConflict

DEFAULT_BUDGET = 65536

# Record and function activations nested at once, far above what a
# bundled template needs; each compiled record and function body checks
# its depth against it first.
MAX_DEPTH = 100

_START, _END = itemgetter(0), itemgetter(1)  # of a span


class FileBuffer:
    """Byte buffer with position, budget, and sorted spans: reservations as
    (start, end, bytes), merged where they meet, and gaps as (start, end).
    _free is the start of the first reservation ending after the position,
    else the budget.  Compiled code reads or appends w bytes inline if
    position + w <= _hold: _free, or -1 if generating but not at the end."""

    def __init__(self, budget: int = DEFAULT_BUDGET, data: bytes | None = None):
        self._appends = data is None  # else parsing: the input itself, never written
        self.data, self.budget = (bytearray(), budget) if self._appends else (data, len(data))
        self.position, self.high_water, self._hold = 0, len(self.data), self.budget
        self.spans, self._gaps, self._free = [], [], self.budget

    def _rehold(self):
        spans, pos = self.spans, self.position  # usually past every span: no search
        self._free = spans[bisect_right(spans, pos, key=_END)][0] if spans and spans[-1][1] > pos \
            else self.budget
        self._hold = self._free if pos == len(self.data) or not self._appends else -1

    def tell(self) -> int:
        return self.position

    def seek(self, pos: int):
        if pos < 0 or pos > self.budget:
            raise OutOfRange(f"seek to {pos} outside [0, {self.budget}]")
        self.position = pos
        self._rehold()

    def _clash(self, pos: int, payload: bytes) -> tuple[int, int] | None:
        """The first offset where payload at pos differs from a reserved byte, and that byte."""
        spans, end = self.spans, pos + len(payload)
        i, j = bisect_right(spans, pos, key=_END), bisect_left(spans, end, key=_START)
        for start, _, block in spans[i:j]:
            a = max(start, pos)
            for off, (held, b) in enumerate(zip(block[a - start:], payload[a - pos:]), a):
                if held != b:
                    return off, held
        return None

    # -- generation side ------------------------------------------------

    def write(self, payload: bytes):
        pos, data = self.position, self.data
        end = pos + len(payload)
        if end <= self._hold:  # an append over nothing reserved, which keeps _hold
            data += payload
            self.position = self.high_water = end
            return
        if end <= self._free and end <= len(data) and not self._gaps:  # overwrites keep _free
            data[pos:end] = payload
            self.position, self._hold = end, self._free if end == len(data) else -1
            return
        if end > self.budget:
            raise BudgetExceeded(f"write of {len(payload)} bytes at {pos} exceeds budget {self.budget}")
        if end > self._free and (clash := self._clash(pos, payload)):
            raise ReservationConflict(f"byte {payload[clash[0] - pos]:#04x} at offset {clash[0]}"
                                      f" conflicts with reserved {clash[1]:#04x}")
        self._store(payload)

    def claim(self, n: int) -> bytes | None:
        """Write the n bytes a lookahead reserved at the position, if it
        reserved all n; gives them, or None."""
        if (block := self.reserved_block(self.position, n)) is not None:
            self._store(block)
        return block

    def _store(self, payload: bytes):
        """Write payload at the position, which no reservation forbids."""
        pos, data = self.position, self.data
        end = pos + len(payload)
        if pos > len(data):  # forward seek left a hole; it must be filled before finalize
            self._gaps.append((len(data), pos))
            data.extend(bytes(pos - len(data)))
        data[pos:end] = payload
        if self._gaps:
            self._gaps = [(a, b) for s, e in self._gaps
                          for a, b in ((s, min(e, pos)), (max(s, end), e)) if a < b]
        self.position, self.high_water = end, max(self.high_water, end)
        self._rehold()

    def reserve(self, pos: int, payload: bytes):
        """Pin bytes chosen by a lookahead before they are declared."""
        end = pos + len(payload)
        if pos < 0 or end > self.budget:
            raise OutOfRange(f"reservation [{pos}, {end}) outside budget")
        if not payload:
            return
        data, spans = self.data, self.spans
        if (not spans or spans[-1][1] < pos) and payload.startswith(data[pos:end]):
            spans.append((pos, end, bytes(payload)))  # past every span, as written: the usual case
        else:
            i, j = (bisect_left(spans, pos, key=_END), bisect_right(spans, end, key=_START)) \
                if spans and spans[-1][1] >= pos else (len(spans),) * 2
            clash = self._clash(pos, payload) if i < j else None  # spans[i:j] meet [pos, end)
            # written bytes are checked one by one only when they differ (never on a parse)
            if not payload.startswith(data[pos:end]):
                gaps = self._gaps
                off = next((o for o, (d, p) in enumerate(zip(data[pos:end], payload), pos)
                            if d != p and not any(a <= o < b for a, b in gaps)), end)
                if off < (clash or (end,))[0]:  # a written reserved byte matches its reservation
                    raise ReservationConflict(f"reservation {payload[off - pos]:#04x} at offset "
                                              f"{off} conflicts with written {data[off]:#04x}")
            if clash:
                raise ReservationConflict(f"reservation {payload[clash[0] - pos]:#04x} at offset "
                                          f"{clash[0]} conflicts with reserved {clash[1]:#04x}")
            if i < j:  # they join it
                (first, _, head), (last, stop, tail) = spans[i], spans[j - 1]
                payload = head[:max(pos - first, 0)] + payload + tail[end - last:]
                pos, end = min(first, pos), max(stop, end)
            spans[i:j] = [(pos, end, bytes(payload))]
        if end > self.position and pos < self._free:  # now the first span that ends past it
            self._free = pos
            if self._hold >= 0:
                self._hold = pos

    def reserved_block(self, pos: int, length: int) -> bytes | None:
        """The reserved bytes at [pos, pos+length), or None if any is unreserved."""
        i = bisect_right(spans := self.spans, pos, key=_END)
        if i == len(spans) or (span := spans[i])[0] > pos or pos + length > span[1]:
            return None if length else b""
        return span[2][pos - span[0]:pos - span[0] + length]

    def finalize(self) -> bytes:
        if self._gaps:
            raise GenerationFailed(f"{sum(e - s for s, e in self._gaps)} gap byte(s) never "
                                   f"written, first at {self._gaps[0][0]}")
        if late := self.spans[bisect_right(self.spans, hw := self.high_water, key=_END):]:
            raise GenerationFailed(f"{sum(e - max(s, hw) for s, e, _ in late)} reserved byte(s) "
                                   f"never declared, first at {max(late[0][0], hw)}")
        return bytes(self.data)  # a parse's input as it is: bytes(b) of bytes is b

    # -- parse side -------------------------------------------------------

    def read(self, n: int) -> bytes:
        pos = self.position
        if pos + n > len(self.data):
            raise OutOfRange(f"read of {n} bytes at {pos} past end ({len(self.data)})")
        self.position = pos + n
        if pos + n > self._free:  # past the start of a reservation
            self._rehold()
        return self.data[pos:pos + n]

    def peek(self, pos: int, n: int) -> bytes | None:
        """Bytes at [pos, pos+n) without moving, or None past the end."""
        if pos < 0:
            raise OutOfRange(f"peek at negative offset {pos}")
        if pos + n > len(self.data):
            return None
        return bytes(self.data[pos:pos + n])


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
