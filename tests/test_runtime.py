"""File buffer and parse-tree plumbing."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btfuzz.errors import (
    BudgetExceeded,
    Error,
    GenerationFailed,
    OutOfRange,
    ReservationConflict,
)
from btfuzz.runtime import FileBuffer, ParseNode

from conftest import trees_agree


def test_write_advances_and_tracks_high_water():
    buf = FileBuffer(budget=16)
    buf.write(b"abc")
    assert buf.tell() == 3
    assert buf.high_water == 3
    buf.seek(1)
    buf.write(b"X")
    assert buf.tell() == 2
    assert buf.high_water == 3
    assert buf.finalize() == b"aXc"


def test_budget_enforced_on_write():
    buf = FileBuffer(budget=4)
    buf.write(b"1234")
    with pytest.raises(BudgetExceeded):
        buf.write(b"5")


def test_seek_bounds():
    buf = FileBuffer(budget=8)
    buf.seek(8)  # seeking to the budget edge is allowed
    with pytest.raises(OutOfRange):
        buf.seek(9)
    with pytest.raises(OutOfRange):
        buf.seek(-1)


def test_gap_then_backfill_finalizes():
    buf = FileBuffer(budget=16)
    buf.seek(2)
    buf.write(b"cd")
    buf.seek(0)
    buf.write(b"ab")
    assert buf.finalize() == b"abcd"


def test_unfilled_gap_fails_finalize():
    buf = FileBuffer(budget=16)
    buf.seek(2)
    buf.write(b"cd")
    with pytest.raises(GenerationFailed):
        buf.finalize()


def test_far_forward_seek_keeps_its_gap_as_one_span():
    for backfill, message in ((60_000, None),
                              (59_000, "1000 gap byte(s) never written, first at 59000")):
        buf = FileBuffer()
        buf.seek(60_000)
        buf.write(b"end")
        assert buf._gaps == [(0, 60_000)]
        buf.seek(0)
        buf.write(bytes(range(256)) * (backfill // 256) + b"\x07" * (backfill % 256))
        if message is None:
            assert buf.finalize()[-4:] == b"\x07end"
        else:
            with pytest.raises(GenerationFailed) as info:
                buf.finalize()
            assert str(info.value) == message


def test_reservation_roundtrip_and_conflict():
    buf = FileBuffer(budget=16)
    buf.reserve(3, b"XY")
    assert buf.reserved_block(3, 2) == b"XY"
    assert buf.reserved_block(3, 1) == b"X"  # any fully reserved subrange
    assert buf.reserved_block(2, 2) is None  # offset 2 unreserved
    buf.reserve(3, b"X")  # re-reserving identical bytes is fine
    with pytest.raises(ReservationConflict):
        buf.reserve(4, b"Z")  # disagrees with the reserved byte there


def test_write_must_agree_with_reservation():
    buf = FileBuffer(budget=16)
    buf.reserve(0, b"MI")
    buf.write(b"MI")
    assert buf.finalize() == b"MI"
    buf2 = FileBuffer(budget=16)
    buf2.reserve(0, b"MI")
    with pytest.raises(ReservationConflict):
        buf2.write(b"XX")


def test_undeclared_reservation_fails_finalize():
    # a lookahead promised bytes the template never declared
    buf = FileBuffer(budget=16)
    buf.write(b"ab")
    buf.reserve(2, b"c")
    with pytest.raises(GenerationFailed):
        buf.finalize()


def test_parse_mode_read_and_peek():
    buf = FileBuffer(data=b"hello")
    assert buf.read(2) == b"he"
    assert buf.tell() == 2
    assert buf.peek(3, 2) == b"lo"
    assert buf.peek(4, 2) is None  # past the end
    with pytest.raises(OutOfRange):
        buf.peek(-1, 1)
    with pytest.raises(OutOfRange):
        buf.read(4)


def _node(nid, name, tname, fspan, sspan, children=()):
    n = ParseNode(nid, name, tname)
    n.file_start, n.file_end = fspan
    n.seed_start, n.seed_end = sspan
    for c in children:
        n.children.append(c)
    return n


def test_trees_agree_checks_spans_and_structure():
    a = _node(0, "root", "T", (0, 4), (0, 2), [_node(1, "x", "ubyte", (0, 1), (0, 1))])
    b = _node(0, "root", "T", (0, 4), (0, 2), [_node(1, "x", "ubyte", (0, 1), (0, 1))])
    assert trees_agree(a, b)
    b.children[0].seed_end = 2
    assert not trees_agree(a, b)
    assert trees_agree(a, b, compare_seed_spans=False)
    b.children[0].name = "y"
    assert not trees_agree(a, b, compare_seed_spans=False)


def test_node_json_shape():
    n = _node(3, "x", "ubyte", (0, 1), (2, 5))
    js = n.to_json()
    assert js["name"] == "x"
    assert js["file"] == [0, 1]
    assert js["seed"] == [2, 5]


class DictBuffer:
    """The file buffer before reservations and gaps became spans: one dict
    entry per reserved byte and one set member per gap byte.  The model
    that FileBuffer must match, result for result and error for error."""

    def __init__(self, budget: int = 65536, data: bytes | None = None):
        if data is None:
            self.data, self.budget = bytearray(), budget
        else:  # parsing: the input itself, never written
            self.data, self.budget = data, len(data)
        self.position = 0
        self.high_water = len(self.data)
        self.reservations: dict[int, int] = {}
        self._reserved_end = 0  # past the highest reserved offset
        self._gaps: set[int] = set()

    def tell(self) -> int:
        return self.position

    def seek(self, pos: int):
        if pos < 0 or pos > self.budget:
            raise OutOfRange(f"seek to {pos} outside [0, {self.budget}]")
        self.position = pos

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
        res = self.reservations
        if not res:
            return []
        if len(res) < end - pos:
            return sorted(off for off in res if pos <= off < end)
        return [off for off in range(pos, end) if off in res]

    def reserved_block(self, pos: int, length: int) -> bytes | None:
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
        return bytes(self.data)

    def read(self, n: int) -> bytes:
        if self.position + n > len(self.data):
            raise OutOfRange(f"read of {n} bytes at {self.position} past end ({len(self.data)})")
        out = self.data[self.position:self.position + n]
        self.position += n
        return out

    def peek(self, pos: int, n: int) -> bytes | None:
        if pos < 0:
            raise OutOfRange(f"peek at negative offset {pos}")
        if pos + n > len(self.data):
            return None
        return bytes(self.data[pos:pos + n])


# few distinct byte values, so that reserved and written bytes often agree
PAYLOADS = st.lists(st.sampled_from(b"\x00ab"), max_size=4).map(bytes)
OFFSETS = st.integers(-1, 14)
SHARED_OPS = [st.tuples(st.just("seek"), OFFSETS),
              st.tuples(st.just("reserve"), OFFSETS, PAYLOADS),
              st.tuples(st.just("reserved_block"), OFFSETS, st.integers(0, 4)),
              st.tuples(st.just("peek"), st.integers(0, 14), st.integers(0, 4)),
              st.tuples(st.just("finalize"))]
GEN_OPS = st.lists(st.one_of(st.tuples(st.just("write"), PAYLOADS), *SHARED_OPS), max_size=40)
PARSE_OPS = st.lists(st.one_of(st.tuples(st.just("read"), st.integers(0, 4)), *SHARED_OPS),
                     max_size=40)


def _step(buf, op):
    """op's result on buf, then what the engine reads of the buffer; or the
    class and message of the error op raised."""
    try:
        out = getattr(buf, op[0])(*op[1:])
    except Error as exc:
        return type(exc).__name__, str(exc)
    return (bytes(out) if isinstance(out, (bytes, bytearray)) else out, buf.tell(),
            buf.high_water, bytes(buf.data))


def _agree(new: FileBuffer, model: DictBuffer, ops, generating: bool):
    for i, op in enumerate(ops):
        got, expected = _step(new, op), _step(model, op)
        assert got == expected, (i, op)
        if op[0] == "reserve" and isinstance(got[0], str):
            return  # the model keeps a failed reservation's first bytes
        # what compiled code and Execution read: where the unreserved bytes
        # from the position end, and how far an inline step may go
        pos, held = new.position, model.reservations
        ahead = min([off for off in held if off >= pos], default=new.budget)
        assert new._free <= pos if pos in held else new._free == ahead, (i, op)
        blocked = generating and pos != len(new.data)  # no append: nothing inline
        assert new._hold == (-1 if blocked else new._free), (i, op)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(budget=st.integers(0, 16), ops=GEN_OPS)
@example(budget=8, ops=[("reserve", 1, b"a"), ("write", b"\x00a"),  # reserved and written
                        ("reserve", 1, b"b")])
@example(budget=8, ops=[("seek", 4), ("write", b"a"), ("reserve", 1, b"ab"),  # over a gap
                        ("reserve", 4, b"a\x00"), ("seek", 0), ("write", b"\x00ab"),
                        ("finalize",)])
@example(budget=8, ops=[("reserve", 2, b"ab"), ("reserve", 5, b"a"), ("reserve", 0, b"\x00\x00a"),
                        ("reserved_block", 0, 4), ("reserve", 4, b"ba"),  # joins three spans
                        ("reserved_block", 1, 5), ("write", b"\x00"), ("finalize",)])
@example(budget=8, ops=[("reserve", 1, b"a"), ("reserve", 2, b"b"),  # joins the last span
                        ("reserved_block", 1, 2)])
@example(budget=8, ops=[("write", b"\x00a"), ("reserve", 3, b"ab"),  # a fix-up: overwritten
                        ("seek", 0), ("write", b"b"), ("seek", 2), ("write", b"\x00ab"),
                        ("finalize",)])
@example(budget=8, ops=[("write", b"abab"), ("seek", 2), ("write", b"ba"),  # ends at the end
                        ("write", b"a"), ("finalize",)])
@example(budget=8, ops=[("seek", 3), ("write", b"a"), ("seek", 1),  # over a gap: slow path
                        ("write", b"b"), ("finalize",), ("seek", 0), ("write", b"ab"),
                        ("finalize",)])
def test_file_buffer_matches_the_dict_model_generating(budget, ops):
    _agree(FileBuffer(budget), DictBuffer(budget), ops, True)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=st.lists(st.sampled_from(b"\x00ab"), max_size=16).map(bytes), ops=PARSE_OPS)
def test_file_buffer_matches_the_dict_model_parsing(data, ops):
    _agree(FileBuffer(data=data), DictBuffer(data=data), ops, False)
