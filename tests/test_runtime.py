"""File buffer and parse-tree plumbing."""

import pytest

from btfuzz.errors import (
    BudgetExceeded,
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
