"""Decision stream codec: every choice kind and its parse-side inverse."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfuzz.decisionstream import (
    ChoiceSpec,
    DecisionStream,
    StreamMode,
    bounded_width,
)
from btfuzz.errors import UnrepresentableValue


def gen_stream(seed: bytes, evil=True) -> DecisionStream:
    return DecisionStream(StreamMode.GEN_FROM_SEED, seed=seed, evil_enabled=evil)


def parse_stream(evil=True) -> DecisionStream:
    return DecisionStream(StreamMode.PARSE_RECORD, evil_enabled=evil)


# -- widths and gates --------------------------------------------------------


@pytest.mark.parametrize("span,width", [
    (1, 1), (256, 1), (257, 2), (1 << 16, 2), ((1 << 16) + 1, 4),
    (1 << 32, 4), ((1 << 32) + 1, 8),
])
def test_bounded_width_thresholds(span, width):
    assert bounded_width(span) == width


def test_evil_gate_fires_on_127_mod_128():
    assert gen_stream(b"\x7f").evil_gate() is True
    assert gen_stream(b"\xff").evil_gate() is True  # 255 % 128 == 127
    assert gen_stream(b"\x00").evil_gate() is False
    assert gen_stream(b"\x7e").evil_gate() is False


def test_evil_gate_disabled_consumes_nothing():
    ds = gen_stream(b"", evil=False)
    assert ds.evil_gate() is False
    assert ds.cursor == 0


def test_gate_emission_is_canonical():
    ps = parse_stream()
    ps._emit_gate(False)
    ps._emit_gate(True)
    assert ps.seed == b"\x00\x7f"
    off = parse_stream(evil=False)
    off._emit_gate(False)
    assert off.seed == b""


# -- index choices -----------------------------------------------------------


def test_single_candidate_costs_nothing_without_evil():
    ds = gen_stream(b"", evil=False)
    assert ds.choose_index(1) == 0
    assert ds.cursor == 0


def test_single_candidate_costs_one_byte_with_evil():
    ds = gen_stream(b"\x05")
    assert ds.choose_index(1) == 0  # any byte mod 1
    assert ds.cursor == 1


def test_wide_index_uses_two_bytes():
    ds = gen_stream(b"\x34\x12")
    assert ds.choose_index(300) == 0x1234 % 300
    assert ds.cursor == 2


@given(st.integers(1, 65536), st.data())
@settings(max_examples=200)
def test_index_emission_inverts_choice(k, data):
    idx = data.draw(st.integers(0, k - 1))
    ps = parse_stream()
    ps.emit_index(k, idx)
    assert gen_stream(ps.seed).choose_index(k) == idx


def test_index_wider_than_two_bytes_rejected():
    with pytest.raises(ValueError):
        gen_stream(b"\x00\x00\x00").choose_index(65537)


# -- value choices -----------------------------------------------------------


def test_candidate_value_roundtrip():
    spec = ChoiceSpec(width=1, candidates=[10, 20, 30])
    ps = parse_stream()
    ps.emit_value(spec, 20, b"\x14")
    kind, value = gen_stream(ps.seed).choose_value(spec)
    assert (kind, value) == ("value", 20)


def test_value_not_in_candidates_needs_evil():
    spec = ChoiceSpec(width=1, candidates=[10])
    ps = parse_stream()
    ps.emit_value(spec, 77, b"\x4d")  # evil: raw file byte recorded
    kind, value = gen_stream(ps.seed).choose_value(spec)
    assert (kind, value) == ("raw", b"\x4d")
    off = parse_stream(evil=False)
    with pytest.raises(UnrepresentableValue):
        off.emit_value(spec, 77, b"\x4d")


@given(st.integers(-300, 1000), st.data())
@settings(max_examples=200)
def test_bounded_value_roundtrip(lo, data):
    hi = data.draw(st.integers(lo, lo + 80000))
    value = data.draw(st.integers(lo, hi))
    spec = ChoiceSpec(width=4, bounds=(lo, hi))
    ps = parse_stream()
    ps.emit_value(spec, value, b"")  # raw unused on the bounded path
    kind, got = gen_stream(ps.seed).choose_value(spec)
    assert (kind, got) == ("value", value)


def test_small_unconstrained_value_roundtrip():
    spec = ChoiceSpec(width=4)
    ps = parse_stream()
    ps.emit_value(spec, 65, (65).to_bytes(4, "little"))
    # canonical small form: gate 00, control 00, payload byte
    assert ps.seed == b"\x00\x00\x41"
    kind, got = gen_stream(ps.seed).choose_value(spec)
    assert (kind, got) == ("value", 65)


def test_full_unconstrained_value_emits_raw():
    spec = ChoiceSpec(width=4)
    raw = (300).to_bytes(4, "little")
    ps = parse_stream()
    ps.emit_value(spec, 300, raw)
    assert ps.seed == b"\x00\x03" + raw  # gate, FULL control, verbatim bytes
    kind, got = gen_stream(ps.seed).choose_value(spec)
    assert (kind, got) == ("raw", raw)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_unconstrained_uint32_always_invertible(value):
    spec = ChoiceSpec(width=4)
    raw = value.to_bytes(4, "little")
    ps = parse_stream()
    ps.emit_value(spec, value, raw)
    kind, got = gen_stream(ps.seed).choose_value(spec)
    if kind == "value":
        assert got == value
    else:
        assert got == raw


# -- token choices -----------------------------------------------------------


def test_both_lists_empty_is_deterministic_none():
    spec = ChoiceSpec(width=1, preferred=[], possible=[])
    ds = gen_stream(b"")
    assert ds.choose_token(spec) is None
    assert ds.cursor == 0
    ps = parse_stream()
    assert ps.emit_token(spec, None) is None
    assert ps.seed == b""


def test_preferred_branch_below_threshold():
    spec = ChoiceSpec(width=1, preferred=[b"\xff"], possible=[b"\x01", b"\xff"])
    # gate 00, branch 0x3f < 64 -> preferred, index k=1 -> 1 byte
    ds = gen_stream(b"\x00\x3f\x00")
    assert ds.choose_token(spec) == b"\xff"


def test_possible_branch_at_threshold():
    spec = ChoiceSpec(width=1, preferred=[b"\xff"], possible=[b"\x01", b"\xff"])
    ds = gen_stream(b"\x00\x40\x00")  # branch 64 -> possible[0]
    assert ds.choose_token(spec) == b"\x01"


def test_empty_possible_falls_back_to_preferred():
    spec = ChoiceSpec(width=1, preferred=[b"A"], possible=[])
    ds = gen_stream(b"\x00\xf0\x00")
    assert ds.choose_token(spec) == b"A"


def test_empty_preferred_branch_declines():
    spec = ChoiceSpec(width=1, preferred=[], possible=[b"A"])
    ds = gen_stream(b"\x00\x00")  # gate, branch below threshold
    assert ds.choose_token(spec) is None


@given(st.data())
@settings(max_examples=200)
def test_token_emission_inverts_choice(data):
    alphabet = [b"A", b"B", b"C", b"D"]
    preferred = data.draw(st.lists(st.sampled_from(alphabet), unique=True, max_size=3))
    possible = data.draw(st.lists(st.sampled_from(alphabet), unique=True, max_size=4))
    spec = ChoiceSpec(width=1, preferred=preferred, possible=possible)
    pool = preferred + [t for t in possible if t not in preferred]
    observed = data.draw(st.sampled_from(pool)) if pool else None
    ps = parse_stream()
    token = ps.emit_token(spec, observed)
    assert token == observed
    assert gen_stream(ps.seed).choose_token(spec) == observed


def test_unknown_token_requires_evil():
    spec = ChoiceSpec(width=1, preferred=[b"A"], possible=[b"B"])
    ps = parse_stream()
    assert ps.emit_token(spec, b"Z") == b"Z"
    assert gen_stream(ps.seed).choose_token(spec) == b"Z"
    off = parse_stream(evil=False)
    with pytest.raises(UnrepresentableValue):
        off.emit_token(spec, b"Z")


# -- raw and bounded primitives ---------------------------------------------


def test_emit_bounded_inverts_choose_bounded():
    ps = parse_stream()
    ps.emit_bounded(1000, 0, 4000)
    assert gen_stream(ps.seed).choose_bounded(0, 4000) == 1000


def test_emit_bounded_rejects_out_of_range():
    with pytest.raises(UnrepresentableValue):
        parse_stream().emit_bounded(7, 0, 5)

