"""Decision stream codec: every choice kind and its parse-side inverse."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfuzz.decisionstream import (
    ChoiceSpec,
    DecisionStream,
    RandomSource,
    SeedSource,
    _Splice,
    bounded_width,
)
from btfuzz.errors import EvalError, UnrepresentableValue


def gen_stream(seed: bytes, evil=True) -> DecisionStream:
    return DecisionStream(SeedSource(seed), evil_enabled=evil)


def parse_stream(evil=True) -> DecisionStream:
    return DecisionStream(evil_enabled=evil)


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
    with pytest.raises(EvalError, match="among 65537 options"):
        gen_stream(b"\x00\x00\x00").choose_index(65537)
    with pytest.raises(EvalError, match="among 65537 options"):
        parse_stream().emit_index(65537, 65536)


# -- value choices -----------------------------------------------------------


def test_candidate_value_roundtrip():
    spec = ChoiceSpec(width=1, candidates=[10, 20, 30])
    ps = parse_stream()
    ps.emit_value(spec, 20, b"\x14")
    assert gen_stream(ps.seed).choose_value(spec) == 20


def test_value_not_in_candidates_needs_evil():
    spec = ChoiceSpec(width=1, candidates=[10])
    ps = parse_stream()
    ps.emit_value(spec, 77, b"\x4d")  # evil: raw file byte recorded
    assert gen_stream(ps.seed).choose_value(spec) == b"\x4d"
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
    assert gen_stream(ps.seed).choose_value(spec) == value


def test_small_unconstrained_value_roundtrip():
    spec = ChoiceSpec(width=4)
    ps = parse_stream()
    ps.emit_value(spec, 65, (65).to_bytes(4, "little"))
    # canonical small form: gate 00, control 00, payload byte
    assert ps.seed == b"\x00\x00\x41"
    assert gen_stream(ps.seed).choose_value(spec) == 65


def test_full_unconstrained_value_emits_raw():
    spec = ChoiceSpec(width=4)
    raw = (300).to_bytes(4, "little")
    ps = parse_stream()
    ps.emit_value(spec, 300, raw)
    assert ps.seed == b"\x00\x03" + raw  # gate, FULL control, verbatim bytes
    assert gen_stream(ps.seed).choose_value(spec) == raw


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_unconstrained_uint32_always_invertible(value):
    spec = ChoiceSpec(width=4)
    raw = value.to_bytes(4, "little")
    ps = parse_stream()
    ps.emit_value(spec, value, raw)
    # a value that fits one byte decodes to an int, any other comes back as its bytes
    assert gen_stream(ps.seed).choose_value(spec) == (value if value <= 255 else raw)


# -- token choices -----------------------------------------------------------


def test_both_lists_empty_is_deterministic_none():
    ds = gen_stream(b"")
    assert ds.choose_token(1, [], [], 0.25) is None
    assert ds.cursor == 0
    ps = parse_stream()
    assert ps.emit_token([], [], 0.25, None) is None
    assert ps.seed == b""


def test_preferred_branch_below_threshold():
    # gate 00, branch 0x3f < 64 -> preferred, index k=1 -> 1 byte
    ds = gen_stream(b"\x00\x3f\x00")
    assert ds.choose_token(1, [b"\xff"], [b"\x01", b"\xff"], 0.25) == b"\xff"


def test_possible_branch_at_threshold():
    ds = gen_stream(b"\x00\x40\x00")  # branch 64 -> possible[0]
    assert ds.choose_token(1, [b"\xff"], [b"\x01", b"\xff"], 0.25) == b"\x01"


def test_empty_possible_falls_back_to_preferred():
    ds = gen_stream(b"\x00\xf0\x00")
    assert ds.choose_token(1, [b"A"], [], 0.25) == b"A"


def test_empty_preferred_branch_declines():
    ds = gen_stream(b"\x00\x00")  # gate, branch below threshold
    assert ds.choose_token(1, [], [b"A"], 0.25) is None


@given(st.data())
@settings(max_examples=200)
def test_token_emission_inverts_choice(data):
    alphabet = [b"A", b"B", b"C", b"D"]
    preferred = data.draw(st.lists(st.sampled_from(alphabet), unique=True, max_size=3))
    possible = data.draw(st.lists(st.sampled_from(alphabet), unique=True, max_size=4))
    pool = preferred + [t for t in possible if t not in preferred]
    observed = data.draw(st.sampled_from(pool)) if pool else None
    ps = parse_stream()
    token = ps.emit_token(preferred, possible, 0.25, observed)
    assert token == observed
    assert gen_stream(ps.seed).choose_token(1, preferred, possible, 0.25) == observed


def test_unknown_token_requires_evil():
    lists = [b"A"], [b"B"], 0.25
    ps = parse_stream()
    assert ps.emit_token(*lists, b"Z") == b"Z"
    assert gen_stream(ps.seed).choose_token(1, *lists) == b"Z"
    off = parse_stream(evil=False)
    with pytest.raises(UnrepresentableValue):
        off.emit_token(*lists, b"Z")


# -- raw and bounded primitives ---------------------------------------------


def test_emit_bounded_inverts_choose_bounded():
    ps = parse_stream()
    ps.emit_bounded(1000, 0, 4000)
    assert gen_stream(ps.seed).choose_bounded(0, 4000) == 1000


def test_emit_bounded_rejects_out_of_range():
    with pytest.raises(UnrepresentableValue):
        parse_stream().emit_bounded(7, 0, 5)


# -- each kind's method against choose_value and emit_value -----------------
#
# Compiled code calls plain, bounded, pick and forced (and their emit_*
# inverses) for a field whose spec the compiler knows.  Each must draw the
# bytes that choose_value draws for that spec, and emit what emit_value
# emits, so every seed and file stays the same.  reference_choose_value and
# reference_emission restate the wire protocol (module docstring) for one
# spec each, apart from the kind methods.


def reference_choose_value(ds: DecisionStream, spec: ChoiceSpec):
    source = ds.source
    if ds.evil_enabled and source.draw(1)[0] % 128 == 127:
        return source.draw(spec.width)
    if spec.candidates:
        k = len(spec.candidates)
        if k == 1 and not ds.evil_enabled:
            return spec.candidates[0]
        raw = source.draw(1)[0] if k <= 256 else int.from_bytes(source.draw(2), "little")
        return spec.candidates[raw % k]
    if spec.bounds is not None:
        lo, hi = spec.bounds
        span = hi - lo + 1
        return lo + int.from_bytes(source.draw(bounded_width(span)), "little") % span
    if source.draw(1)[0] % 4 < 3:
        return source.draw(1)[0]
    return source.draw(spec.width)


def reference_emission(spec: ChoiceSpec, value, raw: bytes, evil: bool) -> bytes:
    gate = b"\x00" if evil else b""
    if spec.candidates:
        if value in spec.candidates:
            k, idx = len(spec.candidates), spec.candidates.index(value)
            return gate + (b"" if k == 1 and not evil else bytes([idx]) if k <= 256
                           else idx.to_bytes(2, "little"))
    elif spec.bounds is not None:
        lo, hi = spec.bounds
        if isinstance(value, int) and lo <= value <= hi:
            return gate + (value - lo).to_bytes(bounded_width(hi - lo + 1), "little")
    else:
        return gate + (bytes([0, value]) if isinstance(value, int) and 0 <= value <= 255
                       else bytes([3]) + raw)
    if evil:
        return b"\x7f" + raw
    raise UnrepresentableValue(f"value {value!r} has no encoding")


CANDIDATES = {k: list(range(100, 100 + k)) for k in (2, 257, 65536)}


def _kind(name: str, width: int, data):
    """(spec, draw(ds), emit(ds, value, raw)) of one kind of field."""
    if name == "plain":
        return (ChoiceSpec(width=width), lambda ds: ds.plain(width),
                lambda ds, v, raw: ds.emit_plain(v, raw))
    if name.startswith("bounded"):
        span = data.draw(st.integers(1, 256) if name == "bounded_small"
                         else st.integers(257, 1 << 20))
        lo = data.draw(st.integers(-1000, 1000))
        return (ChoiceSpec(width=width, bounds=(lo, lo + span - 1)),
                lambda ds: ds.bounded(lo, span, width),
                lambda ds, v, raw: ds.emit_within(v, raw, lo, span))
    if name == "forced":
        value = data.draw(st.integers(0, 255))
        return (ChoiceSpec(width=width, candidates=[value]), lambda ds: ds.forced(value, width),
                lambda ds, v, raw: ds.emit_forced(v, raw, value))
    cands = [7] if name == "pick1" else CANDIDATES[int(name[4:])]
    return (ChoiceSpec(width=width, candidates=cands), lambda ds: ds.pick(cands, width),
            lambda ds, v, raw: ds.emit_pick(v, raw, cands))


def _outcome(call, ds: DecisionStream):
    """What call(ds) gives or raises, and the state it leaves its source in."""
    try:
        result = call(ds)
    except Exception as exc:  # noqa: BLE001  (the class is what is compared)
        result = type(exc)
    source = ds.source
    return result, source.pos, source.rng.getstate() if isinstance(source, RandomSource) else None


KINDS = ["plain", "bounded_small", "bounded_large", "pick1", "pick2", "pick257", "pick65536",
         "forced"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("evil", [True, False], ids=["evil", "no-evil"])
@pytest.mark.parametrize("random_source", [False, True], ids=["seed", "random"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_each_kind_draws_as_choose_value(kind, evil, random_source, data):
    width = data.draw(st.sampled_from([1, 2, 4]))
    spec, draw, _ = _kind(kind, width, data)
    if random_source:
        rng_seed = data.draw(st.integers(0, 1 << 32))
        source = lambda: RandomSource(random.Random(rng_seed))  # noqa: E731
    else:  # often too short, so the error and where it leaves the seed count too
        seed = data.draw(st.binary(max_size=8))
        source = lambda: SeedSource(seed)  # noqa: E731
    outcomes = [_outcome(call, DecisionStream(source(), evil_enabled=evil)) for call in
                (draw, lambda ds: ds.choose_value(spec),
                 lambda ds: reference_choose_value(ds, spec))]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("evil", [True, False], ids=["evil", "no-evil"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_each_kind_emits_as_emit_value(kind, evil, data):
    width = data.draw(st.sampled_from([1, 2, 4]))
    spec, _, emit = _kind(kind, width, data)
    near = spec.candidates or spec.bounds or [0, 255]
    value = data.draw(st.one_of(st.sampled_from(near), st.integers(min(near) - 2, max(near) + 2),
                                st.integers(-(1 << 31), 1 << 32)))
    raw = data.draw(st.binary(min_size=width, max_size=width))
    outcomes = []
    for call in (emit, lambda ds, v, r: ds.emit_value(spec, v, r)):
        ds = DecisionStream(evil_enabled=evil)
        try:
            call(ds, value, raw)
            outcomes.append(ds.seed)
        except UnrepresentableValue:
            outcomes.append(UnrepresentableValue)
    try:
        expected = reference_emission(spec, value, raw, evil)
    except UnrepresentableValue:
        expected = UnrepresentableValue
    assert outcomes == [expected, expected]


# -- splices ----------------------------------------------------------------


def test_spliced_stream_is_freed_without_the_cycle_collector():
    # a mutation campaign makes one spliced stream per attempt; one kept
    # alive until the cyclic GC runs raises the campaign's peak memory
    gc.disable()
    try:
        ds = DecisionStream(SeedSource(bytes(2)))
        splice = _Splice(ds, bytes(8), (2, 4), 0, SeedSource(bytes(2)))
        ds.draw_raw(2)
        splice.begin_alt()
        freed = weakref.ref(ds), weakref.ref(splice)
        del ds, splice
        assert [ref() for ref in freed] == [None, None]
    finally:
        gc.enable()
