"""Whole-array byte decisions against the per-element reference.

choose_bytes and emit_bytes decide an unconstrained one-byte array in one
call; they must match a choose_value/emit_value loop over the same array
in file bytes, recorded seed, cursor, RNG state and SeedExhausted errors.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from btfuzz.decisionstream import ChoiceSpec, DecisionStream, StreamMode
from btfuzz.engine import generate_from_seed, generate_random, parse, wrap64
from btfuzz.errors import SeedExhausted
from btfuzz.templatelang import parse_template

LENGTHS = st.integers(0, 300)
# seed bytes rich in evil gates (127, 255) and FULL controls (3 mod 4)
SEED_BYTES = st.lists(st.one_of(st.sampled_from([0x03, 0x7F, 0x83, 0xFF]),
                                st.integers(0, 255)), max_size=1000).map(bytes)


def _reference_gen(ds: DecisionStream, n: int) -> bytes:
    spec = ChoiceSpec()
    out = bytearray()
    for _ in range(n):
        kind, payload = ds.choose_value(spec)
        out.append(payload[0] if kind == "raw" else payload)
    return bytes(out)


def _run(fn):
    """fn's result, or the SeedExhausted message it raised."""
    try:
        return fn()
    except SeedExhausted as exc:
        return f"SeedExhausted: {exc}"


@settings(max_examples=150, deadline=None)
@given(n=LENGTHS, evil=st.booleans(), rng_seed=st.integers(0, 2**32),
       before=st.integers(0, 9), after=st.integers(1, 4))
def test_random_batch_matches_per_element(n, evil, rng_seed, before, after):
    streams = []
    for batched in (True, False):
        rng = random.Random(rng_seed)
        ds = DecisionStream(StreamMode.GEN_RANDOM, rng=rng, evil_enabled=evil)
        ds.draw_raw(before)
        out = ds.choose_bytes(n) if batched else _reference_gen(ds, n)
        tail = ds.draw_raw(after)
        streams.append((out, ds.seed, ds.cursor, tail, rng.getstate()))
    assert streams[0] == streams[1]


def test_random_batch_after_evil_gate_fetches_no_spare_word():
    # an evil element takes two draws, not three; a batch that assumed three
    # would leave the RNG one word ahead of the per-element path
    evil_first = [s for s in range(3000)
                  if random.Random(s).randbytes(1)[0] % 128 == 127]
    assert evil_first
    for s in evil_first:
        for n in (1, 2, 3):
            rngs = [random.Random(s), random.Random(s)]
            batched = DecisionStream(StreamMode.GEN_RANDOM, rng=rngs[0])
            reference = DecisionStream(StreamMode.GEN_RANDOM, rng=rngs[1])
            assert batched.choose_bytes(n) == _reference_gen(reference, n)
            assert batched.seed == reference.seed
            assert rngs[0].getstate() == rngs[1].getstate()


@settings(max_examples=150, deadline=None)
@given(n=LENGTHS, evil=st.booleans(), seed=SEED_BYTES)
def test_seed_batch_matches_per_element(n, evil, seed):
    streams = []
    for batched in (True, False):
        ds = DecisionStream(StreamMode.GEN_FROM_SEED, seed=seed, evil_enabled=evil)
        out = _run(lambda: ds.choose_bytes(n) if batched else _reference_gen(ds, n))
        streams.append((out, ds.seed, ds.cursor))
    assert streams[0] == streams[1]


@settings(max_examples=150, deadline=None)
@given(raw=st.binary(max_size=300), evil=st.booleans(), signed=st.booleans())
def test_emit_batch_matches_per_element(raw, evil, signed):
    batched = DecisionStream(StreamMode.PARSE_RECORD, evil_enabled=evil)
    batched.emit_bytes(raw, signed)
    reference = DecisionStream(StreamMode.PARSE_RECORD, evil_enabled=evil)
    for b in raw:
        value = b - 256 if signed and b >= 0x80 else b
        reference.emit_value(ChoiceSpec(), value, bytes([b]))
    assert (batched.seed, batched.cursor) == (reference.seed, reference.cursor)


def _checksum_template(type_name: str, n: int):
    # folds every element value into one number the template logs
    return parse_template(
        f"{type_name} a[{n}];\n"
        "local int64 s = 0;\n"
        "local int i = 0;\n"
        f"for (i = 0; i < {n}; i++) s = s * 31 + a[i];\n"
        'Printf("%d", s);\n')


def _fold(values) -> int:
    s = 0
    for v in values:
        s = wrap64(s * 31 + v)
    return s


@settings(max_examples=60, deadline=None)
@given(type_name=st.sampled_from(["char", "byte", "ubyte", "uchar"]),
       n=LENGTHS, evil=st.booleans(), seed=SEED_BYTES)
@example(type_name="char", n=2, evil=False, seed=b"\x03\x03\x03\x83")  # a[1] is -125
def test_engine_byte_arrays_match_reference(type_name, n, evil, seed):
    signed = type_name in ("char", "byte")
    unit = _checksum_template(type_name, n)
    ds = DecisionStream(StreamMode.GEN_FROM_SEED, seed=seed, evil_enabled=evil)
    expected = _run(lambda: _reference_gen(ds, n))
    got = _run(lambda: generate_from_seed(unit, seed, evil=evil))
    if isinstance(expected, str):
        assert got == expected
        return
    assert (got.file, got.seed) == (expected, ds.seed)
    values = [b - 256 if signed and b >= 0x80 else b for b in expected]
    assert got.log == [("printf", str(_fold(values)))]

    outcome = parse(unit, got.file, evil=evil)
    reference = DecisionStream(StreamMode.PARSE_RECORD, evil_enabled=evil)
    for b, v in zip(expected, values):
        reference.emit_value(ChoiceSpec(), v, bytes([b]))
    assert outcome.seed == reference.seed
    assert outcome.log == got.log
    assert generate_from_seed(unit, outcome.seed, evil=evil).file == got.file


@settings(max_examples=40, deadline=None)
@given(n=LENGTHS, evil=st.booleans(), rng_seed=st.integers(0, 2**32))
def test_engine_random_byte_array_matches_reference(n, evil, rng_seed):
    unit = parse_template(f"ubyte a[{n}];\nuint16 tail;\n")
    rng = random.Random(rng_seed)
    got = generate_random(unit, rng, evil=evil)
    ref_rng = random.Random(rng_seed)
    ds = DecisionStream(StreamMode.GEN_RANDOM, rng=ref_rng, evil_enabled=evil)
    expected = _reference_gen(ds, n)
    kind, payload = ds.choose_value(ChoiceSpec(width=2))
    expected += payload if kind == "raw" else payload.to_bytes(2, "little")
    assert (got.file, got.seed) == (expected, ds.seed)
    assert rng.getstate() == ref_rng.getstate()
