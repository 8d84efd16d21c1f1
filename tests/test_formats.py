"""Bundled format oracles and the stored-zlib body codec."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfuzz.engine import generate_random
from btfuzz.errors import DecodeError
from btfuzz.formats import (
    BUNDLED,
    VERIFIERS,
    load_template,
    resolve_template,
    verify,
)
from btfuzz.formats.mini import verify_mini
from btfuzz.formats.pnglite import SIGNATURE, verify_pnglite
from btfuzz.formats.zstream import StoredZlibCodec, adler32


def png_chunk(ctype: bytes, body: bytes) -> bytes:
    return (len(body).to_bytes(4, "big") + ctype + body
            + zlib.crc32(ctype + body).to_bytes(4, "big"))


def ihdr(width=1, height=1, bits=8, color=0, interlace=0) -> bytes:
    body = (width.to_bytes(4, "big") + height.to_bytes(4, "big")
            + bytes([bits, color, 0, 0, interlace]))
    return png_chunk(b"IHDR", body)


IEND = png_chunk(b"IEND", b"")


# -- MINI oracle ----------------------------------------------------------------


def test_mini_minimal_valid():
    assert verify_mini(b"MINI\xff") == (True, None)


def test_mini_data_chunk_valid(mini_file):
    ok, violation = verify_mini(mini_file([b"AB", b"\x00"]))
    assert ok and violation is None


def test_mini_wrong_magic():
    ok, violation = verify_mini(b"MIMI\xff")
    assert not ok and "offset 0" in violation


def test_mini_bad_check_byte():
    data = b"MINI\x01\x01\x00A" + b"\x00" + b"\xff"  # check should be 0x41
    ok, violation = verify_mini(data)
    assert not ok and "check byte" in violation


def test_mini_missing_end(mini_file):
    data = mini_file([b"A"])[:-1]
    ok, violation = verify_mini(data)
    assert not ok and "without an END" in violation


def test_mini_unknown_tag():
    ok, violation = verify_mini(b"MINI\x02\xff")
    assert not ok and "unknown tag" in violation


def test_mini_length_bounds():
    too_long = b"MINI\x01\x11\x00" + b"A" * 17 + bytes([(ord("A") * 17) % 256]) + b"\xff"
    ok, violation = verify_mini(too_long)
    assert not ok and "outside [1, 16]" in violation
    zero = b"MINI\x01\x00\x00\x00\xff"
    ok, violation = verify_mini(zero)
    assert not ok and "outside" in violation


def test_mini_bytes_after_end():
    ok, violation = verify_mini(b"MINI\xff\x00")
    assert not ok and "after END" in violation


def test_mini_oracle_agrees_with_generator(mini):
    for i in range(50):
        file = generate_random(mini, random.Random(i), evil=False).file
        ok, violation = verify_mini(file)
        assert ok, violation


# -- pnglite oracle ---------------------------------------------------------------


def test_pnglite_generated_files_valid(pnglite):
    good = 0
    for i in range(50):
        file = generate_random(pnglite, random.Random(i), evil=False).file
        ok, _ = verify_pnglite(file)
        good += ok
    assert good >= 45  # a small tail of benign oracle misses is expected


def test_pnglite_handcrafted_minimal():
    idat = png_chunk(b"IDAT", zlib.compress(b"\x00", 0))
    ok, violations = verify_pnglite(SIGNATURE + ihdr() + idat + IEND)
    assert ok, violations


def test_pnglite_crc_flip_detected():
    idat = png_chunk(b"IDAT", zlib.compress(b"\x00", 0))
    data = bytearray(SIGNATURE + ihdr() + idat + IEND)
    data[-1] ^= 0xFF  # corrupt IEND's CRC
    ok, violations = verify_pnglite(bytes(data))
    assert not ok
    assert any("IEND" in v and "bad CRC" in v for v in violations)


def test_pnglite_bits_color_table():
    idat = png_chunk(b"IDAT", zlib.compress(b"\x00", 0))
    data = SIGNATURE + ihdr(bits=3, color=0) + idat + IEND
    ok, violations = verify_pnglite(data)
    assert not ok
    assert any("bit depth 3 invalid for color type 0" in v for v in violations)


def test_pnglite_ordering_plte_after_idat():
    idat = png_chunk(b"IDAT", zlib.compress(b"\x00", 0))
    plte = png_chunk(b"PLTE", b"\x00\x00\x00")
    data = SIGNATURE + ihdr() + idat + plte + IEND
    ok, violations = verify_pnglite(data)
    assert not ok
    assert any("PLTE" in v and "unexpected" in v for v in violations)


def test_pnglite_idat_must_decompress():
    idat = png_chunk(b"IDAT", b"\x00\x01\x02")
    data = SIGNATURE + ihdr() + idat + IEND
    ok, violations = verify_pnglite(data)
    assert not ok
    assert any("does not decompress" in v for v in violations)


def test_pnglite_missing_iend():
    idat = png_chunk(b"IDAT", zlib.compress(b"\x00", 0))
    ok, violations = verify_pnglite(SIGNATURE + ihdr() + idat)
    assert not ok
    assert any("without an IEND" in v for v in violations)


def test_pnglite_time_ranges():
    body = (2026).to_bytes(2, "big") + bytes([13, 1, 0, 0, 0])
    time_chunk = png_chunk(b"tIME", body)
    idat = png_chunk(b"IDAT", zlib.compress(b"\x00", 0))
    ok, violations = verify_pnglite(SIGNATURE + ihdr() + time_chunk + idat + IEND)
    assert not ok
    assert any("month 13" in v for v in violations)


# -- stored-zlib codec -------------------------------------------------------------


@given(st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_adler32_matches_zlib(data):
    assert adler32(data) == zlib.adler32(data)


@given(st.binary(max_size=300))
@settings(max_examples=100, deadline=None)
def test_codec_identity(data):
    assert StoredZlibCodec.decode(StoredZlibCodec.encode(data)) == data


@given(st.binary(max_size=200))
@settings(max_examples=50, deadline=None)
def test_codec_output_is_real_zlib(data):
    assert zlib.decompress(StoredZlibCodec.encode(data)) == data


def test_codec_reads_zlib_stored_output():
    # zlib at level 0 also emits stored blocks, which we must accept
    for raw in (b"", b"x", b"hello world" * 20):
        assert StoredZlibCodec.decode(zlib.compress(raw, 0)) == raw


def test_codec_rejects_oversized_payload():
    with pytest.raises(ValueError):
        StoredZlibCodec.encode(b"\x00" * 0x10000)
    assert StoredZlibCodec.encode(b"\x00" * 0xFFFF)  # boundary is fine


@pytest.mark.parametrize("mangle, reason", [
    (lambda c: c[:5], "too short"),
    (lambda c: c[:9], "truncated"),
    (lambda c: c[:-4] + b"\x00\x00\x00\x00", "checksum"),
    (lambda c: b"\x79" + c[1:], "deflate"),
    # FLG 0x20 keeps the mod-31 header check happy but sets FDICT
    (lambda c: bytes([c[0], 0x20]) + c[2:], "preset"),
    (lambda c: c[:2] + b"\x03" + c[3:], "stored"),
])
def test_codec_rejects_malformed(mangle, reason):
    container = StoredZlibCodec.encode(b"payload")
    with pytest.raises(DecodeError) as err:
        StoredZlibCodec.decode(mangle(container))
    assert reason in str(err.value)


def test_codec_rejects_trailing_garbage():
    with pytest.raises(DecodeError):
        StoredZlibCodec.decode(StoredZlibCodec.encode(b"x") + b"\x00")


# -- template registry ----------------------------------------------------------


def test_bundled_templates_load():
    for name in BUNDLED:
        unit = load_template(name)
        assert unit.declarations


def test_resolve_template_from_path(tmp_path):
    path = tmp_path / "tiny.bt"
    path.write_text("ubyte x;")
    name, text = resolve_template(str(path))
    assert name == "tiny"
    assert text == "ubyte x;"


def test_resolve_template_unknown():
    with pytest.raises(FileNotFoundError):
        resolve_template("no-such-template")


def test_verify_dispatch():
    ok, violations = verify("mini", b"MINI\xff")
    assert ok and violations == []
    ok, violations = verify("mini", b"JUNK")
    assert not ok and len(violations) == 1
    with pytest.raises(KeyError):
        verify("magic16", b"\xcd\xab")  # magic16 has no oracle


def test_verifiers_cover_oracle_formats():
    assert set(VERIFIERS) == {"mini", "pnglite"}
