"""Stored-block zlib container codec.

The default IDAT body hook: raw bytes are wrapped in a zlib container
holding a single stored (uncompressed) deflate block.  Nothing here uses
the zlib module; the oracle side does, which keeps the two independent.
"""

from __future__ import annotations

from ..errors import DecodeError

ADLER_MOD = 65521

# CMF 0x78 (deflate, 32K window) and a FLG that makes the pair a
# multiple of 31 with no preset dictionary.
_CMF = 0x78
_FLG = 0x01


def adler32(data: bytes) -> int:
    a, b = 1, 0
    for byte in data:
        a = (a + byte) % ADLER_MOD
        b = (b + a) % ADLER_MOD
    return (b << 16) | a


class StoredZlibCodec:
    """The codec a CodecStream names as "zlib_stored"."""

    name = "zlib_stored"

    @staticmethod
    def encode(raw: bytes) -> bytes:
        """Wrap raw bytes as a zlib container with one stored deflate block."""
        if len(raw) > 0xFFFF:
            raise ValueError(f"stored block holds at most 65535 bytes, got {len(raw)}")
        length = len(raw)
        out = bytearray([_CMF, _FLG])
        out.append(0x01)  # BFINAL=1, BTYPE=00 (stored)
        out += length.to_bytes(2, "little")
        out += (length ^ 0xFFFF).to_bytes(2, "little")
        out += raw
        out += adler32(raw).to_bytes(4, "big")
        return bytes(out)

    @staticmethod
    def decode(stream: bytes) -> bytes:
        """Invert encode; DecodeError on any malformed container."""
        if len(stream) < 7:
            raise DecodeError(f"container of {len(stream)} bytes is too short")
        cmf, flg = stream[0], stream[1]
        if cmf & 0x0F != 8:
            raise DecodeError(f"compression method {cmf & 0x0F} is not deflate")
        if (cmf << 8 | flg) % 31 != 0:
            raise DecodeError("header check bits do not validate")
        if flg & 0x20:
            raise DecodeError("preset dictionaries are not supported")
        pos = 2
        raw = bytearray()
        while True:
            if pos >= len(stream):
                raise DecodeError("deflate data ends before the final block")
            header = stream[pos]
            pos += 1
            if header & 0x06:
                raise DecodeError("only stored deflate blocks are supported")
            if pos + 4 > len(stream):
                raise DecodeError("stored block header is truncated")
            length = int.from_bytes(stream[pos:pos + 2], "little")
            nlen = int.from_bytes(stream[pos + 2:pos + 4], "little")
            if nlen != length ^ 0xFFFF:
                raise DecodeError(f"stored block length check fails ({length} vs ~{nlen})")
            pos += 4
            if pos + length > len(stream):
                raise DecodeError("stored block data is truncated")
            raw += stream[pos:pos + length]
            pos += length
            if header & 0x01:
                break
        if pos + 4 > len(stream):
            raise DecodeError("missing checksum trailer")
        checksum = int.from_bytes(stream[pos:pos + 4], "big")
        if checksum != adler32(bytes(raw)):
            raise DecodeError(f"checksum mismatch ({checksum:#010x})")
        if pos + 4 != len(stream):
            raise DecodeError(f"{len(stream) - pos - 4} byte(s) after the checksum")
        return bytes(raw)
