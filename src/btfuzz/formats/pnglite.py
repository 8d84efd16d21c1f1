"""Independent validity oracle for PNG-lite.

PNG-lite is PNG trimmed to the chunk set IHDR, PLTE, IDAT, IEND, tIME,
tEXt.  The oracle re-implements the signature check, the chunk ordering
automaton, IHDR's color/bit-depth table, and IDAT decompressibility.  It
checks per-chunk CRC-32 with `zlib.crc32`, which the engine's `crc32` is
too, so the two share one CRC.  All findings are collected, not just the
first.
"""

from __future__ import annotations

import zlib

SIGNATURE = bytes([0x89, 0x50, 0x4E, 0x47, 0x0D, 0x0A, 0x1A, 0x0A])

# bits allowed per color type, straight from the PNG spec's table
BITS_BY_COLOR = {
    0: {1, 2, 4, 8, 16},   # grayscale
    2: {8, 16},            # truecolor
    3: {1, 2, 4, 8},       # indexed
    4: {8, 16},            # grayscale + alpha
    6: {8, 16},            # truecolor + alpha
}


def _check_ihdr(body: bytes, where: str, violations: list[str]):
    if len(body) != 13:
        violations.append(f"{where}: IHDR body is {len(body)} bytes, not 13")
        return
    width = int.from_bytes(body[0:4], "big")
    height = int.from_bytes(body[4:8], "big")
    bits, color, compression, filter_method, interlace = body[8:13]
    if not 1 <= width <= 24:
        violations.append(f"{where}: width {width} outside [1, 24]")
    if not 1 <= height <= 24:
        violations.append(f"{where}: height {height} outside [1, 24]")
    if color not in BITS_BY_COLOR:
        violations.append(f"{where}: unknown color type {color}")
    elif bits not in BITS_BY_COLOR[color]:
        violations.append(f"{where}: bit depth {bits} invalid for color type {color}")
    if compression != 0:
        violations.append(f"{where}: compression method {compression} is not 0")
    if filter_method != 0:
        violations.append(f"{where}: filter method {filter_method} is not 0")
    if interlace not in (0, 1):
        violations.append(f"{where}: interlace method {interlace} is not 0 or 1")


def _check_time(body: bytes, where: str, violations: list[str]):
    if len(body) != 7:
        violations.append(f"{where}: tIME body is {len(body)} bytes, not 7")
        return
    year = int.from_bytes(body[0:2], "big")
    month, day, hour, minute, second = body[2:7]
    for label, value, lo, hi in (("year", year, 2000, 2035), ("month", month, 1, 12),
                                 ("day", day, 1, 28), ("hour", hour, 0, 23),
                                 ("minute", minute, 0, 59), ("second", second, 0, 59)):
        if not lo <= value <= hi:
            violations.append(f"{where}: {label} {value} outside [{lo}, {hi}]")


def verify_pnglite(data: bytes) -> tuple[bool, list[str]]:
    """Verdict plus every violation found."""
    violations: list[str] = []
    if data[:8] != SIGNATURE:
        violations.append("offset 0: missing PNG signature")
        return False, violations
    pos = 8
    allowed = {"IHDR"}
    index = 0
    ended = False
    while pos < len(data):
        if ended:
            violations.append(f"offset {pos}: {len(data) - pos} byte(s) after IEND")
            break
        if pos + 8 > len(data):
            violations.append(f"offset {pos}: chunk header is truncated")
            break
        length = int.from_bytes(data[pos:pos + 4], "big")
        type_raw = data[pos + 4:pos + 8]
        try:
            ctype = type_raw.decode("ascii")
        except UnicodeDecodeError:
            ctype = repr(type_raw)
        where = f"chunk {index} ({ctype})"
        body_end = pos + 8 + length
        if body_end + 4 > len(data):
            violations.append(f"{where}: body of {length} byte(s) is truncated")
            break
        body = data[pos + 8:body_end]
        crc = int.from_bytes(data[body_end:body_end + 4], "big")
        if crc != zlib.crc32(type_raw + body):
            violations.append(f"{where}: bad CRC")
        if ctype not in allowed:
            violations.append(f"{where}: unexpected chunk type")
        if ctype == "IHDR":
            _check_ihdr(body, where, violations)
            allowed = {"PLTE", "tIME", "tEXt", "IDAT"}
        elif ctype == "PLTE":
            if length == 0 or length % 3 != 0:
                violations.append(f"{where}: palette of {length} byte(s) is not "
                                  "a positive multiple of 3")
            allowed.discard("PLTE")
        elif ctype == "IDAT":
            try:
                zlib.decompress(body)
            except zlib.error as exc:
                violations.append(f"{where}: IDAT does not decompress ({exc})")
            allowed = {"tIME", "tEXt", "IEND"}
        elif ctype == "tIME":
            _check_time(body, where, violations)
        elif ctype == "IEND":
            if length != 0:
                violations.append(f"{where}: IEND body must be empty, got {length}")
            ended = True
        pos = body_end + 4
        index += 1
    if not ended:
        violations.append("file ends without an IEND chunk")
    return not violations, violations
