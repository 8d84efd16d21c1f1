"""Decision streams: the byte-level protocol between seeds and choices.

A decision seed is a flat byte string.  Generation consumes it through the
choice operations below; parsing runs the same operations in reverse and
emits the canonical byte encoding of every observed choice.  The two
directions are exact inverses: generating from a parse-emitted seed
reproduces the parsed file bit for bit.

Wire protocol, in consumption order:

  evil gate      one byte b0 when evil decisions are enabled, none when
                 disabled.  Evil if and only if b0 mod 128 == 127, so a
                 uniformly random byte turns evil with probability 1/128.
                 Parsing emits 127 for evil and 0 otherwise.
  index choice   choosing among k known options.  k == 1 with evil
                 disabled is forced and consumes nothing.  Otherwise one
                 byte b1 gives b1 mod k (two little-endian bytes when
                 k > 256).  Parsing emits the index itself.
  bounded value  minimal little-endian width covering max-min+1; the
                 value is min + raw mod span.
  unconstrained  a control byte c.  c mod 4 < 3 selects the SMALL class
                 (one payload byte, values 0..255); otherwise the FULL
                 class (width payload bytes, used verbatim as the field's
                 file bytes).  Parsing emits control 0 for 0..255 values
                 and control 3 plus the file bytes otherwise.
  token choice   for lookahead-driven chunk ordering; see choose_token.

The stream knows nothing of templates: the engine reads `cursor` to
locate decisions in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, auto

from .errors import SeedExhausted, SpliceMisaligned, UnrepresentableValue

EVIL_MODULUS = 128
EVIL_RESIDUE = 127
SMALL_CLASSES = 3  # control byte classes 0..2 are SMALL, 3 is FULL


class StreamMode(Enum):
    GEN_FROM_SEED = auto()
    GEN_RANDOM = auto()
    PARSE_RECORD = auto()


@dataclass
class ChoiceSpec:
    """Constraints gathered for one choice point."""

    width: int = 1
    candidates: list | None = None  # ints, or byte strings for whole arrays
    bounds: tuple[int, int] | None = None
    preferred: list[bytes] | None = None
    possible: list[bytes] | None = None
    pref_prob: float = 0.25


def bounded_width(span: int) -> int:
    """Minimal raw byte width whose range covers `span` values."""
    if span <= 1 << 8:
        return 1
    if span <= 1 << 16:
        return 2
    if span <= 1 << 32:
        return 4
    return 8


# Seed bytes of one unconstrained one-byte element: [gate] control byte,
# or [gate] byte when the gate is evil.  Either way the element's file
# byte is its last seed byte.  _EVIL_MARK maps a gate byte to 1 if evil.
_EVIL_MARK = bytes(b % EVIL_MODULUS == EVIL_RESIDUE for b in range(256))
_RUN = 128  # gates scanned per step; one in 128 random gates is evil


def _decode_bytes(buf: bytes, i: int, n: int, gated: bool) -> tuple[bytes, int]:
    """File bytes of up to n such elements read from buf[i:], stopping at
    the first element buf cannot complete, plus the offset after the last
    complete one."""
    if not gated:
        m = min(n, (len(buf) - i) // 2)
        return bytes(buf[i + 1:i + 2 * m:2]), i + 2 * m
    out = bytearray()
    end = len(buf)
    while len(out) < n:
        # a run of three-byte elements up to the next evil gate
        k = min(n - len(out), (end - i) // 3, _RUN)
        run = buf[i:i + 3 * k:3].translate(_EVIL_MARK).find(1)
        if run < 0:
            run = k
        out += buf[i + 2:i + 3 * run:3]
        i += 3 * run
        if run == k:
            if k == _RUN or len(out) == n:
                continue
            # under three bytes left: only an evil element can still fit
            if i + 2 > end or not _EVIL_MARK[buf[i]]:
                break
        out.append(buf[i + 1])
        i += 2
    return bytes(out), i


# Control byte emitted per file byte of a signed one-byte element: bytes
# 0x80..0xff decode to negative values, which only the FULL class holds.
_SIGNED_CONTROL = bytes(SMALL_CLASSES if b >= 0x80 else 0 for b in range(256))


# --- byte sources for generation ------------------------------------------


class _SeedSource:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def draw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SeedExhausted(
                f"need {n} byte(s) at seed offset {self.pos}, have {len(self.data) - self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out


class _RandomSource:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def draw(self, n: int) -> bytes:
        return self.rng.randbytes(n)

    def draw_singles(self, n: int) -> bytes:
        """The bytes of n successive draw(1) calls, fetched at once.

        draw(1) is the top byte of one MT19937 word, and randbytes(4*n)
        holds n words little-endian, so this uses the same n words and
        leaves the generator in the same state."""
        return self.rng.randbytes(4 * n)[3::4]


class _SpliceSource:
    """Prefix from a base seed, a spliced-in middle, then the base suffix.

    The engine marks the middle: begin_alt when it starts the target node,
    which must be where the base's prefix runs out, and end_alt when that
    node has completed.
    """

    PREFIX, ALT, SUFFIX = 0, 1, 2

    def __init__(self, base: bytes, span: tuple[int, int], alt):
        self.base = base
        self.start, self.resume = span
        self.alt = alt  # _SeedSource (donor bytes) or _RandomSource
        self.phase = self.PREFIX
        self.pos = 0  # position within base for prefix/suffix

    def begin_alt(self):
        if self.pos != self.start:
            raise SpliceMisaligned(
                f"splice target starts at seed offset {self.pos}, not {self.start}")
        self.phase = self.ALT

    def end_alt(self):
        if isinstance(self.alt, _SeedSource) and self.alt.pos != len(self.alt.data):
            left = len(self.alt.data) - self.alt.pos
            raise SpliceMisaligned(f"{left} donor decision byte(s) left unconsumed")
        self.phase = self.SUFFIX
        self.pos = self.resume

    def draw(self, n: int) -> bytes:
        if self.phase == self.PREFIX:
            if self.pos + n > self.start:
                raise SpliceMisaligned(
                    f"draw of {n} byte(s) at {self.pos} crosses the splice boundary {self.start}")
            out = self.base[self.pos:self.pos + n]
            self.pos += n
        elif self.phase == self.ALT:
            try:
                out = self.alt.draw(n)
            except SeedExhausted as exc:
                raise SpliceMisaligned(f"donor decision bytes exhausted: {exc}") from exc
        else:
            if self.pos + n > len(self.base):
                raise SpliceMisaligned("base seed suffix exhausted after splice")
            out = self.base[self.pos:self.pos + n]
            self.pos += n
        return out


# --- the stream ------------------------------------------------------------


class DecisionStream:
    """One direction of the seed protocol.

    Generation modes consume bytes (from a fixed seed or a seeded PRNG,
    recording everything so any run is replayable).  Parse mode emits the
    canonical encoding of observed values.  Either way `seed` holds the
    bytes so far and `cursor` their count.
    """

    def __init__(self, mode: StreamMode, *, seed: bytes | None = None,
                 rng: random.Random | int | None = None,
                 evil_enabled: bool = True,
                 splice: tuple[tuple[int, int], object] | None = None):
        self.mode = mode
        self.evil_enabled = evil_enabled
        self._recorded = bytearray()
        self._source = None
        self.splice: _SpliceSource | None = None  # the source, during a splice
        if mode is StreamMode.GEN_FROM_SEED:
            if splice is not None:
                span, alt = splice
                if isinstance(alt, (bytes, bytearray)):
                    alt_source = _SeedSource(bytes(alt))
                else:
                    alt_source = _RandomSource(self._coerce_rng(alt))
                self._source = self.splice = _SpliceSource(seed or b"", span, alt_source)
            else:
                self._source = _SeedSource(seed or b"")
        elif mode is StreamMode.GEN_RANDOM:
            self._source = _RandomSource(self._coerce_rng(rng))
        elif mode is not StreamMode.PARSE_RECORD:
            raise ValueError(f"unsupported mode {mode}")

    @staticmethod
    def _coerce_rng(rng) -> random.Random:
        if isinstance(rng, random.Random):
            return rng
        return random.Random(rng)

    # -- bookkeeping ---------------------------------------------------

    @property
    def cursor(self) -> int:
        return len(self._recorded)

    @property
    def seed(self) -> bytes:
        """Bytes consumed (generation) or emitted (parse) so far."""
        return bytes(self._recorded)

    def set_evil(self, enabled: bool) -> bool:
        previous = self.evil_enabled
        self.evil_enabled = bool(enabled)
        return previous

    # -- generation primitives ------------------------------------------

    def _draw(self, n: int) -> bytes:
        out = self._source.draw(n)
        self._recorded.extend(out)
        return out

    def draw_raw(self, n: int) -> bytes:
        """Consume n verbatim bytes (codec payloads, length substitutes)."""
        return self._draw(n)

    def evil_gate(self) -> bool:
        if not self.evil_enabled:
            return False
        return self._draw(1)[0] % EVIL_MODULUS == EVIL_RESIDUE

    def choose_index(self, k: int) -> int:
        if k < 1:
            raise ValueError(f"choose_index over {k} options")
        if k == 1 and not self.evil_enabled:
            return 0
        if k <= 256:
            return self._draw(1)[0] % k
        if k <= 65536:
            return int.from_bytes(self._draw(2), "little") % k
        raise ValueError(f"choose_index supports at most 65536 options, got {k}")

    def choose_bounded(self, lo: int, hi: int) -> int:
        """A value in [lo, hi], gate-free (codec payload lengths)."""
        span = hi - lo + 1
        raw = int.from_bytes(self._draw(bounded_width(span)), "little")
        return lo + raw % span

    def emit_bounded(self, value: int, lo: int, hi: int):
        """Canonical gate-free inverse of choose_bounded."""
        if not lo <= value <= hi:
            raise UnrepresentableValue(f"{value} outside bounded range [{lo}, {hi}]")
        width = bounded_width(hi - lo + 1)
        self.emit_raw((value - lo).to_bytes(width, "little"))

    def choose_value(self, spec: ChoiceSpec) -> tuple[str, object]:
        """One field value.  Returns ("value", v) for a decoded value or
        ("raw", bytes) when the seed supplies the field's file bytes
        verbatim (evil values and FULL-class unconstrained values)."""
        if self.evil_gate():
            return ("raw", self.draw_raw(spec.width))
        if spec.candidates:
            idx = self.choose_index(len(spec.candidates))
            return ("value", spec.candidates[idx])
        if spec.bounds is not None:
            lo, hi = spec.bounds
            return ("value", self.choose_bounded(lo, hi))
        control = self._draw(1)[0]
        if control % 4 < SMALL_CLASSES:
            return ("value", self._draw(1)[0])
        return ("raw", self._draw(spec.width))

    def choose_bytes(self, n: int) -> bytes:
        """File bytes of n unconstrained one-byte elements.

        Consumes and records the same seed bytes, and leaves the same RNG
        state, as choose_value(ChoiceSpec()) once per element; seed and
        random sources decode the whole array in one pass.
        """
        source = self._source
        gated = self.evil_enabled
        if isinstance(source, _SeedSource):
            data, pos = source.data, source.pos
            out, end = _decode_bytes(data, pos, n, gated)
            if len(out) < n:
                # per element, the first draw past the end is the one that fails
                self._recorded += data[pos:]
                source.pos = len(data)
                source.draw(1)
            self._recorded += data[pos:end]
            source.pos = end
            return out
        if isinstance(source, _RandomSource):
            # Fetch a lower bound of the draws still needed (at least 2
            # per element, exactly known once its gate is seen), so every
            # word fetched is used and the RNG ends where it would per element.
            out = bytearray()
            pending = b""  # the draws of an element not yet complete
            while len(out) < n:
                cost = 3 - _EVIL_MARK[pending[0]] if gated and pending else 2
                block = pending + source.draw_singles(
                    cost - len(pending) + 2 * (n - len(out) - 1))
                got, end = _decode_bytes(block, 0, n - len(out), gated)
                out += got
                self._recorded += block[:end]
                pending = block[end:]
            return bytes(out)
        # a splice can switch sources between any two draws
        spec = ChoiceSpec()
        out = bytearray()
        for _ in range(n):
            kind, payload = self.choose_value(spec)
            out.append(payload[0] if kind == "raw" else payload)
        return bytes(out)

    def choose_token(self, spec: ChoiceSpec) -> bytes | None:
        """Token choice for lookahead-driven ordering.

        With both candidate arrays empty the answer is a deterministic
        None costing zero bytes.  Otherwise the evil gate may yield a
        random token of the full width.  Otherwise a branch byte below
        floor(pref_prob * 256) selects the preferred array (empty
        preferred means None: the stream declines to pick) and any other
        branch byte selects the possible array, falling back to preferred
        when possible is empty.
        """
        preferred = spec.preferred or []
        possible = spec.possible or []
        if not preferred and not possible:
            return None
        if self.evil_gate():
            return self.draw_raw(spec.width)
        threshold = int(spec.pref_prob * 256)
        branch = self._draw(1)[0]
        if branch < threshold:
            if not preferred:
                return None
            return preferred[self.choose_index(len(preferred))]
        pool = possible if possible else preferred
        return pool[self.choose_index(len(pool))]

    # -- parse-side inverses ----------------------------------------------

    def _emit_gate(self, evil: bool):
        if self.evil_enabled:
            self.emit_raw(bytes([EVIL_RESIDUE if evil else 0]))

    def emit_index(self, k: int, idx: int):
        if k == 1 and not self.evil_enabled:
            return
        if k <= 256:
            self.emit_raw(bytes([idx]))
        else:
            self.emit_raw(idx.to_bytes(2, "little"))

    def emit_raw(self, payload: bytes):
        self._recorded.extend(payload)

    def emit_value(self, spec: ChoiceSpec, value: object, raw: bytes):
        """Emit the canonical encoding of an observed field value.

        `raw` is the field's file bytes, used for evil and FULL-class
        encodings.  Prefers the non-evil encoding whenever one exists.
        """
        if spec.candidates:
            if value in spec.candidates:
                self._emit_gate(False)
                self.emit_index(len(spec.candidates), spec.candidates.index(value))
                return
        elif spec.bounds is not None:
            lo, hi = spec.bounds
            if isinstance(value, int) and lo <= value <= hi:
                self._emit_gate(False)
                self.emit_bounded(value, lo, hi)
                return
        else:
            self._emit_gate(False)
            if isinstance(value, int) and 0 <= value <= 255:
                self.emit_raw(bytes([0, value]))
            else:
                self.emit_raw(bytes([SMALL_CLASSES]) + raw)
            return
        if self.evil_enabled:
            self._emit_gate(True)
            self.emit_raw(raw)
            return
        raise UnrepresentableValue(
            f"value {value!r} has no encoding under the active constraints with evil disabled")

    def emit_bytes(self, raw: bytes, signed: bool):
        """Inverse of choose_bytes: what emit_value emits for each byte of
        an unconstrained one-byte array, in one pass."""
        gate = 1 if self.evil_enabled else 0
        stride = gate + 2
        out = bytearray(stride * len(raw))
        out[stride - 1::stride] = raw
        if signed:
            out[gate::stride] = raw.translate(_SIGNED_CONTROL)
        self._recorded += out

    def emit_token(self, spec: ChoiceSpec, observed: bytes | None) -> bytes | None:
        """Inverse of choose_token.  `observed` is the token found in the
        file, or None at end of input."""
        preferred = spec.preferred or []
        possible = spec.possible or []
        if not preferred and not possible:
            return None
        threshold = int(spec.pref_prob * 256)
        if observed is None:
            if preferred or threshold == 0:
                raise UnrepresentableValue(
                    "input ends where the template still requires a token")
            self._emit_gate(False)
            self.emit_raw(b"\x00")
            return None
        if threshold > 0 and observed in preferred:
            self._emit_gate(False)
            self.emit_raw(b"\x00")
            self.emit_index(len(preferred), preferred.index(observed))
            return observed
        pool = possible if possible else preferred
        if threshold < 256 and observed in pool:
            self._emit_gate(False)
            self.emit_raw(bytes([threshold]))
            self.emit_index(len(pool), pool.index(observed))
            return observed
        if self.evil_enabled:
            self._emit_gate(True)
            self.emit_raw(observed)
            return observed
        raise UnrepresentableValue(
            f"token {observed!r} is not among the allowed chunk tokens and evil is disabled")
