"""Decision streams: the byte-level protocol between seeds and choices.

A decision seed is a flat byte string.  A stream with a byte source (a
SeedSource or RandomSource) generates: it consumes the source through the
choice operations below.  A stream without one parses: it runs them in
reverse and emits the canonical byte encoding of every observed choice.
The two directions are exact inverses: generating from a parse-emitted
seed reproduces the parsed file bit for bit.

Wire protocol, in consumption order:

  evil gate      one byte b0 when evil decisions are enabled, none when
                 disabled.  Evil if and only if b0 mod 128 == 127, so a
                 uniformly random byte turns evil with probability 1/128.
                 Parsing emits 127 for evil and 0 otherwise.
  index choice   choosing among k known options.  k == 1 with evil
                 disabled is forced and consumes nothing.  Otherwise one
                 byte b1 gives b1 mod k (two little-endian bytes when
                 k > 256, at most 65536).  Parsing emits the index itself.
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

from .errors import EvalError, SeedExhausted, SpliceMisaligned, UnrepresentableValue

EVIL_MODULUS = 128
EVIL_RESIDUE = 127
SMALL_CLASSES = 3  # control byte classes 0..2 are SMALL, 3 is FULL


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
    return 1 if span <= 1 << 8 else 2 if span <= 1 << 16 else 4 if span <= 1 << 32 else 8


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


class SeedSource:
    """Decision bytes read from a fixed seed from offset pos on.  Like a
    RandomSource's, what a stream took from it is data[start:pos]."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.start = self.pos = pos

    def draw(self, n: int) -> bytes:
        pos = self.pos
        if len(out := self.data[pos:pos + n]) < n:
            raise SeedExhausted(f"need {n} byte(s) at seed offset {pos}, have {len(self.data) - pos}")
        self.pos = pos + n
        return out

    def byte(self) -> int:
        """draw(1)[0], without the slice."""
        try:
            b = self.data[self.pos]
        except IndexError:
            return self.draw(1)[0]  # raises SeedExhausted
        self.pos += 1
        return b


class RandomSource:
    """Decision bytes drawn from a PRNG: a Random, or an int or None to seed
    one.  data keeps every byte drawn."""

    start = 0

    def __init__(self, rng: random.Random | int | None = None):
        self.rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        self.data = bytearray()

    @property
    def pos(self) -> int:
        return len(self.data)

    def draw(self, n: int) -> bytes:
        out = self.rng.getrandbits(8 * n).to_bytes(n, "little")  # randbytes(n), one call less
        self.data += out
        return out

    def byte(self) -> int:
        """draw(1)[0]: the top byte of one MT19937 word."""
        self.data.append(b := self.rng.getrandbits(8))
        return b

    def draw_singles(self, n: int) -> bytes:
        """The bytes of n successive draw(1) calls, fetched at once.

        draw(1) is the top byte of one MT19937 word, and randbytes(4*n)
        holds n words little-endian, so this uses the same n words and
        leaves the generator in the same state."""
        out = self.rng.randbytes(4 * n)[3::4]
        self.data += out
        return out


class _Splice:
    """Switches the source of a stream that starts on a seed source over
    the base's prefix: at begin_alt, when the engine opens record node
    node_id, to alt (donor bytes or random); at end_alt, when that node
    has completed, to a seed source over the base from the span end."""

    PREFIX, ALT, SUFFIX = 0, 1, 2

    def __init__(self, ds: DecisionStream, base: bytes, span: tuple[int, int],
                 node_id: int, alt: SeedSource | RandomSource):
        self.ds, self.base, self.node_id, self.alt = ds, base, node_id, alt
        self.start, self.resume = span
        self.phase = self.PREFIX

    def begin_alt(self):
        pos = self.ds.source.pos  # the node must open where the prefix runs out
        if pos != self.start:
            raise SpliceMisaligned(f"splice target starts at seed offset {pos}, not {self.start}")
        self.phase = self.ALT
        self.ds.switch(self.alt)

    def end_alt(self):
        if left := len(self.alt.data) - self.alt.pos:  # never on a RandomSource
            raise SpliceMisaligned(f"{left} donor decision byte(s) left unconsumed")
        self.phase = self.SUFFIX
        self.ds.switch(SeedSource(self.base, self.resume))


# --- the stream ------------------------------------------------------------


class DecisionStream:
    """One direction of the seed protocol.

    With a source it generates, drawing from it directly: its seed is what
    it took from each source in turn, a slice of each source's data, so
    any run is replayable.  Without one it parses, emitting the canonical
    encoding of observed values.  Either way `seed` holds the bytes so
    far and `cursor` their count.
    """

    def __init__(self, source: SeedSource | RandomSource | None = None, *,
                 evil_enabled: bool = True):
        self.source = source
        self.evil_enabled = evil_enabled
        self._recorded = bytearray()  # emitted, or taken from the sources left behind

    # -- bookkeeping ---------------------------------------------------

    @property
    def cursor(self) -> int:
        src = self.source
        return len(self._recorded) + (0 if src is None else src.pos - src.start)

    @property
    def seed(self) -> bytes:
        """Bytes consumed (generation) or emitted (parse) so far."""
        if (src := self.source) is None:
            return bytes(self._recorded)
        taken = src.data[src.start:src.pos]
        return bytes(self._recorded) + taken if self._recorded else bytes(taken)

    def switch(self, source: SeedSource | RandomSource):
        """Draw from source from now on; what the current one gave stays in the seed."""
        old, self.source = self.source, source
        self._recorded += old.data[old.start:old.pos]

    def set_evil(self, enabled: bool) -> bool:
        previous = self.evil_enabled
        self.evil_enabled = bool(enabled)
        return previous

    # -- generation primitives ------------------------------------------

    def draw_raw(self, n: int) -> bytes:
        """Consume n verbatim bytes (codec payloads, length substitutes)."""
        return self.source.draw(n)

    def evil_gate(self) -> bool:
        if not self.evil_enabled:
            return False
        return self.source.byte() % EVIL_MODULUS == EVIL_RESIDUE

    def choose_index(self, k: int) -> int:
        if k < 1:
            raise EvalError(f"a choice among {k} options")
        if k == 1 and not self.evil_enabled:
            return 0
        if k <= 256:
            return self.source.byte() % k
        if k <= 65536:
            return int.from_bytes(self.source.draw(2), "little") % k
        raise EvalError(f"a choice among {k} options; at most 65536 are supported")

    def choose_bounded(self, lo: int, hi: int) -> int:
        """A value in [lo, hi], gate-free (codec payload lengths)."""
        if (span := hi - lo + 1) <= 256:  # bounded_width(span) is 1
            return lo + self.source.byte() % span
        return lo + int.from_bytes(self.source.draw(bounded_width(span)), "little") % span

    def emit_bounded(self, value: int, lo: int, hi: int):
        """Canonical gate-free inverse of choose_bounded."""
        if not lo <= value <= hi:
            raise UnrepresentableValue(f"{value} outside bounded range [{lo}, {hi}]")
        width = bounded_width(hi - lo + 1)
        self.emit_raw((value - lo).to_bytes(width, "little"))

    def choose_value(self, spec: ChoiceSpec):
        """One field value under spec, by the method of its kind: an int or
        candidate, or the field's file bytes (evil, or the FULL class)."""
        if spec.candidates:
            return self.pick(spec.candidates, spec.width)
        if (bounds := spec.bounds) is not None:
            return self.bounded(bounds[0], bounds[1] - bounds[0] + 1, spec.width)
        return self.plain(spec.width)

    # choose_value by kind, as compiled code calls them.  Each draws the gate
    # first: an evil one gives the field's width in verbatim bytes.

    def plain(self, width: int):
        """An unconstrained value: one payload byte (SMALL) or width (FULL)."""
        source = self.source
        if self.evil_enabled and _EVIL_MARK[source.byte()] or source.byte() % 4 >= SMALL_CLASSES:
            return source.draw(width)
        return source.byte()

    def bounded(self, lo: int, span: int, width: int):
        """A value in [lo, lo + span), drawn as choose_bounded draws it."""
        source = self.source
        if self.evil_enabled and _EVIL_MARK[source.byte()]:
            return source.draw(width)
        return lo + (source.byte() if span <= 256 else
                     int.from_bytes(source.draw(bounded_width(span)), "little")) % span

    def pick(self, cands: list, width: int):
        """One of cands, indexed as choose_index indexes them."""
        if self.evil_enabled:
            if _EVIL_MARK[(source := self.source).byte()]:
                return source.draw(width)
        elif len(cands) == 1:
            return cands[0]
        return cands[self.source.byte() % k] if 0 < (k := len(cands)) <= 256 else \
            cands[self.choose_index(k)]

    def forced(self, value, width: int):
        """pick([value], width): a fix-up's value, whose index costs a byte
        with evil on."""
        if not self.evil_enabled:
            return value
        if _EVIL_MARK[(source := self.source).byte()]:
            return source.draw(width)
        source.byte()
        return value

    def choose_bytes(self, n: int) -> bytes:
        """File bytes of n unconstrained one-byte elements.

        Consumes and records the same seed bytes, and leaves the same RNG
        state, as choose_value(ChoiceSpec()) once per element, decoding the
        whole array in one pass.  A splice switches sources only where a
        record opens or closes, so one array always reads one source.
        """
        source = self.source
        gated = self.evil_enabled
        if isinstance(source, SeedSource):
            data, pos = source.data, source.pos
            out, end = _decode_bytes(data, pos, n, gated)
            if len(out) < n:
                # per element, the first draw past the end is the one that fails
                source.pos = len(data)
                source.draw(1)
            source.pos = end
            return out
        # Fetch a lower bound of the draws still needed (at least 2 per
        # element, exactly known once its gate is seen), so every word
        # fetched is used and the RNG ends where it would per element.
        out = bytearray()
        pending = b""  # the draws of an element not yet complete
        while len(out) < n:
            cost = 3 - _EVIL_MARK[pending[0]] if gated and pending else 2
            block = pending + source.draw_singles(
                cost - len(pending) + 2 * (n - len(out) - 1))
            got, end = _decode_bytes(block, 0, n - len(out), gated)
            out += got
            pending = block[end:]
        return bytes(out)

    def choose_token(self, width: int, preferred: list, possible: list, prob: float):
        """Token choice for lookahead-driven ordering.

        With both candidate arrays empty the answer is a deterministic
        None costing zero bytes.  Otherwise the evil gate may yield a
        random token of the full width.  Otherwise a branch byte below
        floor(prob * 256) selects the preferred array (empty preferred
        means None: the stream declines to pick) and any other branch
        byte selects the possible array, falling back to preferred when
        possible is empty.
        """
        if not preferred and not possible:
            return None
        source = self.source
        if self.evil_enabled and _EVIL_MARK[source.byte()]:
            return source.draw(width)
        pool = preferred if source.byte() < int(prob * 256) else possible or preferred
        if (k := len(pool)) > 1 or k and self.evil_enabled:  # choose_index, one byte up to 256
            return pool[source.byte() % k] if k <= 256 else pool[self.choose_index(k)]
        return pool[0] if pool else None

    # -- parse-side inverses ----------------------------------------------

    def _emit_gate(self, evil: bool):
        if self.evil_enabled:
            self._recorded.append(EVIL_RESIDUE if evil else 0)

    def emit_index(self, k: int, idx: int):
        if k == 1 and not self.evil_enabled:
            return
        if k <= 256:
            self._recorded.append(idx)
        elif k <= 65536:
            self.emit_raw(idx.to_bytes(2, "little"))
        else:
            raise EvalError(f"a choice among {k} options; at most 65536 are supported")

    def emit_raw(self, payload: bytes):
        self._recorded.extend(payload)

    def emit_value(self, spec: ChoiceSpec, value: object, raw: bytes):
        """Inverse of choose_value: the canonical encoding of an observed
        value, whose file bytes are raw, by the inverse of its kind's method.
        Each prefers a non-evil encoding where one exists."""
        if spec.candidates:
            self.emit_pick(value, raw, spec.candidates)
        elif (bounds := spec.bounds) is not None:
            self.emit_within(value, raw, bounds[0], bounds[1] - bounds[0] + 1)
        else:
            self.emit_plain(value, raw)

    def _emit_evil(self, value: object, raw: bytes):
        if not self.evil_enabled:
            raise UnrepresentableValue(
                f"value {value!r} has no encoding under the active constraints with evil disabled")
        self._recorded += b"\x7f" + raw  # gate EVIL_RESIDUE, then the file bytes

    def emit_plain(self, value: object, raw: bytes):
        """Inverse of plain."""
        self._recorded += (b"\x00" if self.evil_enabled else b"") + (
            bytes((0, value)) if isinstance(value, int) and 0 <= value <= 255
            else bytes((SMALL_CLASSES,)) + raw)

    def emit_within(self, value: int, raw: bytes, lo: int, span: int):
        """Inverse of bounded."""
        if not lo <= value < lo + span:
            return self._emit_evil(value, raw)
        self._recorded += (b"\x00" if self.evil_enabled else b"") + (value - lo).to_bytes(
            1 if span <= 256 else bounded_width(span), "little")

    def emit_pick(self, value: object, raw: bytes, cands: list):
        """Inverse of pick."""
        if value not in cands:
            return self._emit_evil(value, raw)
        self._emit_gate(False)
        self.emit_index(len(cands), cands.index(value))

    def emit_forced(self, value: object, raw: bytes, forced):
        """Inverse of forced."""
        if value != forced:
            return self._emit_evil(value, raw)
        if self.evil_enabled:
            self._recorded += b"\x00\x00"  # the gate, then index 0

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

    def emit_token(self, preferred: list, possible: list, prob: float,
                   observed: bytes | None) -> bytes | None:
        """Inverse of choose_token.  `observed` is the token found in the
        file, or None at end of input."""
        if not preferred and not possible:
            return None
        threshold, pool = int(prob * 256), possible or preferred
        if observed is None:
            if preferred or threshold == 0:
                raise UnrepresentableValue("input ends where the template still requires a token")
            branch = 0  # the preferred branch, which declines
        elif threshold > 0 and observed in preferred:
            branch, pool = 0, preferred
        elif threshold < 256 and observed in pool:
            branch = threshold
        elif self.evil_enabled:
            self._emit_gate(True)
            self.emit_raw(observed)
            return observed
        else:
            raise UnrepresentableValue(f"token {observed!r} is not among the allowed chunk "
                                       "tokens and evil is disabled")
        self._emit_gate(False)
        self._recorded.append(branch)
        if observed is not None:
            self.emit_index(len(pool), pool.index(observed))
        return observed
