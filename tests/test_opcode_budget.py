"""Ceilings on the Python opcodes the engine executes for pnglite.

Wall-clock rates drift with the host; the number of opcodes a fixed piece
of work executes does not.  Counted with `sys.settrace` and
`f_trace_opcodes` (CPython 3.11 has no `sys.monitoring`), over pnglite
generate, parse and replay of the files of 20 fixed RNG seeds, every
second one with evil off.  The template is compiled before counting, so
the counts cover running it only.  A change that makes the interpreter do
more work per file fails here on any host.

The ceilings are about 1.05 times the counts measured when they were set
(COUNTED).  Bytecode differs between CPython minor versions, so the
counts hold for 3.11 only and the test skips on any other version.  A
change that lowers the counts on purpose may lower the ceilings with them.
"""

import random
import sys

import pytest

from btfuzz import Error, formats
from btfuzz.engine import generate_from_seed, generate_random, parse

RNG_SEEDS = range(20)
COUNTED = {"generate": 795_006, "parse": 624_137, "replay": 798_279}
CEILING = {stage: int(n * 1.05) for stage, n in COUNTED.items()}

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="opcode counts are pinned for CPython 3.11")


def _count_opcodes(fn) -> int:
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def _parse_or_reject(unit, data, evil):
    try:
        parse(unit, data, evil=evil)
    except Error:  # evil-off pnglite files can be unparsable (bench/NOTES.md)
        pass


def _stage_counts() -> dict[str, int]:
    unit = formats.load_template("pnglite")
    generate_random(unit, random.Random(0))  # compiles the template
    evil = {s: s % 2 == 0 for s in RNG_SEEDS}
    results = {}

    def gen():
        for s in RNG_SEEDS:
            results[s] = generate_random(unit, random.Random(s), evil=evil[s])

    counts = {"generate": _count_opcodes(gen)}
    counts["parse"] = _count_opcodes(
        lambda: [_parse_or_reject(unit, results[s].file, evil[s]) for s in RNG_SEEDS])
    counts["replay"] = _count_opcodes(
        lambda: [generate_from_seed(unit, results[s].seed, evil=evil[s]) for s in RNG_SEEDS])
    return counts


def test_pnglite_opcodes_stay_under_their_ceilings():
    counts = _stage_counts()
    over = {stage: (n, CEILING[stage]) for stage, n in counts.items() if n > CEILING[stage]}
    assert not over, f"executed opcodes above ceiling (count, ceiling): {over}"
