"""Ceilings on the Python opcodes the engine executes for pnglite.

Wall-clock rates drift with the host; the number of opcodes a fixed piece
of work executes does not.  Counted with `sys.settrace` and
`f_trace_opcodes` (CPython 3.11 has no `sys.monitoring`), over pnglite
generate, parse and replay of the files of 20 fixed RNG seeds, every
second one with evil off, by the tree programs (tree=True); over the
same generate, parse and replay by the lean programs (tree=False), which
the bench's replay stage and every mutation run; and over 40 smart
mutations of those files, each drawn with its own fixed RNG seed.  All
four programs are compiled and the corpus indexed before counting, so
the counts cover running them only: a program compiled inside a stage
would count its own compile.  A change that makes the
interpreter do more work per file fails here on any host.  Each lean
program must also stay at most LEAN_SHARE of the tree program's count in
its direction: that is what it exists for.

The ceilings are about 1.05 times the counts measured when they were set
(COUNTED).  Bytecode differs between CPython minor versions, so the
counts hold for 3.11 only and the test skips on any other version.  A
change that lowers the counts on purpose may lower the ceilings with them.
A stage over its ceiling is reported with the code objects (file and
function) that executed the most of its opcodes.
"""

import random
import sys
from collections import Counter

import pytest

from btfuzz import Error, formats
from btfuzz.engine import generate_from_seed, generate_random, parse
from btfuzz.errors import NoApplicableMutation
from btfuzz.mutation import index_corpus, random_smart_mutation

RNG_SEEDS = range(20)
MUTATIONS = range(40)
COUNTED = {"generate": 382_255, "parse": 278_471, "replay": 361_406, "mutate": 414_736,
           "generate_lean": 228_585, "parse_lean": 167_156, "replay_lean": 220_667}
LEAN_SHARE = 0.8
CEILING = {stage: int(n * 1.05) for stage, n in COUNTED.items()}

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="opcode counts are pinned for CPython 3.11")


def _count_opcodes(fn) -> Counter:
    """The opcodes fn executes, by the code object that executes them."""
    count = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            count[frame.f_code] += 1
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


def _parse_or_reject(unit, data, evil, tree):
    try:
        parse(unit, data, evil=evil, tree=tree)
    except Error:  # evil-off pnglite files can be unparsable (bench/NOTES.md)
        pass


def _mutate_or_reject(unit, pool, bases, s):
    rng = random.Random(s)
    try:
        random_smart_mutation(unit, pool, rng.choice(bases), rng)
    except NoApplicableMutation:
        pass


def _stage_counts() -> dict[str, Counter]:
    unit = formats.load_template("pnglite")
    for tree in (True, False):  # compiles all four programs
        parse(unit, generate_random(unit, random.Random(0), tree=tree).file, tree=tree)
    evil = {s: s % 2 == 0 for s in RNG_SEEDS}
    results = {}

    def gen():
        for s in RNG_SEEDS:
            results[s] = generate_random(unit, random.Random(s), evil=evil[s], tree=True)

    counts = {"generate": _count_opcodes(gen)}
    counts["generate_lean"] = _count_opcodes(
        lambda: [generate_random(unit, random.Random(s), evil=evil[s], tree=False)
                 for s in RNG_SEEDS])
    for stage, tree in (("parse", True), ("parse_lean", False)):
        counts[stage] = _count_opcodes(
            lambda: [_parse_or_reject(unit, results[s].file, evil[s], tree) for s in RNG_SEEDS])
    for stage, tree in (("replay", True), ("replay_lean", False)):
        counts[stage] = _count_opcodes(lambda: [
            generate_from_seed(unit, results[s].seed, evil=evil[s], tree=tree) for s in RNG_SEEDS])
    pool = index_corpus(unit, [results[s].file for s in RNG_SEEDS])
    bases = sorted(base for base, menu in pool.menus.items() if menu.ops)
    counts["mutate"] = _count_opcodes(
        lambda: [_mutate_or_reject(unit, pool, bases, s) for s in MUTATIONS])
    return counts


def _heaviest(count: Counter, n: int = 10) -> str:
    return ", ".join(f"{code.co_filename}:{code.co_name} {k}" for code, k in count.most_common(n))


def test_pnglite_opcodes_stay_under_their_ceilings():
    per_code = _stage_counts()
    counts = {stage: sum(count.values()) for stage, count in per_code.items()}
    over = {stage: (n, CEILING[stage]) for stage, n in counts.items() if n > CEILING[stage]}
    assert not over, f"executed opcodes above ceiling (count, ceiling): {over}; most by " + \
        "; ".join(f"{stage}: {_heaviest(per_code[stage])}" for stage in over)
    for stage in ("generate", "parse", "replay"):
        assert counts[f"{stage}_lean"] <= LEAN_SHARE * counts[stage], counts
