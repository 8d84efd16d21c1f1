"""The seed a generating run records.

A run on a seed records the slice of it that it consumed; a random run,
the bytes its RNG gave; a splice, its prefix, alternative and suffix in
turn.  Over the golden RNG seeds of every bundled template, every splice
that test_lean_program.py runs and random runs under a small budget, the
recorded seeds, the seed spans of every parse tree node and lookahead
event, and the class and message of every failed run are pinned by
digest, at the values a stream gave when it still copied every byte it
drew into one record.  At every lookahead, of lean runs too, `ds.cursor`
must equal the length of the seed so far.
"""

import hashlib
import random

import pytest

from btfuzz import Error, formats
from btfuzz.decisionstream import DecisionStream, RandomSource, SeedSource, _Splice
from btfuzz.engine import Execution, generate_from_seed, generate_random, run_with_splice
from btfuzz.errors import SeedExhausted
from btfuzz.mutation import index_corpus
from btfuzz.templatelang import parse_template
from test_golden import RNG_SEEDS
from test_lean_program import UNITS


@pytest.fixture(autouse=True)
def lookaheads(monkeypatch):
    """The cursor before and after every lookahead, each checked against
    the length of the seed so far."""
    seen = []

    def checked(lookahead):
        def run(self, *args):
            seen.append(self.ds.cursor)
            assert seen[-1] == len(self.ds.seed)
            try:
                return lookahead(self, *args)
            finally:
                seen.append(self.ds.cursor)
                assert seen[-1] == len(self.ds.seed)
        return run

    for name in ("_read_byte", "_read_bytes"):
        monkeypatch.setattr(Execution, name, checked(getattr(Execution, name)))
    return seen


def _feed(h, label: str, run):
    """Feed a run's seed, its tree's and events' seed spans, or its error."""
    try:
        result = run()
    except Error as exc:
        h.update(f"{label}:{type(exc).__name__}:{exc}\n".encode())
        return None
    h.update(f"{label}:{len(result.seed)}:".encode() + result.seed + b"\n")
    if result.tree is not None:
        assert result.tree.seed_end == len(result.seed)
        for node in result.tree.walk():
            h.update(f"node:{node.id}:{node.seed_start}:{node.seed_end}\n".encode())
        for ev in result.events:
            h.update(f"event:{ev.start}:{ev.end}:{ev.node_id}\n".encode())
    return result


def template_digest(name: str) -> str:
    unit = formats.load_template(name)
    h = hashlib.sha256()
    for evil in (False, True):
        for s in RNG_SEEDS:
            made = _feed(h, "random", lambda: generate_random(unit, random.Random(s), evil=evil,
                                                              tree=True))
            _feed(h, "small", lambda: generate_random(unit, random.Random(s), evil=evil,
                                                      budget=40))
            if made is None:
                continue
            for tree in (True, False):
                _feed(h, "replay", lambda: generate_from_seed(unit, made.seed, evil=evil,
                                                              tree=tree))
            _feed(h, "short", lambda: generate_from_seed(unit, made.seed[:len(made.seed) // 2],
                                                         evil=evil))
    return h.hexdigest()[:16]


TEMPLATE_DIGESTS = {
    "mini": "0ea3d9446c4910ef",
    "pnglite": "efc499f73740b4b4",
    "magic16": "286f395458dbaf7b",
}


@pytest.mark.parametrize("name", formats.BUNDLED)
def test_recorded_seeds_are_pinned(name, lookaheads):
    assert template_digest(name) == TEMPLATE_DIGESTS[name]
    if name == "pnglite":  # its lookaheads all ran the check
        assert lookaheads


def splice_digest(name: str) -> str:
    """test_every_splice_is_the_same_without_the_tree's splices, both ways."""
    unit = parse_template(UNITS[name], name)
    corpus = []
    for s in RNG_SEEDS[:30]:
        try:
            corpus.append(generate_random(unit, random.Random(s), budget=1024).file)
        except Error:
            continue
    pool = index_corpus(unit, corpus, budget=1024)
    records = list(pool.records())
    h = hashlib.sha256()
    for i, rec in enumerate(records):
        base = pool.seeds[rec.source_file]
        donors = pool.donors[rec.key]
        alts = [i] + [pool.seeds[d.source_file][slice(*d.decision_span)]
                      for d in (donors[i % len(donors)], records[(i + 1) % len(records)])]
        for alt in alts:
            for tree in (True, False):
                _feed(h, "splice", lambda: run_with_splice(
                    unit, base, rec.decision_span, rec.node_id, alt, budget=1024, tree=tree))
    return h.hexdigest()[:16]


SPLICE_DIGESTS = {  # the units with a record
    "mini": "04c932e16d38413b",
    "pnglite": "ea8a040eb494a183",
    "statements": "85becba9c9183919",
    "magic": "523dc631d529c34b",
}


@pytest.mark.parametrize("name", SPLICE_DIGESTS)
def test_spliced_seeds_are_pinned(name):
    assert splice_digest(name) == SPLICE_DIGESTS[name]


def test_cursor_counts_every_source_of_a_splice():
    base = bytes(range(40))
    ds = DecisionStream(SeedSource(base[:10]))
    splice = _Splice(ds, base, (10, 20), 0, RandomSource(7))
    ds.draw_raw(10)
    splice.begin_alt()
    ds.draw_raw(3)
    assert ds.cursor == len(ds.seed) == 13
    splice.end_alt()
    ds.draw_raw(5)
    assert ds.cursor == len(ds.seed) == 18
    assert ds.seed == base[:10] + random.Random(7).randbytes(3) + base[20:25]


DRY = [  # (evil, seed, what runs dry, the message)
    (True, b"\x00" * 4, lambda ds: ds.choose_bytes(3), "need 1 byte(s) at seed offset 4, have 0"),
    (True, b"\x00\x00\x00\x7f", lambda ds: ds.choose_bytes(3),
     "need 1 byte(s) at seed offset 4, have 0"),
    (False, b"\x00" * 3, lambda ds: ds.choose_bytes(3), "need 1 byte(s) at seed offset 3, have 0"),
    (False, b"\x05\x06", lambda ds: (ds.draw_raw(1), ds.draw_raw(4)),
     "need 4 byte(s) at seed offset 1, have 1"),
]


@pytest.mark.parametrize("evil, seed, run, message", DRY)
def test_a_dry_seed_raises_the_same_message(evil, seed, run, message):
    ds = DecisionStream(SeedSource(seed), evil_enabled=evil)
    with pytest.raises(SeedExhausted) as info:
        run(ds)
    assert str(info.value) == message
    assert ds.cursor == len(ds.seed)
    with pytest.raises(SeedExhausted, match=r"^need 4 byte\(s\) at seed offset 1, have 3$"):
        generate_from_seed(parse_template("uint32 a;"), b"\x03\x00\x00\x00", evil=False)
