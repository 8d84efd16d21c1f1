"""The lean programs generate and parse what the tree programs do.

Each of a unit's four programs runs one direction: no generate program
reads the file or emits a decision, no parse program draws a decision,
writes the file or splices, and none branches on a direction or hands a
ChoiceSpec to the decision stream.

generate_random, generate_from_seed, run_with_splice and parse run a
unit's lean program of their direction unless passed tree=True: it opens
no parse tree node, logs no lookahead event and records no coverage.
Over every bundled template, every front-end pin snippet and one
lean-specific case, with evil on and off, it must give the same file,
seed and log as the tree program of its direction and leave the RNG in
the same state, or fail with the same error class and message, also
where a small byte budget ends the run or the input is cut short, has a
byte flipped or has one byte too many.  Splices must open at the same
record and end the same way.
"""

import io
import random
import tokenize

import pytest

from btfuzz import DEFAULT_BUDGET, Error, formats
from btfuzz.engine import compiled, generate_from_seed, generate_random, parse, run_with_splice
from btfuzz.mutation import index_corpus
from btfuzz.templatelang import parse_template
from test_frontend_pins import SNIPPETS
from test_golden import RNG_SEEDS

UNITS = {**{name: formats.template_text(name) for name in formats.BUNDLED}, **SNIPPETS,
         # a lookahead that reserves the second byte of the next field, which
         # the lean program must write through FileBuffer.write's checks
         "partial-reservation": "local ubyte c[] = { 7, 9 }; "
                                "local int k = ReadByte(FTell() + 1, c); uint16 x; ubyte y;"}


@pytest.fixture(scope="module", params=UNITS)
def unit(request):
    return parse_template(UNITS[request.param], request.param)


def _outcome(run, tree: bool):
    """What a caller that reads only the file, seed and log sees of a run."""
    try:
        result = run(tree)
    except Error as exc:
        return type(exc).__name__, str(exc)
    if not tree:
        assert result.tree is None and result.events == [] and result.covered == set()
    return result.file, result.seed, result.log


def _same_on_both(run):
    """The tree program's outcome, once the lean program has given it too."""
    tree = _outcome(run, True)
    assert _outcome(run, False) == tree
    return tree


# what only a program of the other direction may call; and what no program
# calls, since the compiler picks each field's stream call
NOT_IN = {True: ("ds.emit_", "buf.read("),
          False: ("ds.plain(", "ds.bounded(", "ds.pick(", "ds.forced(", "choose_bytes",
                  "draw_raw", "buf.write(", "ex.splice")}
SPEC_LEVEL = ("ChoiceSpec", "choose_value", "emit_value")


def test_every_program_runs_one_direction(unit):
    for gen in (True, False):
        for tree in (True, False):
            source = compiled(unit, gen, tree).source
            assert not [call for call in NOT_IN[gen] + SPEC_LEVEL if call in source], (gen, tree)
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            assert "gen" not in {tok.string for tok in tokens if tok.type == tokenize.NAME}


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 40], ids=["budget", "small-budget"])
@pytest.mark.parametrize("evil", [True, False], ids=["evil", "no-evil"])
def test_generation_is_the_same_without_the_tree(unit, evil, budget):
    for s in RNG_SEEDS:
        def random_run(tree):
            rng = random.Random(s)
            result = generate_random(unit, rng, evil=evil, budget=budget, tree=tree)
            result.log.append(("rng", repr(rng.getstate())))  # the draws consumed
            return result

        made = _same_on_both(random_run)
        seeds = [random.Random(s).randbytes(48)]  # mostly ones that run dry
        if isinstance(made[1], bytes):
            seeds += [made[1], made[1][:len(made[1]) // 2]]
        for seed in seeds:
            _same_on_both(lambda tree: generate_from_seed(unit, seed, evil=evil, budget=budget,
                                                          tree=tree))


def _variants(data: bytes, rng: random.Random) -> list[bytes]:
    """data, and inputs a parse may reject: cut short, one byte flipped,
    one byte too many."""
    variants = [data, data[:-1], data[:len(data) // 2], data + b"\x00"]
    if data:
        i = rng.randrange(len(data))
        variants.append(data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:])
    return variants


@pytest.mark.parametrize("evil", [True, False], ids=["evil", "no-evil"])
def test_parse_is_the_same_without_the_tree(unit, evil):
    for s in RNG_SEEDS:
        try:
            data = generate_random(unit, random.Random(s), evil=evil).file
        except Error:
            continue
        for variant in _variants(data, random.Random(s)):
            _same_on_both(lambda tree: parse(unit, variant, evil=evil, tree=tree))


def test_parse_parity_covers_each_rejection():
    """The bundled templates' variants reach both parse errors."""
    seen = set()
    for name in formats.BUNDLED:
        unit = formats.load_template(name)
        for s in RNG_SEEDS[:20]:
            for variant in _variants(generate_random(unit, random.Random(s)).file,
                                     random.Random(s)):
                seen.add(_outcome(lambda tree: parse(unit, variant, tree=tree), False)[0])
    assert {"ParseRejected", "TrailingBytes"} <= seen


@pytest.mark.parametrize("name", [name for name, text in UNITS.items() if any(
    t.kind == "record" for t in parse_template(text).typedefs.values())])
def test_every_splice_is_the_same_without_the_tree(name):
    unit = parse_template(UNITS[name], name)
    corpus = []
    for s in RNG_SEEDS[:30]:
        try:
            corpus.append(generate_random(unit, random.Random(s), budget=1024).file)
        except Error:
            continue
    pool = index_corpus(unit, corpus, budget=1024)
    records = list(pool.records())
    assert records
    for i, rec in enumerate(records):
        base = pool.seeds[rec.source_file]
        donors = pool.donors[rec.key]
        # random decisions, a donor replace may pick, and any other record's
        alts = [i] + [pool.seeds[d.source_file][slice(*d.decision_span)]
                      for d in (donors[i % len(donors)], records[(i + 1) % len(records)])]
        for alt in alts:
            _same_on_both(lambda tree: run_with_splice(
                unit, base, rec.decision_span, rec.node_id, alt, budget=1024, tree=tree))
