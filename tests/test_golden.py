"""Golden outputs: one sha256 per template over fixed RNG seeds.

Refactors and optimizations must produce the same bytes.  Each digest
covers, for both evil settings, the generated file and seed, the RNG
state after generation, the canonical parse seed and both replays (or
the typed error class where a step fails), plus a run of smart mutations
on a fixed corpus.  A change that alters the RNG-to-seed mapping on
purpose re-pins these digests and says so in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from btfuzz import Error, formats
from btfuzz.engine import generate_from_seed, generate_random, parse
from btfuzz.mutation import index_corpus, random_smart_mutation

RNG_SEEDS = range(100)
MUTATIONS = 200

GOLDEN = {
    "mini": "15725bb46eabb6e5dd07c93b4a59cfd9c5a524b98d8669326b86188040029b95",
    "pnglite": "23fad0520b298e097cb8978328a51c734f7605a88568027c73f1dd856ad08ea6",
    "magic16": "36014be2cae301ef192fcfa18638a4bda4f31f7317a4361cff76229a008be88f",
}


def _step(h, label: str, fn):
    """Feed one step's result (or its error class) into the digest."""
    try:
        out = fn()
    except Error as exc:
        h.update(f"{label}:error:{type(exc).__name__}\n".encode())
        return None
    h.update(f"{label}:{len(out)}:".encode() + bytes(out) + b"\n")
    return out


def _engine_digest(unit, h):
    for evil in (False, True):
        for s in RNG_SEEDS:
            h.update(f"== evil={evil} rng={s}\n".encode())
            rng = random.Random(s)
            result = None

            def gen():
                nonlocal result
                result = generate_random(unit, rng, evil=evil)
                return result.file

            data = _step(h, "file", gen)
            h.update(repr(rng.getstate()).encode())
            if data is None:
                continue
            h.update(b"seed:" + result.seed + b"\n")
            _step(h, "replay", lambda: generate_from_seed(unit, result.seed, evil=evil).file)
            canon = _step(h, "parse", lambda: parse(unit, data, evil=evil).seed)
            if canon is not None:
                _step(h, "reparse", lambda: generate_from_seed(unit, canon, evil=evil).file)


def _mutation_digest(unit, h):
    corpus = []
    for s in range(100):
        try:
            corpus.append(generate_random(unit, random.Random(10_000 + s), evil=True,
                                          budget=1024).file)
        except Error:
            continue
        if len(corpus) == 8:
            break
    pool = index_corpus(unit, corpus, evil=True, budget=1024)
    h.update(f"pool:{sorted(pool.seeds)}:{len(pool.failures)}\n".encode())
    rng = random.Random(99)
    bases = sorted(pool.seeds)
    for i in range(MUTATIONS):
        base = bases[i % len(bases)]
        try:
            data, desc = random_smart_mutation(unit, pool, base, rng)
        except Error as exc:
            h.update(f"mut:error:{type(exc).__name__}\n".encode())
            continue
        h.update(json.dumps(desc, sort_keys=True).encode() + data + b"\n")
    h.update(repr(rng.getstate()).encode())


def golden_digest(name: str) -> str:
    unit = formats.load_template(name)
    h = hashlib.sha256()
    _engine_digest(unit, h)
    _mutation_digest(unit, h)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert golden_digest(name) == GOLDEN[name]
