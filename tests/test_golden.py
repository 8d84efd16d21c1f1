"""Golden outputs: two sha256s per template over fixed RNG seeds.

Refactors and optimizations must produce the same bytes.  The engine digest
covers, for both evil settings, the generated file and seed, the RNG
state after generation, the canonical parse seed and both replays (or
the typed error class where a step fails); the mutation digest covers a
run of smart mutations on a fixed corpus.  A change that alters the
RNG-to-seed mapping or the mutator on purpose re-pins these digests and
says so in CHANGES.md.

The event digest pins the lookahead events that smart mutation indexes:
start, end, node id, token and spec of every event that generation and
parsing log, for both evil settings.
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

# (engine digest, mutation digest) per template
GOLDEN = {
    "mini": (
        "fa6b1fe395c821cc6061fc7eb6cb5f3460ecb6363ea89939a2192d040a3bf3e6",
        "69e7793a2edcd353bf354bfdd9f68c592d4f9bceef037084dd1f968e604e2c10"),
    "pnglite": (
        "6a6602c817e9374228755b4429542bd1a13d7968acf6b60d2323a129deeef6b9",
        "29d407fe028c99aaa84df6d2baead090eed1989fb0dd75540a0ebff4c6f64642"),
    "magic16": (
        "2646bc6575eff8ca1aa54246cbadda4896ef943fe0729e8a1046211ccfcc4326",
        "05cf9326d3556e6d9fe982d7c400c340073eb34026d5237c566027edcda90abd"),
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
            data, desc, _ = random_smart_mutation(unit, pool, base, rng)
        except Error as exc:
            h.update(f"mut:error:{type(exc).__name__}\n".encode())
            continue
        h.update(json.dumps(desc, sort_keys=True).encode() + data + b"\n")
    h.update(repr(rng.getstate()).encode())


def golden_digest(name: str) -> tuple[str, str]:
    """The engine and the mutation digests, apart, so that a change to the
    mutator alone re-pins only the second."""
    unit = formats.load_template(name)
    digests = []
    for part in (_engine_digest, _mutation_digest):
        h = hashlib.sha256()
        part(unit, h)
        digests.append(h.hexdigest())
    return tuple(digests)


# event digest per template
GOLDEN_EVENTS = {
    "mini": "31e52eb00d903d5492f500ff607f1d3aa2b58b79f089efdd1d97a411482b34d7",
    "pnglite": "5671cf7d6c40283f8a721280d234e8d56a97a7230a7ad1295dd89cbc6f423eff",
    "magic16": "716f07d4bca62d62647f8e8a9377e30cb93e9a14dda64c0632813f2b088d0cad",
}


def _hash_events(h, label: str, fn):
    """Feed one step's events (or its error class) into the digest."""
    try:
        result = fn()
    except Error as exc:
        h.update(f"{label}:error:{type(exc).__name__}\n".encode())
        return None
    for ev in result.events:
        spec = ev.spec
        fields = None if spec is None else (spec.width, spec.candidates, spec.bounds,
                                            spec.preferred, spec.possible, spec.pref_prob)
        h.update(f"{label}:{ev.start}:{ev.end}:{ev.node_id}:{ev.token!r}:{fields!r}\n".encode())
    return result


def event_digest(name: str) -> str:
    unit = formats.load_template(name)
    h = hashlib.sha256()
    for evil in (False, True):
        for s in RNG_SEEDS:
            h.update(f"== evil={evil} rng={s}\n".encode())
            result = _hash_events(h, "gen", lambda: generate_random(unit, random.Random(s),
                                                                    evil=evil, tree=True))
            if result is not None:
                _hash_events(h, "parse", lambda: parse(unit, result.file, evil=evil, tree=True))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    assert golden_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_EVENTS))
def test_event_digest(name):
    assert event_digest(name) == GOLDEN_EVENTS[name]
