"""Chunk indexing and seed-level structural mutations."""

import dataclasses
import random

import pytest

from btfuzz import formats
from btfuzz.engine import generate_from_seed, parse, run_with_splice
from btfuzz.errors import NoApplicableMutation, NotOptional, SpliceMisaligned, TypeMismatch
from btfuzz.formats.mini import verify_mini
from btfuzz.mutation import (
    index_corpus,
    random_smart_mutation,
    smart_abstract,
    smart_delete,
    smart_insert,
    smart_replace,
)

from conftest import build_mini_file

TWO_FILES = [build_mini_file([b"AB", b"c"]), build_mini_file([b"xyz"])]


@pytest.fixture(scope="module")
def pool(mini):
    return index_corpus(mini, TWO_FILES)


def test_pool_counts(mini, pool):
    assert not pool.failures
    assert len(pool.by_type["DATA"]) == 3
    assert len(pool.by_type["END"]) == 2
    assert set(pool.seeds) == {0, 1}


def test_pool_spans_are_plausible(pool):
    for rec in pool.records():
        fs, fe = rec.file_span
        ss, se = rec.decision_span
        assert 0 <= fs < fe <= len(pool.files[rec.source_file])
        # END chunks cost no decisions: the lookahead reservation forces
        # their tag byte, so the span may be empty
        assert 0 <= ss <= se <= len(pool.seeds[rec.source_file])
        if rec.type_name == "DATA":
            assert ss < se


def test_data_chunks_are_optional_with_lookahead_context(pool):
    for rec in pool.records():
        assert rec.lead_start >= 0
        if rec.type_name == "DATA":
            assert rec.tail_start == rec.decision_span[1]


def test_empty_corpus(mini):
    pool = index_corpus(mini, [])
    assert not pool.by_type and not pool.failures


def test_garbage_file_recorded_as_failure(mini):
    pool = index_corpus(mini, [b"not a mini file", TWO_FILES[0]])
    assert len(pool.failures) == 1
    assert pool.failures[0][0] == 0
    assert len(pool.by_type["DATA"]) == 2


def test_mapping_corpus_keys(mini):
    pool = index_corpus(mini, {"a": TWO_FILES[0], "b": TWO_FILES[1]})
    assert set(pool.seeds) == {"a", "b"}
    assert {rec.source_file for rec in pool.records()} == {"a", "b"}


def test_replace_with_self_is_identity(mini, pool):
    for rec in pool.records():
        mutated = smart_replace(mini, pool, rec, rec)
        assert mutated == pool.files[rec.source_file]


def test_replace_cross_file(mini, pool):
    targets = [r for r in pool.by_type["DATA"] if r.source_file == 0]
    donors = [r for r in pool.by_type["DATA"] if r.source_file == 1]
    mutated = smart_replace(mini, pool, targets[0], donors[0])
    assert mutated != pool.files[0]
    ok, violation = verify_mini(mutated)
    assert ok, violation
    parse(mini, mutated)


def test_replace_type_mismatch(mini, pool):
    data = pool.by_type["DATA"][0]
    end = pool.by_type["END"][0]
    with pytest.raises(TypeMismatch):
        smart_replace(mini, pool, data, end)


def test_abstract_identity_with_original_bytes(mini, pool):
    rec = pool.by_type["DATA"][0]
    seed = pool.seeds[rec.source_file]
    original = seed[rec.decision_span[0]:rec.decision_span[1]]
    assert smart_replace(mini, pool, rec, rec) == pool.files[rec.source_file]
    assert original  # non-degenerate span


def test_abstract_regenerates_valid_chunk(mini, pool):
    rec = pool.by_type["DATA"][0]
    for i in range(10):
        mutated = smart_abstract(mini, pool, rec, random.Random(i))
        ok, violation = verify_mini(mutated)
        assert ok, violation
        parse(mini, mutated)


def test_delete_removes_one_chunk(mini, pool):
    rec = next(r for r in pool.by_type["DATA"] if r.source_file == 0)
    mutated = smart_delete(mini, pool, rec)
    ok, violation = verify_mini(mutated)
    assert ok, violation
    tree = parse(mini, mutated).tree
    remaining = [n for n in tree.walk() if n.type_name == "DATA"]
    assert len(remaining) == 1


def test_delete_requires_lookahead_context(mini, pool):
    rec = pool.by_type["DATA"][0]
    clipped = dataclasses.replace(rec, lead_start=-1)
    with pytest.raises(NotOptional):
        smart_delete(mini, pool, clipped)


def test_delete_insert_roundtrip(mini, pool):
    rec = next(r for r in pool.by_type["DATA"] if r.source_file == 0)
    deleted = smart_delete(mini, pool, rec)

    # index base and donor files in one pool so both sides are available
    combo = index_corpus(mini, [deleted, pool.files[0]])
    donor = next(
        r for r in combo.records(base=1)
        if r.type_name == "DATA" and r.decision_span == rec.decision_span)
    position = next(
        ev for ev in combo.events[0] if ev.start == rec.lead_start)
    restored = smart_insert(mini, combo, 0, position, donor)
    assert restored == pool.files[0]


def test_insert_grows_chunk_count(mini, pool):
    donor = next(r for r in pool.by_type["DATA"] if r.source_file == 1)
    position = pool.events[0][0]
    mutated = smart_insert(mini, pool, 0, position, donor)
    ok, violation = verify_mini(mutated)
    assert ok, violation
    tree = parse(mini, mutated).tree
    assert len([n for n in tree.walk() if n.type_name == "DATA"]) == 3


def test_random_mutation_descriptor(mini, pool):
    rng = random.Random(7)
    mutated, desc = random_smart_mutation(mini, pool, 0, rng)
    assert desc["ok"] is True
    assert desc["op"] in {"replace", "delete", "insert", "abstract"}
    assert desc["base"] == 0
    assert desc["result_bytes"] == len(mutated)
    if desc["op"] in {"replace", "insert"}:
        assert "donor" in desc
    parse(mini, mutated)


@pytest.mark.parametrize("template", ["mini", "pnglite"])
def test_mutation_menus_keep_record_order(request, template):
    # random_smart_mutation draws from these lists by index, so their order
    # is part of what a fixed rng produces
    from btfuzz.engine import generate_random
    from btfuzz.errors import Error
    unit = request.getfixturevalue(template)
    files = []
    for i in range(40):
        try:
            files.append(generate_random(unit, random.Random(i), budget=1024).file)
        except Error:
            pass
    pool = index_corpus(unit, files)
    assert len(pool.seeds) >= 30 and pool.insert_donors
    for base in pool.seeds:
        reference = [r for recs in pool.by_type.values() for r in recs
                     if r.source_file == base]
        menu = pool.menus[base]
        assert list(pool.records(base)) == reference
        assert menu.targets == [r for r in reference
                                if r.decision_span[0] < r.decision_span[1]]
        assert menu.deletable == [r for r in reference if r.context is not None]
        assert menu.insert_donors == [r for r in pool.insert_donors
                                      if r.context in menu.positions]
    # a donor's lead and tail lookaheads share a context
    assert pool.insert_donors == [r for r in pool.records() if r.context is not None]


def test_random_mutation_unknown_base(mini, pool):
    with pytest.raises(NoApplicableMutation):
        random_smart_mutation(mini, pool, 99, random.Random(0))


def test_random_mutation_needs_applicable_op(mini):
    pool = index_corpus(mini, [b"garbage"])
    with pytest.raises(NoApplicableMutation):
        random_smart_mutation(mini, pool, 0, random.Random(0))


def test_mutations_on_pnglite_parse_back(pnglite):
    from btfuzz.engine import generate_random
    files = [generate_random(pnglite, random.Random(i), evil=False).file
             for i in range(6)]
    pool = index_corpus(pnglite, files)
    assert not pool.failures
    rng = random.Random(42)
    accepted = 0
    for i in range(30):
        mutated, desc = random_smart_mutation(pnglite, pool, i % len(files), rng)
        parse(pnglite, mutated)
        accepted += 1
    assert accepted == 30


def _bundled_pool(unit, evil):
    from btfuzz.engine import generate_random
    from btfuzz.errors import Error
    files = []
    for i in range(30):
        try:
            files.append(generate_random(unit, random.Random(i), evil=evil, budget=1024).file)
        except Error:
            pass
    return index_corpus(unit, files, budget=1024)


@pytest.mark.parametrize("evil", [False, True])
@pytest.mark.parametrize("template", formats.BUNDLED)
def test_every_record_restores_itself(template, evil):
    # replace-with-self and abstraction fed the record's own decisions
    # regenerate the base bit-exactly, nested records included
    unit = formats.load_template(template)
    pool = _bundled_pool(unit, evil)
    assert not pool.failures
    for rec in pool.records():
        base = pool.files[rec.source_file]
        assert smart_replace(unit, pool, rec, rec) == base, rec
        own = pool.seeds[rec.source_file][slice(*rec.decision_span)]
        assert smart_abstract(unit, pool, rec, own) == base, rec
    if template == "pnglite":
        assert {"PNG_CHUNK", "PNG_CHUNK_IHDR", "PNG_CHUNK_TIME", "PNG_CHUNK_PLTE",
                "PNG_PALETTE_PIXEL"} <= set(pool.by_type)


def test_splice_target_must_start_at_span_start(mini):
    outcome = parse(mini, TWO_FILES[0])
    data = next(n for n in outcome.tree.walk() if n.type_name == "DATA")
    payload = next(n for n in data.children if n.name == "payload")
    own = outcome.seed[payload.seed_start:data.seed_end]
    # the record begins before the span, its payload after the span start
    with pytest.raises(SpliceMisaligned, match="starts at seed offset"):
        run_with_splice(mini, outcome.seed, (payload.seed_start, data.seed_end),
                        data.id, own)
    with pytest.raises(SpliceMisaligned):
        run_with_splice(mini, outcome.seed, (data.seed_start, data.seed_end),
                        payload.id, outcome.seed[data.seed_start:data.seed_end])


def test_pnglite_attempts_per_accepted_mutation(pnglite, monkeypatch):
    # a 50-file corpus (evil off, 1 KiB budget) indexed with evil on, then
    # 600 mutations: each rejected attempt is a wasted regeneration
    from btfuzz import mutation
    from btfuzz.engine import generate_random
    from btfuzz.errors import Error
    files = []
    for i in range(200):
        try:
            files.append(generate_random(pnglite, random.Random(i), evil=False,
                                         budget=1024).file)
        except Error:
            continue
        if len(files) == 50:
            break
    pool = index_corpus(pnglite, files, evil=True, budget=1024)
    assert len(pool.seeds) == 50
    calls = {"attempts": 0, "accepts": 0}
    for op in ("abstract", "replace", "delete", "insert"):
        def spy(*args, _fn=getattr(mutation, f"smart_{op}"), **kwargs):
            calls["attempts"] += 1
            out = _fn(*args, **kwargs)
            calls["accepts"] += 1
            return out
        monkeypatch.setattr(mutation, f"smart_{op}", spy)
    rng = random.Random(71)
    bases = sorted(pool.seeds)
    for _ in range(600):
        try:
            random_smart_mutation(pnglite, pool, rng.choice(bases), rng)
        except NoApplicableMutation:
            pass
    assert calls["accepts"] > 0
    assert calls["attempts"] / calls["accepts"] <= 1.3, calls


def _small_pool(unit, n, evil):
    from btfuzz.engine import generate_random
    from btfuzz.errors import Error
    files = []
    for i in range(100):
        try:
            files.append(generate_random(unit, random.Random(i), evil=evil, budget=512).file)
        except Error:
            continue
        if len(files) == n:
            break
    return index_corpus(unit, files, evil=True, budget=512)


@pytest.mark.parametrize("template,n", [("mini", 8), ("pnglite", 6)])
def test_every_offered_delete_and_insert_lines_up(request, template, n):
    # exhaustive: every deletable record, and every donor at every position
    # its menu offers, regenerates (no SpliceMisaligned)
    unit = request.getfixturevalue(template)
    pool = _small_pool(unit, n, evil=False)
    assert len(pool.seeds) == n
    deletes = inserts = 0
    for base, menu in pool.menus.items():
        for rec in menu.deletable:
            smart_delete(unit, pool, rec)
            deletes += 1
        for donor in menu.insert_donors:
            for position in menu.positions[donor.context]:
                smart_insert(unit, pool, base, position, donor)
                inserts += 1
    assert deletes and inserts


@pytest.mark.parametrize("gen", [False, True])
def test_lookahead_events_carry_their_spec(pnglite, gen):
    from btfuzz.engine import generate_random
    result = generate_random(pnglite, random.Random(3), evil=False)
    looks = result.events if gen else parse(pnglite, result.file).events
    read_bytes = [ev for ev in looks if ev.spec.preferred is not None]
    read_byte = [ev for ev in looks if ev.spec.candidates is not None]
    assert len(read_bytes) + len(read_byte) == len(looks)
    assert read_bytes[0].spec.preferred == [b"IHDR"] == read_bytes[0].spec.possible
    assert read_bytes[0].spec.width == 4 and read_bytes[0].spec.pref_prob == 0.25
    assert read_bytes[-1].spec.preferred == [] and read_bytes[-1].token is None
    # IHDR's colour-type peek chooses among the colour types
    assert [ev.spec.candidates for ev in read_byte] == [[0, 2, 3, 4, 6]]
    assert all(ev.spec.width == 1 for ev in read_byte)


def test_mini_end_is_neither_deletable_nor_a_donor(mini, pool):
    ends = pool.by_type["END"]
    assert ends and all(r.context is None for r in ends)
    for base, menu in pool.menus.items():
        assert not any(r.type_name == "END" for r in menu.deletable)
        # END decides nothing: abstract and replace would restore the base
        assert not any(r.type_name == "END" for r in menu.targets)
    assert not any(r.type_name == "END" for r in pool.insert_donors)
    for rec in ends:
        # END's lead is the token lookahead before it, not the empty one after
        lead = next(ev for ev in pool.events[rec.source_file] if ev.start == rec.lead_start)
        assert lead.token == b"\xff" and lead.end == rec.decision_span[0]
        assert rec.lead_start < rec.tail_start == rec.decision_span[1]


def test_end_only_mini_file_keeps_insert(mini):
    combo = index_corpus(mini, [build_mini_file([]), TWO_FILES[0]])
    assert combo.menus[0].ops == ["insert"]
    mutated, desc = random_smart_mutation(mini, combo, 0, random.Random(1))
    assert desc["op"] == "insert" and mutated != combo.files[0]
    ok, violation = verify_mini(mutated)
    assert ok, violation


def test_pnglite_list_editing_chunks_are_not_deletable(pnglite):
    pool = _small_pool(pnglite, 20, evil=False)
    chunks = pool.by_type["PNG_CHUNK"]
    tokens = {r.token for r in chunks}
    assert {b"IHDR", b"PLTE", b"IDAT", b"IEND", b"tIME", b"tEXt"} <= tokens
    deletable = {r.token for menu in pool.menus.values() for r in menu.deletable}
    assert deletable == {b"tIME", b"tEXt"}
    assert {r.token for r in pool.insert_donors} == {b"tIME", b"tEXt"}


def test_mini_mutations_change_the_base(mini):
    pool = _small_pool(mini, 20, evil=True)
    rng = random.Random(5)
    unchanged = 0
    for i in range(300):
        base = i % len(pool.seeds)
        mutated, _ = random_smart_mutation(mini, pool, base, rng)
        unchanged += mutated == pool.files[base]
    assert unchanged < 15  # under 5%


def test_random_mutation_reports_rejected_attempts(mini, pool, monkeypatch):
    from btfuzz import mutation

    def misaligned(*args):
        raise SpliceMisaligned("forced")

    monkeypatch.setattr(mutation, "smart_delete", misaligned)
    rng = random.Random(3)
    seen = 0
    for _ in range(40):
        _, desc = random_smart_mutation(mini, pool, 0, rng)
        assert desc["op"] != "delete"
        assert all(entry == ["delete", "SpliceMisaligned"] for entry in desc["rejected"])
        seen += len(desc["rejected"])
    assert seen > 0
    for op in ("abstract", "replace", "insert"):
        monkeypatch.setattr(mutation, f"smart_{op}", misaligned)
    with pytest.raises(NoApplicableMutation) as info:
        random_smart_mutation(mini, pool, 0, rng)
    assert len(info.value.rejected) == mutation.RETRY_LIMIT
    assert {cls for _, cls in info.value.rejected} == {"SpliceMisaligned"}
