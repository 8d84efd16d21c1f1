"""Smart mutations over decision seeds.

Mutations never touch file bytes directly.  A corpus is parsed once into a
pool of chunk records (seed spans of record-typed tree nodes); abstraction,
replacement, deletion and insertion then edit the *seed* and regenerate, so
derived fields such as lengths and checksums come out correct by
construction.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field

from .decisionstream import LOOKAHEAD_CALL, ChoiceEvent
from .engine import DEFAULT_BUDGET, GenResult, generate_from_seed, parse, run_with_splice
from .errors import (
    GenerationFailed,
    MutationError,
    NoApplicableMutation,
    NotOptional,
    ParseRejected,
    SeedExhausted,
    SpliceMisaligned,
    TypeMismatch,
)

# A random_smart_mutation call gives up after this many rejected attempts.
RETRY_LIMIT = 16


@dataclass(frozen=True)
class ChunkRecord:
    """One record-typed node located in a parsed corpus file.

    decision_span is the node's slice of the canonical seed; lead_start is
    the start of the lookahead event that ends exactly at the span start
    (the token decision that selected this chunk), tail_start the start of
    the lookahead event that begins exactly at the span end.  Both are -1
    when no such event exists.
    """

    source_file: object
    node_id: int
    type_name: str
    file_span: tuple[int, int]
    decision_span: tuple[int, int]
    optional: bool
    preceded_by_lookahead: bool
    followed_by_lookahead: bool
    lead_start: int = -1
    tail_start: int = -1


@dataclass
class ChunkPool:
    """Immutable after index_corpus; shareable across mutation calls.

    by_base and insert_donors are the mutation menus, built once by
    index_corpus: each file's records in records(base) order, and every
    optional record that a lookahead selected, in records() order.
    """

    by_type: dict[str, list[ChunkRecord]] = field(default_factory=dict)
    by_base: dict[object, list[ChunkRecord]] = field(default_factory=dict)
    insert_donors: list[ChunkRecord] = field(default_factory=list)
    seeds: dict[object, bytes] = field(default_factory=dict)
    files: dict[object, bytes] = field(default_factory=dict)
    events: dict[object, list[ChoiceEvent]] = field(default_factory=dict)
    failures: list[tuple[object, str]] = field(default_factory=list)
    evil: bool = True
    budget: int = DEFAULT_BUDGET

    def records(self, base=None):
        """Every record by type, in first-seen type order, then file order;
        with `base`, that file's records in the same order."""
        if base is not None:
            return iter(self.by_base.get(base, ()))
        return (rec for recs in self.by_type.values() for rec in recs)

    def lookahead_events(self, base) -> list[ChoiceEvent]:
        """Candidate insertion points within one corpus file."""
        return [ev for ev in self.events[base] if ev.kind == LOOKAHEAD_CALL]


def index_corpus(unit, files, *, evil: bool = True,
                 budget: int = DEFAULT_BUDGET) -> ChunkPool:
    """Parse corpus files and remember every record-typed chunk.

    files may be a sequence of byte strings (ids are indices) or a mapping
    id -> bytes.  Unparsable files are skipped and reported in
    pool.failures rather than aborting the indexing run.
    """
    record_types = {name for name, td in unit.typedefs.items() if td.kind == "record"}
    pool = ChunkPool(evil=evil, budget=budget)
    items = files.items() if isinstance(files, Mapping) else enumerate(files)
    for cid, data in items:
        data = bytes(data)
        try:
            outcome = parse(unit, data, evil=evil)
        except (ParseRejected, GenerationFailed) as exc:
            pool.failures.append((cid, str(exc)))
            continue
        pool.seeds[cid] = outcome.seed
        pool.files[cid] = data
        pool.events[cid] = outcome.events
        # Later events overwrite earlier ones, so lead_by_end[p] is the
        # lookahead immediately before the node that starts at p.
        lead_by_end: dict[int, int] = {}
        tail_starts: set[int] = set()
        for ev in outcome.events:
            if ev.kind == LOOKAHEAD_CALL:
                lead_by_end[ev.end] = ev.start
                tail_starts.add(ev.start)
        for node in outcome.tree.walk():
            if node.type_name not in record_types:
                continue
            preceded = node.seed_start in lead_by_end
            followed = node.seed_end in tail_starts
            rec = ChunkRecord(
                source_file=cid,
                node_id=node.id,
                type_name=node.type_name,
                file_span=(node.file_start, node.file_end),
                decision_span=(node.seed_start, node.seed_end),
                optional=node.optional,
                preceded_by_lookahead=preceded,
                followed_by_lookahead=followed,
                lead_start=lead_by_end[node.seed_start] if preceded else -1,
                tail_start=node.seed_end if followed else -1,
            )
            pool.by_type.setdefault(node.type_name, []).append(rec)
    for rec in pool.records():
        pool.by_base.setdefault(rec.source_file, []).append(rec)
        if rec.optional and rec.preceded_by_lookahead:
            pool.insert_donors.append(rec)
    return pool


def _seed_slice(pool: ChunkPool, rec: ChunkRecord) -> bytes:
    lo, hi = rec.decision_span
    return pool.seeds[rec.source_file][lo:hi]


def _regenerate_exact(unit, seed: bytes, pool: ChunkPool) -> GenResult:
    """Regenerate from an edited seed, requiring exact consumption.

    A deletion or insertion that desynchronizes the suffix shows up either
    as the stream running dry or as unconsumed bytes at the end; both mean
    the edit did not line up with decision boundaries.
    """
    try:
        result = generate_from_seed(unit, seed, evil=pool.evil, budget=pool.budget)
    except SeedExhausted as exc:
        raise SpliceMisaligned(f"edited seed desynchronized: {exc}") from exc
    unused = len(seed) - len(result.seed)
    if unused:
        raise SpliceMisaligned(f"{unused} decision byte(s) left over after the edit")
    return result


def smart_abstract(unit, pool: ChunkPool, target: ChunkRecord, rng) -> bytes:
    """Regenerate one chunk from random decisions, replaying all others.

    rng may be a random.Random, an int seed, or a fixed byte string (the
    latter makes the operation deterministic; feeding back the chunk's own
    decision bytes reproduces the base file).
    """
    base = pool.seeds[target.source_file]
    result = run_with_splice(unit, base, target.decision_span, rng,
                             evil=pool.evil, budget=pool.budget)
    return result.file


def smart_replace(unit, pool: ChunkPool, target: ChunkRecord,
                  donor: ChunkRecord) -> bytes:
    """Swap in the donor chunk's decision bytes at the target's slot.

    The splice must consume the donor bytes exactly and resume the base
    suffix in lockstep; any mismatch raises SpliceMisaligned.
    """
    if target.type_name != donor.type_name:
        raise TypeMismatch(
            f"cannot replace {target.type_name} with {donor.type_name}")
    donor_bytes = _seed_slice(pool, donor)
    base = pool.seeds[target.source_file]
    result = run_with_splice(unit, base, target.decision_span, donor_bytes,
                             evil=pool.evil, budget=pool.budget)
    return result.file


def smart_delete(unit, pool: ChunkPool, target: ChunkRecord) -> bytes:
    """Remove an optional chunk: its decisions and the token decision that
    selected it, i.e. the seed range [lead lookahead start, following
    lookahead start)."""
    if not (target.preceded_by_lookahead and target.followed_by_lookahead):
        raise NotOptional(
            f"{target.type_name} chunk is not bracketed by lookahead calls")
    seed = pool.seeds[target.source_file]
    mutated = seed[:target.lead_start] + seed[target.tail_start:]
    return _regenerate_exact(unit, mutated, pool).file


def smart_insert(unit, pool: ChunkPool, base, position: ChoiceEvent,
                 donor: ChunkRecord) -> bytes:
    """Insert an optional donor chunk in front of an existing lookahead.

    The spliced-in bytes are the donor's lead lookahead (its token
    decision) plus its chunk decisions; the lookahead already present at
    the insertion point then selects whatever originally followed.
    """
    if getattr(position, "kind", None) != LOOKAHEAD_CALL:
        raise NotOptional("insertion position is not a lookahead call")
    if not (donor.optional and donor.preceded_by_lookahead):
        raise NotOptional(f"donor {donor.type_name} chunk is not optional")
    donor_seed = pool.seeds[donor.source_file]
    piece = donor_seed[donor.lead_start:donor.decision_span[1]]
    base_seed = pool.seeds[base]
    mutated = base_seed[:position.start] + piece + base_seed[position.start:]
    return _regenerate_exact(unit, mutated, pool).file


def _applicable_ops(base_records, deletable, positions, insert_donors) -> list[str]:
    ops = []
    if base_records:
        ops += ["abstract", "replace"]
    if deletable:
        ops.append("delete")
    if positions and insert_donors:
        ops.append("insert")
    return ops


def random_smart_mutation(unit, pool: ChunkPool, base,
                          rng: random.Random) -> tuple[bytes, dict]:
    """Apply one randomly chosen smart mutation to a corpus file.

    Picks uniformly among the operators applicable to `base`, retrying on
    rejection up to RETRY_LIMIT times.  Returns the mutated file plus a
    description dict ready for JSONL logging.
    """
    if base not in pool.seeds:
        raise NoApplicableMutation(f"base {base!r} is not in the pool")
    base_records = pool.by_base.get(base, [])
    deletable = [r for r in base_records
                 if r.preceded_by_lookahead and r.followed_by_lookahead]
    positions = pool.lookahead_events(base)
    ops = _applicable_ops(base_records, deletable, positions, pool.insert_donors)
    if not ops:
        raise NoApplicableMutation(f"no operator applies to base {base!r}")

    last = "never attempted"
    for _ in range(RETRY_LIMIT):
        op = rng.choice(ops)
        donor = None
        try:
            if op == "abstract":
                target = rng.choice(base_records)
                data = smart_abstract(unit, pool, target, rng)
            elif op == "replace":
                target = rng.choice(base_records)
                donor = rng.choice(pool.by_type[target.type_name])
                data = smart_replace(unit, pool, target, donor)
            elif op == "delete":
                target = rng.choice(deletable)
                data = smart_delete(unit, pool, target)
            else:
                target = donor = rng.choice(pool.insert_donors)
                position = rng.choice(positions)
                data = smart_insert(unit, pool, base, position, donor)
        except (MutationError, GenerationFailed) as exc:
            last = f"{op}: {exc}"
            continue
        desc = {
            "op": op,
            "base": base,
            "target_type": target.type_name,
            "result_bytes": len(data),
            "ok": True,
        }
        if donor is not None:
            desc["donor"] = donor.source_file
        return data, desc
    raise NoApplicableMutation(
        f"no mutation succeeded in {RETRY_LIMIT} attempts (last: {last})")
