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
    when no such event exists.  token is the file bytes that lead lookahead
    reserved and site the type of the node it ran in; args holds the
    record's argument values.
    """

    source_file: object
    node_id: int
    type_name: str
    file_span: tuple[int, int]
    decision_span: tuple[int, int]
    optional: bool
    lead_start: int = -1
    tail_start: int = -1
    args: tuple = ()
    token: bytes | None = None
    site: str | None = None

    @property
    def key(self) -> tuple:
        """Records with equal keys can stand in for one another: the same
        type, built with the same arguments, chosen by the same token."""
        return (self.type_name, self.args, self.token)


@dataclass
class BaseMenu:
    """What random_smart_mutation may pick for one base file.

    insert_donors are the pool's donors whose site has a lookahead in this
    base, and positions those lookaheads by site; a donor is only offered
    at a lookahead of the kind that selected it."""

    records: list[ChunkRecord]
    deletable: list[ChunkRecord]
    insert_donors: list[ChunkRecord]
    positions: dict[str, list[ChoiceEvent]]
    ops: list[str]


@dataclass
class ChunkPool:
    """Immutable after index_corpus; shareable across mutation calls.

    The mutation menus are built once by index_corpus: insert_donors holds
    every optional record that a lookahead selected, in records() order,
    donors the replacement candidates by ChunkRecord.key, and menus one
    BaseMenu per file, whose records are the file's in records() order.
    """

    by_type: dict[str, list[ChunkRecord]] = field(default_factory=dict)
    insert_donors: list[ChunkRecord] = field(default_factory=list)
    donors: dict[tuple, list[ChunkRecord]] = field(default_factory=dict)
    menus: dict[object, BaseMenu] = field(default_factory=dict)
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
            return iter(self.menus[base].records if base in self.menus else ())
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
    positions = {}  # file id -> its lookahead events by site
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
        type_of = {None: outcome.tree.type_name}  # events before the first node
        nodes = []
        for node in outcome.tree.walk():
            type_of[node.id] = node.type_name
            if node.type_name in record_types:
                nodes.append(node)
        # Later events overwrite earlier ones, so lead_by_end[p] is the
        # lookahead immediately before the node that starts at p.
        lead_by_end: dict[int, ChoiceEvent] = {}
        tail_starts: set[int] = set()
        by_site = positions[cid] = {}
        for ev in pool.lookahead_events(cid):
            lead_by_end[ev.end] = ev
            tail_starts.add(ev.start)
            by_site.setdefault(type_of[ev.node_id], []).append(ev)
        for node in nodes:
            lead = lead_by_end.get(node.seed_start)
            followed = node.seed_end in tail_starts
            rec = ChunkRecord(
                source_file=cid,
                node_id=node.id,
                type_name=node.type_name,
                file_span=(node.file_start, node.file_end),
                decision_span=(node.seed_start, node.seed_end),
                optional=node.optional,
                lead_start=-1 if lead is None else lead.start,
                tail_start=node.seed_end if followed else -1,
                args=node.args,
                token=None if lead is None else lead.token,
                site=None if lead is None else type_of[lead.node_id],
            )
            pool.by_type.setdefault(node.type_name, []).append(rec)
    by_base: dict[object, list[ChunkRecord]] = {}
    for rec in pool.records():
        by_base.setdefault(rec.source_file, []).append(rec)
        pool.donors.setdefault(rec.key, []).append(rec)
        if rec.optional and rec.lead_start >= 0:
            pool.insert_donors.append(rec)
    donor_sites = {r.site for r in pool.insert_donors}
    for cid, by_site in positions.items():
        records = by_base.get(cid, [])
        deletable = [r for r in records if r.lead_start >= 0 and r.tail_start >= 0]
        insert_donors = (pool.insert_donors if donor_sites <= by_site.keys()
                         else [r for r in pool.insert_donors if r.site in by_site])
        ops = ["abstract", "replace"] if records else []
        if deletable:
            ops.append("delete")
        if insert_donors:
            ops.append("insert")
        pool.menus[cid] = BaseMenu(records, deletable, insert_donors, by_site, ops)
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
    result = run_with_splice(unit, base, target.decision_span, target.node_id, rng,
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
    result = run_with_splice(unit, base, target.decision_span, target.node_id,
                             donor_bytes, evil=pool.evil, budget=pool.budget)
    return result.file


def smart_delete(unit, pool: ChunkPool, target: ChunkRecord) -> bytes:
    """Remove an optional chunk: its decisions and the token decision that
    selected it, i.e. the seed range [lead lookahead start, following
    lookahead start)."""
    if target.lead_start < 0 or target.tail_start < 0:
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
    if not donor.optional or donor.lead_start < 0:
        raise NotOptional(f"donor {donor.type_name} chunk is not optional")
    donor_seed = pool.seeds[donor.source_file]
    piece = donor_seed[donor.lead_start:donor.decision_span[1]]
    base_seed = pool.seeds[base]
    mutated = base_seed[:position.start] + piece + base_seed[position.start:]
    return _regenerate_exact(unit, mutated, pool).file


def random_smart_mutation(unit, pool: ChunkPool, base,
                          rng: random.Random) -> tuple[bytes, dict]:
    """Apply one randomly chosen smart mutation to a corpus file.

    Picks uniformly among the operators applicable to `base`, retrying on
    rejection up to RETRY_LIMIT times.  A replacement donor has the
    target's key, and an insertion goes to a lookahead of the donor's
    site.  Returns the mutated file plus a description dict ready for
    JSONL logging.
    """
    menu = pool.menus.get(base)
    if menu is None:
        raise NoApplicableMutation(f"base {base!r} is not in the pool")
    if not menu.ops:
        raise NoApplicableMutation(f"no operator applies to base {base!r}")

    last = "never attempted"
    for _ in range(RETRY_LIMIT):
        op = rng.choice(menu.ops)
        donor = None
        try:
            if op == "abstract":
                target = rng.choice(menu.records)
                data = smart_abstract(unit, pool, target, rng)
            elif op == "replace":
                target = rng.choice(menu.records)
                donor = rng.choice(pool.donors[target.key])
                data = smart_replace(unit, pool, target, donor)
            elif op == "delete":
                target = rng.choice(menu.deletable)
                data = smart_delete(unit, pool, target)
            else:
                target = donor = rng.choice(menu.insert_donors)
                position = rng.choice(menu.positions[donor.site])
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
