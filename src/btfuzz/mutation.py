"""Smart mutations over decision seeds.

Mutations never touch file bytes directly.  A corpus is parsed once into a
pool of chunk records (seed spans of record-typed tree nodes); abstraction,
replacement, deletion and insertion then edit the *seed* and regenerate, so
derived fields such as lengths and checksums come out correct by
construction.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field

from .decisionstream import ChoiceSpec
from .engine import (
    DEFAULT_BUDGET, ChoiceEvent, GenResult, generate_from_seed, parse, run_with_splice)
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
    the start of the node's lead, the lookahead that ended where the node
    starts (the token decision that selected this chunk), and tail_start
    the span end when the first lookahead after the lead begins there.
    Both are -1 when no such event exists.  token is the file bytes the
    lead reserved; args holds the record's argument values.  context is
    set when the lead and the tail have the same lookahead context (see
    index_corpus), and is then that context: the lookahead decodes the
    same way before and after the chunk, so the chunk can be removed, or
    put in front of another lookahead of that context, without changing
    how the rest of the seed decodes.
    """

    source_file: object
    node_id: int
    type_name: str
    decision_span: tuple[int, int]
    lead_start: int = -1
    tail_start: int = -1
    args: tuple = ()
    token: bytes | None = None
    context: tuple | None = None

    @property
    def key(self) -> tuple:
        """Records with equal keys can stand in for one another: the same
        type, built with the same arguments, chosen by the same token."""
        return (self.type_name, self.args, self.token)


@dataclass
class BaseMenu:
    """What random_smart_mutation may pick for one base file.

    targets are the file's records that own a decision (abstract and
    replace of an empty decision span would regenerate the base);
    deletable the records with a context; insert_donors the pool's donors
    whose context has a lookahead in this base, and positions those
    lookaheads by context, so a donor is only offered where it lines up.
    """

    targets: list[ChunkRecord]
    deletable: list[ChunkRecord]
    insert_donors: list[ChunkRecord]
    positions: dict[tuple, list[ChoiceEvent]]
    ops: list[str]


@dataclass
class ChunkPool:
    """Immutable after index_corpus; shareable across mutation calls.

    The mutation menus are built once by index_corpus: insert_donors holds
    every record with a context, in records() order, donors the
    replacement candidates by ChunkRecord.key, and menus one BaseMenu per
    file, whose lists keep the file's records() order.
    """

    by_type: dict[str, list[ChunkRecord]] = field(default_factory=dict)
    insert_donors: list[ChunkRecord] = field(default_factory=list)
    donors: dict[tuple, list[ChunkRecord]] = field(default_factory=dict)
    menus: dict[object, BaseMenu] = field(default_factory=dict)
    seeds: dict[object, bytes] = field(default_factory=dict)
    failures: list[tuple[object, str]] = field(default_factory=list)
    evil: bool = True
    budget: int = DEFAULT_BUDGET

    def records(self):
        """Every record by type, in first-seen type order, then file order."""
        return (rec for recs in self.by_type.values() for rec in recs)


def _context(site: str, spec: ChoiceSpec) -> tuple:
    """What a lookahead chooses among: equal contexts decode the same seed
    bytes to the same token."""
    lists = (spec.candidates, spec.preferred, spec.possible)
    return (site, spec.width, spec.pref_prob,
            *(None if xs is None else tuple(xs) for xs in lists))


def index_corpus(unit, files, *, evil: bool = True,
                 budget: int = DEFAULT_BUDGET) -> ChunkPool:
    """Parse corpus files and remember every record-typed chunk.

    files may be a sequence of byte strings (ids are indices) or a mapping
    id -> bytes.  Unparsable files are skipped and reported in
    pool.failures rather than aborting the indexing run.

    Each lookahead gets a context: its site (the type of the node it ran
    in), its width, its candidates or preferred/possible tokens, and
    pref_prob.  A record is deletable, and an insert donor, when its lead
    and its tail lookahead have equal contexts; a donor is offered at a
    base's lookaheads of its own context.
    """
    record_types = {name for name, td in unit.typedefs.items() if td.kind == "record"}
    pool = ChunkPool(evil=evil, budget=budget)
    positions = {}  # file id -> its lookahead events by context
    items = files.items() if isinstance(files, Mapping) else enumerate(files)
    for cid, data in items:
        try:
            outcome = parse(unit, data, evil=evil, tree=True)
        except (ParseRejected, GenerationFailed) as exc:
            pool.failures.append((cid, str(exc)))
            continue
        pool.seeds[cid] = outcome.seed
        looks = outcome.events
        type_of = {}
        nodes = []
        for node in outcome.tree.walk():
            type_of[node.id] = node.type_name
            if node.type_name in record_types:
                nodes.append(node)
        starts = [ev.start for ev in looks]
        order = {id(ev): i for i, ev in enumerate(looks)}
        contexts = [_context(type_of[ev.node_id], ev.spec) for ev in looks]
        by_context = positions[cid] = {}
        for ev, ctx in zip(looks, contexts):
            by_context.setdefault(ctx, []).append(ev)
        for node in nodes:
            lead, tail_start, context = node.lead, -1, None
            if lead is not None:
                i = order[id(lead)]
                # the tail: the first lookahead after the lead that begins
                # at or past the node's end
                j = bisect_left(starts, node.seed_end, i + 1)
                if j < len(looks) and starts[j] == node.seed_end:
                    tail_start = node.seed_end
                    if contexts[j] == contexts[i]:
                        context = contexts[i]
            rec = ChunkRecord(
                source_file=cid,
                node_id=node.id,
                type_name=node.type_name,
                decision_span=(node.seed_start, node.seed_end),
                lead_start=-1 if lead is None else lead.start,
                tail_start=tail_start,
                args=node.args,
                token=None if lead is None else lead.token,
                context=context,
            )
            pool.by_type.setdefault(node.type_name, []).append(rec)
    by_base: dict[object, list[ChunkRecord]] = {}
    for rec in pool.records():
        by_base.setdefault(rec.source_file, []).append(rec)
        pool.donors.setdefault(rec.key, []).append(rec)
        if rec.context is not None:
            pool.insert_donors.append(rec)
    donor_contexts = {r.context for r in pool.insert_donors}
    for cid, by_context in positions.items():
        records = by_base.get(cid, [])
        targets = [r for r in records if r.decision_span[0] < r.decision_span[1]]
        deletable = [r for r in records if r.context is not None]
        insert_donors = (pool.insert_donors if donor_contexts <= by_context.keys()
                         else [r for r in pool.insert_donors if r.context in by_context])
        ops = ["abstract", "replace"] if targets else []
        if deletable:
            ops.append("delete")
        if insert_donors:
            ops.append("insert")
        pool.menus[cid] = BaseMenu(targets, deletable, insert_donors, by_context, ops)
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


def smart_abstract(unit, pool: ChunkPool, target: ChunkRecord, rng) -> GenResult:
    """Regenerate one chunk from random decisions, replaying all others.

    rng may be a random.Random, an int seed, or a fixed byte string (the
    latter makes the operation deterministic; feeding back the chunk's own
    decision bytes reproduces the base file).  Returns the splice's run,
    whose seed regenerates its file under the pool's evil and budget.
    """
    base = pool.seeds[target.source_file]
    return run_with_splice(unit, base, target.decision_span, target.node_id, rng,
                           evil=pool.evil, budget=pool.budget)


def smart_replace(unit, pool: ChunkPool, target: ChunkRecord,
                  donor: ChunkRecord) -> GenResult:
    """Swap in the donor chunk's decision bytes at the target's slot.

    The splice must consume the donor bytes exactly and resume the base
    suffix in lockstep; any mismatch raises SpliceMisaligned.  Returns the
    splice's run, as smart_abstract does.
    """
    if target.type_name != donor.type_name:
        raise TypeMismatch(
            f"cannot replace {target.type_name} with {donor.type_name}")
    donor_bytes = _seed_slice(pool, donor)
    base = pool.seeds[target.source_file]
    return run_with_splice(unit, base, target.decision_span, target.node_id,
                           donor_bytes, evil=pool.evil, budget=pool.budget)


def smart_delete(unit, pool: ChunkPool, target: ChunkRecord) -> GenResult:
    """Remove an optional chunk: its decisions and the token decision that
    selected it, i.e. the seed range [lead lookahead start, following
    lookahead start).  Returns the run of the edited seed, which it
    consumed exactly."""
    if target.lead_start < 0 or target.tail_start < 0:
        raise NotOptional(
            f"{target.type_name} chunk is not bracketed by lookahead calls")
    seed = pool.seeds[target.source_file]
    mutated = seed[:target.lead_start] + seed[target.tail_start:]
    return _regenerate_exact(unit, mutated, pool)


def smart_insert(unit, pool: ChunkPool, base, position: ChoiceEvent,
                 donor: ChunkRecord) -> GenResult:
    """Insert an optional donor chunk in front of an existing lookahead.

    The spliced-in bytes are the donor's lead lookahead (its token
    decision) plus its chunk decisions; the lookahead already present at
    the insertion point then selects whatever originally followed.
    Returns the run of the edited seed, as smart_delete does.
    """
    if donor.lead_start < 0:
        raise NotOptional(f"donor {donor.type_name} chunk is not optional")
    donor_seed = pool.seeds[donor.source_file]
    piece = donor_seed[donor.lead_start:donor.decision_span[1]]
    base_seed = pool.seeds[base]
    mutated = base_seed[:position.start] + piece + base_seed[position.start:]
    return _regenerate_exact(unit, mutated, pool)


def random_smart_mutation(unit, pool: ChunkPool, base,
                          rng: random.Random) -> tuple[bytes, dict, bytes]:
    """Apply one randomly chosen smart mutation to a corpus file.

    Picks uniformly among the operators applicable to `base`, retrying on
    rejection up to RETRY_LIMIT times.  A replacement donor has the
    target's key, and an insertion goes to a lookahead of the donor's
    context.  Returns the mutated file, a description dict ready for JSONL
    logging and the seed the file was made from.  The dict's `rejected`
    lists [op, error class] per rejected attempt, as does
    NoApplicableMutation.rejected when none succeeded.
    """
    menu = pool.menus.get(base)
    if menu is None:
        raise NoApplicableMutation(f"base {base!r} is not in the pool")
    if not menu.ops:
        raise NoApplicableMutation(f"no operator applies to base {base!r}")

    rejected = []
    last = "never attempted"
    for _ in range(RETRY_LIMIT):
        op = rng.choice(menu.ops)
        donor = None
        try:
            if op == "abstract":
                target = rng.choice(menu.targets)
                result = smart_abstract(unit, pool, target, rng)
            elif op == "replace":
                target = rng.choice(menu.targets)
                donor = rng.choice(pool.donors[target.key])
                result = smart_replace(unit, pool, target, donor)
            elif op == "delete":
                target = rng.choice(menu.deletable)
                result = smart_delete(unit, pool, target)
            else:
                target = donor = rng.choice(menu.insert_donors)
                position = rng.choice(menu.positions[donor.context])
                result = smart_insert(unit, pool, base, position, donor)
        except (MutationError, GenerationFailed) as exc:
            rejected.append([op, type(exc).__name__])
            last = f"{op}: {exc}"
            continue
        desc = {
            "op": op,
            "base": base,
            "target_type": target.type_name,
            "result_bytes": len(result.file),
            "ok": True,
            "rejected": rejected,
        }
        if donor is not None:
            desc["donor"] = donor.source_file
        return result.file, desc, result.seed
    raise NoApplicableMutation(
        f"no mutation succeeded in {RETRY_LIMIT} attempts (last: {last})", rejected)
