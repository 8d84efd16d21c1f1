"""btfuzz benchmark: end-to-end throughput per workload, per-layer trace.

    python3 bench/run.py --workload mini-evil --seed 1 --seconds 25 --trace 0

Each workload runs one pipeline of five stages through btfuzz's public
API, on inputs made from --seed:

  generate  generate_random over the workload's RNG seeds
  parse     parse over the generated files
  replay    generate_from_seed over the generated seeds
  mutate    random_smart_mutation over a 50-file corpus of those files
  fuzz      `btfuzz fuzz` (btfuzz.cli.main) in mutation mode over that
            corpus, --jobs 1, against the native validator in target.c

Rounds repeat the same work until --seconds have passed; every output of
round 0 is checked, and later rounds must reproduce its digests.  Each
rate is a stage's work over its time in all rounds, scaled to a nominal
machine speed (see reference_seconds and exec_reference_seconds).
--trace 0 prints the end-to-end metrics; --trace 1 runs one more round
with spans around every layer (tracing.py) and prints the per-layer
metrics.  The last stdout line is the result object; the line before it
holds run metadata, raw rates and golden digests.  NOTES.md explains the
workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

STAGES = ("generate", "parse", "replay", "mutate", "fuzz")
CORPUS_FILES = 50
CORPUS_SPACING = 10  # candidates per corpus file
SETUP_REPEATS = 7
SLICES = 8
# The host's speed drifts by up to 2x within a minute, so each stage slice
# is preceded by a fixed reference loop and rates are scaled to the speed
# at which that loop takes REFERENCE_NOMINAL_S (its median on a 2-CPU
# x86-64 host with CPython 3.11).  The report line keeps the raw rates.
REFERENCE_STEPS = 5000
REFERENCE_NOMINAL_S = 0.008
# A fuzz execution is interpreter work plus a delivery to the target, and
# the delivery's cost drifts apart from interpreter speed: in runs of ten
# seeds the fuzz stage lost up to half its speed while the reference loop
# lost at most a quarter.  So there is a second reference, EXEC_STEPS
# deliveries of a fixed input to the target (EXEC_NOMINAL_S: their median
# time on the same host), and the fuzz stage is scaled by both at once.
EXEC_STEPS = 10
EXEC_NOMINAL_S = 0.015
EXEC_INPUT = b"MINI\xff"  # a well-formed MINI file: the target exits 0
TARGET_TIMEOUT_MS = 5000
# every second slice runs one campaign; each campaign indexes the corpus
# again, so campaigns are kept long enough for that to stay a small share
FUZZ_CAMPAIGNS = SLICES // 2
# mini files above this size come from an evil DATA length (up to 64 KiB)
MINI_SMALL_LIMIT = 1024
MINI_LARGE_BUCKET = 8192


@dataclass(frozen=True)
class Workload:
    """Work per round.  NOTES.md says why each workload exists."""

    template: str
    gen_count: int  # files of at most small_limit bytes, when that is set
    mutate_ops: int
    fuzz_execs: int
    large_buckets: int = 0  # and one file per 8 KiB size bucket above it
    evil_off_every: int = 0  # every n-th RNG seed generates with evil off
    small_limit: int | None = None  # also --max-size for mutate and fuzz


WORKLOADS = {
    "mini-evil": Workload("mini", gen_count=1592, large_buckets=8, mutate_ops=3000,
                          fuzz_execs=800, small_limit=MINI_SMALL_LIMIT),
    "pnglite": Workload("pnglite", gen_count=600, evil_off_every=2, mutate_ops=600,
                        fuzz_execs=600),
    "fuzz-mini": Workload("mini", gen_count=1600, mutate_ops=3000, fuzz_execs=1200,
                          small_limit=MINI_SMALL_LIMIT),
}


def split(n: int, parts: int = SLICES) -> list[range]:
    """range(n) cut into contiguous parts (some empty when n is small)."""
    bounds = [n * k // parts for k in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _RefNode:
    __slots__ = ("kind", "value", "children")

    def __init__(self, kind, value):
        self.kind, self.value, self.children = kind, value, []


def reference_seconds() -> float:
    """Time a fixed piece of interpreter work that shares no code with
    btfuzz: small objects, dict updates, bytes and integer arithmetic.
    The collector is off, so btfuzz's heap cannot change its cost."""
    gc.disable()
    try:
        started = time.perf_counter()
        table, root, buf, x = {}, _RefNode("root", 0), bytearray(), 12345
        for _ in range(REFERENCE_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            b = x >> 23
            node = _RefNode("leaf" if b & 1 else "pair", b)
            root.children.append(node)
            key = (node.kind, b & 15)
            table[key] = table.get(key, 0) + 1
            buf += bytes((b & 255,))
        return time.perf_counter() - started
    finally:
        gc.enable()


def exec_reference_seconds(target: Path) -> float:
    """Time EXEC_STEPS deliveries of EXEC_INPUT to the target, each done as
    harness.run_target does it with a `{}` argument: write a temporary
    file, run the target on its path with a timeout, remove the file.
    With a timeout, subprocess waits by polling at doubling intervals from
    1 ms, so a target that ends a little later can cost a whole interval
    more; the reference pays that as the fuzz stage does."""
    started = time.perf_counter()
    for _ in range(EXEC_STEPS):
        fd, path = tempfile.mkstemp(prefix="ref_")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(EXEC_INPUT)
            subprocess.run([str(target), path], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, check=True,
                           timeout=TARGET_TIMEOUT_MS / 1000)
        finally:
            os.unlink(path)
    return time.perf_counter() - started


class Violation(Exception):
    """An output that is wrong, as opposed to a typed btfuzz rejection."""


def derive(seed: int, *parts) -> int:
    """A 64-bit RNG seed for one input, from the workload seed."""
    text = ":".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def import_btfuzz():
    """Import btfuzz from this checkout's src/, never from elsewhere."""
    if not (SRC / "btfuzz" / "__init__.py").is_file():
        sys.exit(f"bench: no btfuzz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import btfuzz
    import btfuzz.cli  # noqa: F401  (and btfuzz.harness)
    if Path(btfuzz.__file__).resolve().parent != SRC / "btfuzz":
        sys.exit(f"bench: imported btfuzz from {btfuzz.__file__}, not {SRC}")
    return btfuzz


@dataclass
class StageRun:
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    file_bytes: int = 0
    seed_bytes: int = 0
    reference_s: float = 0.0  # reference loop time, one run before each slice
    exec_reference_s: float = 0.0  # and the target reference's
    slices: int = 0

    def gauged(self, target: Path) -> StageRun:
        self.reference_s += reference_seconds()
        self.exec_reference_s += exec_reference_seconds(target)
        return self

    def timed(self, seconds: float):
        self.elapsed += seconds
        self.slices += 1


@dataclass
class Round:
    runs: dict[str, StageRun]
    digests: dict = field(default_factory=dict)
    valid_files: int = 0  # generated files the format oracle accepts, if counted


DIGESTS = ("files_sha256", "seeds_sha256", "parse_seeds_sha256", "mutants_sha256")


class Bench:
    def __init__(self, name: str, seed: int, quick: bool, work: Path):
        self.btfuzz = btfuzz = import_btfuzz()
        self.name, self.seed, self.work = name, seed, work
        wl = WORKLOADS[name]
        if quick:
            wl = dataclasses.replace(
                wl, gen_count=wl.gen_count // 10, mutate_ops=wl.mutate_ops // 10,
                fuzz_execs=wl.fuzz_execs // 10, large_buckets=min(wl.large_buckets, 2))
        self.wl = wl
        self.unit = btfuzz.formats.load_template(wl.template)
        self.corpus_budget = wl.small_limit or btfuzz.DEFAULT_BUDGET
        self.corpus = self._make_corpus()
        self.items = (self._mini_items(wl.gen_count, wl.large_buckets) if wl.small_limit
                      else list(itertools.islice(self._stream(), wl.gen_count)))
        self.corpus_dir = work / "corpus"
        self.corpus_dir.mkdir()
        for i, data in enumerate(self.corpus):
            (self.corpus_dir / f"c{i:02d}.bin").write_bytes(data)
        self.pool = btfuzz.mutation.index_corpus(self.unit, self.corpus, evil=True,
                                                 budget=self.corpus_budget)
        if self.pool.failures:
            raise Violation(f"corpus files rejected: {self.pool.failures[:3]}")
        self.bases = sorted(self.pool.seeds)
        self.target = work / "target"
        subprocess.run(["cc", "-O2", "-o", str(self.target), str(BENCH_DIR / "target.c")],
                       check=True)

    # -- inputs ------------------------------------------------------------

    def _stream(self):
        """Candidate (RNG seed, evil) pairs, the same for every stage."""
        every, k = self.wl.evil_off_every, 0
        while True:
            yield derive(self.seed, "gen", k), not (every and k % every == 1)
            k += 1

    def _make_corpus(self) -> list[bytes]:
        """CORPUS_FILES files with a fixed size profile: of the first
        CORPUS_FILES * CORPUS_SPACING distinct files of the candidate stream
        that fit the corpus budget, ordered by size, the middle one of each
        run of CORPUS_SPACING.  A mutation's cost grows with the size of its
        base and with the corpus's record count, so the first 50 files alone
        made mutate_ops_per_s swing by a fifth from seed to seed."""
        generate = self.btfuzz.engine.generate_random
        seen: set[bytes] = set()
        candidates = []
        for r, evil in self._stream():
            try:
                data = generate(self.unit, random.Random(r), evil=evil,
                                budget=self.corpus_budget).file
            except self.btfuzz.Error:
                continue
            if data not in seen:
                seen.add(data)
                candidates.append(data)
            if len(candidates) == CORPUS_FILES * CORPUS_SPACING:
                break
        candidates.sort(key=len)  # stable: stream order among equal sizes
        return candidates[CORPUS_SPACING // 2::CORPUS_SPACING]

    def _mini_items(self, n_small: int, n_buckets: int) -> list[tuple[int, bool]]:
        """Mini candidates with a fixed size profile: n_small files of at
        most 1 KiB, and one file per 8 KiB bucket above it, spread evenly
        among them.  The top 1% of mini files hold most of the bytes, so a
        plain sample's work would swing with how many large files one seed
        happens to draw."""
        generate = self.btfuzz.engine.generate_random
        Error, GenerationFailed = self.btfuzz.Error, self.btfuzz.GenerationFailed
        small: list[tuple[int, int, bool]] = []
        large: dict[int, tuple[int, int, bool]] = {}
        for k, (r, evil) in enumerate(self._stream()):
            if len(small) == n_small and len(large) == n_buckets:
                break
            try:
                generate(self.unit, random.Random(r), evil=evil, budget=MINI_SMALL_LIMIT)
                size = 0
            except GenerationFailed:
                if not n_buckets:
                    continue  # larger than the limit, and no large file is wanted
                try:
                    size = len(generate(self.unit, random.Random(r), evil=evil).file)
                except Error:
                    size = 0  # fails at the full budget too: kept as it is
            if size <= MINI_SMALL_LIMIT:
                if len(small) < n_small:
                    small.append((k, r, evil))
            elif size // MINI_LARGE_BUCKET < n_buckets:
                large.setdefault(size // MINI_LARGE_BUCKET, (k, r, evil))
        smalls = [(r, evil) for _, r, evil in small]
        larges = [(r, evil) for _, r, evil in sorted(large.values())]
        if not larges:
            return smalls
        step = len(smalls) // len(larges)
        items = []
        for i, item in enumerate(larges):
            items += smalls[i * step:(i + 1) * step] + [item]
        return items + smalls[len(larges) * step:]

    # -- stages --------------------------------------------------------------

    def stage_generate(self, run: StageRun, items) -> list[tuple[bool, bytes, bytes]]:
        generate, Error = self.btfuzz.engine.generate_random, self.btfuzz.Error
        out = []
        started = time.perf_counter()
        for r, evil in items:
            try:
                data, _, seed = generate(self.unit, random.Random(r), evil=evil)
            except Error:
                continue
            out.append((evil, data, seed))
        run.timed(time.perf_counter() - started)
        run.attempted += len(items)
        run.failed += len(items) - len(out)
        run.file_bytes += sum(len(data) for _, data, _ in out)
        run.seed_bytes += sum(len(seed) for _, _, seed in out)
        return out

    def stage_parse(self, run: StageRun, generated) -> list[bytes | None]:
        parse, ParseRejected = self.btfuzz.engine.parse, self.btfuzz.ParseRejected
        out = []
        started = time.perf_counter()
        for evil, data, _ in generated:
            try:
                out.append(parse(self.unit, data, evil=evil).seed)
            except ParseRejected:
                out.append(None)
        run.timed(time.perf_counter() - started)
        run.attempted += len(generated)
        run.failed += out.count(None)
        run.file_bytes += sum(len(data) for _, data, _ in generated)
        return out

    def stage_replay(self, run: StageRun, generated) -> list[bytes]:
        replay = self.btfuzz.engine.generate_from_seed
        out = []
        started = time.perf_counter()
        for evil, _, seed in generated:
            out.append(replay(self.unit, seed, evil=evil).file)
        run.timed(time.perf_counter() - started)
        run.attempted += len(generated)
        run.file_bytes += sum(len(data) for data in out)
        return out

    def stage_mutate(self, run: StageRun, indices: range) -> list[bytes | None]:
        mutate = self.btfuzz.mutation.random_smart_mutation
        NoApplicableMutation = self.btfuzz.errors.NoApplicableMutation
        out = []
        started = time.perf_counter()
        for i in indices:
            rng = random.Random(derive(self.seed, "mutate", i))
            try:
                out.append(mutate(self.unit, self.pool, rng.choice(self.bases), rng)[0])
            except NoApplicableMutation:
                out.append(None)
        run.timed(time.perf_counter() - started)
        run.attempted += len(indices)
        run.failed += out.count(None)
        run.file_bytes += sum(len(d) for d in out if d is not None)
        return out

    def stage_fuzz(self, run: StageRun, campaign: int, count: int):
        """One `btfuzz fuzz` campaign of `count` executions; returns its
        outcome counts and its findings as (name, file, seed)."""
        out_dir = self.work / f"findings-{campaign}"
        argv = ["fuzz", "--template", self.wl.template,
                "--target", f"{self.target} {{}}", "--corpus", str(self.corpus_dir),
                "--count", str(count), "--jobs", "1",
                "--rng-seed", str(derive(self.seed, "fuzz", campaign) % 2**32),
                "--timeout-ms", str(TARGET_TIMEOUT_MS),
                "--max-size", str(self.corpus_budget), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            rc = self.btfuzz.cli.main(argv)
            run.timed(time.perf_counter() - started)
        if rc != 0:
            raise Violation(f"btfuzz fuzz exited with {rc}")
        stats = json.loads((out_dir / "stats.json").read_text())
        counts = {kind: stats[kind] for kind in self.btfuzz.harness.OUTCOME_KINDS}
        if sum(counts.values()) != count:
            raise Violation(f"fuzz outcomes {counts} do not sum to {count}")
        run.attempted += count
        run.failed += counts["gen_failed"]
        findings = [(name, (out_dir / f"{name}.bin").read_bytes(),
                     (out_dir / f"{name}.seed").read_bytes()) for name in stats["findings"]]
        shutil.rmtree(out_dir)
        return counts, findings

    def run_round(self, check: bool = False, oracle: bool = False) -> Round:
        """All work of one round, in SLICES interleaved slices, so each
        stage's time is spread over the round rather than one block of it.
        Outputs are digested after each slice, outside the timed calls, and
        not kept; `check` also checks them, `oracle` counts the generated
        files the format oracle accepts."""
        rnd = Round({stage: StageRun() for stage in STAGES})
        hashes = {name: hashlib.sha256() for name in DIGESTS}
        outcomes = dict.fromkeys(self.btfuzz.harness.OUTCOME_KINDS, 0)
        campaigns = split(self.wl.fuzz_execs, FUZZ_CAMPAIGNS)
        runs = rnd.runs
        for k, (part, ops) in enumerate(zip(split(len(self.items)),
                                            split(self.wl.mutate_ops))):
            generated = self.stage_generate(
                runs["generate"].gauged(self.target), self.items[part.start:part.stop])
            parsed = self.stage_parse(runs["parse"].gauged(self.target), generated)
            replayed = self.stage_replay(runs["replay"].gauged(self.target), generated)
            mutants = self.stage_mutate(runs["mutate"].gauged(self.target), ops)
            findings = []
            execs = campaigns[k // 2] if k % 2 else None
            if execs:
                counts, findings = self.stage_fuzz(runs["fuzz"].gauged(self.target), k // 2, len(execs))
                for kind, n in counts.items():
                    outcomes[kind] += n
            for _, data, seed in generated:
                hashes["files_sha256"].update(data)
                hashes["seeds_sha256"].update(seed)
            for seed in parsed:
                hashes["parse_seeds_sha256"].update(seed or b"")
            for data in mutants:
                hashes["mutants_sha256"].update(data or b"")
            if check:
                self.check(generated, parsed, replayed, mutants, findings)
            if oracle:
                rnd.valid_files += sum(self.btfuzz.formats.verify(self.wl.template, data)[0]
                                       for _, data, _ in generated)
        rnd.digests = {name: h.hexdigest() for name, h in hashes.items()}
        rnd.digests["fuzz_outcomes"] = outcomes
        return rnd

    # -- correctness -----------------------------------------------------------

    def check(self, generated, parsed, replayed, mutants, findings):
        """Raise Violation on any wrong output of one slice."""
        btf = self.btfuzz
        for (evil, data, _), seed in zip(generated, parsed):
            if seed is None:
                continue
            if btf.engine.generate_from_seed(self.unit, seed, evil=evil).file != data:
                raise Violation("a parsed seed does not regenerate its file")
        for (_, data, _), again in zip(generated, replayed):
            if again != data:
                raise Violation("a replayed seed differs from its generated file")
        for data in mutants:
            if data is None:
                continue
            try:
                btf.engine.parse(self.unit, data, evil=True)
            except btf.Error as exc:
                raise Violation(f"the template rejects a mutated file: {exc}")
        for name, data, seed in findings:
            if btf.engine.generate_from_seed(self.unit, seed).file != data:
                raise Violation(f"persisted seed {name} does not replay to its file")


# -- metrics -------------------------------------------------------------------


def speeds(rounds: list[Round]) -> tuple[float, float]:
    """The machine's speed over these rounds as a share of nominal, for
    interpreter work and for fuzz executions.  The first is the reference
    loop's nominal time over its mean time before each slice.  A fuzz
    execution is about as much interpreter work as target delivery (from a
    third to two thirds on these workloads), so its time is scaled by the
    mean of both references' times, each over its nominal time."""
    runs = [run for rnd in rounds for run in rnd.runs.values()]
    slices = sum(run.slices for run in runs)
    interp = sum(run.reference_s for run in runs) / (slices * REFERENCE_NOMINAL_S)
    execs = sum(run.exec_reference_s for run in runs) / (slices * EXEC_NOMINAL_S)
    return 1 / interp, 2 / (interp + execs)


def throughput(rounds: list[Round], scale: tuple[float, float]
               ) -> dict[str, tuple[float, str]]:
    """Each stage's work over its time, summed over rounds, divided by the
    machine's speed (`speeds`, or (1, 1) for raw rates): the fuzz stage by
    the speed for fuzz executions, every other stage by the other."""
    def rate(stage, work):
        runs = [rnd.runs[stage] for rnd in rounds]
        speed = scale[1] if stage == "fuzz" else scale[0]
        return sum(work(r) for r in runs) / sum(r.elapsed for r in runs) / speed
    kib = 1024.0
    return {
        "generate_files_per_s": (rate("generate", lambda s: s.attempted), "files/s"),
        "generate_kib_per_s": (rate("generate", lambda s: s.file_bytes / kib), "KiB/s"),
        "generate_seed_kib_per_s": (rate("generate", lambda s: s.seed_bytes / kib), "KiB/s"),
        "parse_files_per_s": (rate("parse", lambda s: s.attempted), "files/s"),
        "parse_kib_per_s": (rate("parse", lambda s: s.file_bytes / kib), "KiB/s"),
        "replay_files_per_s": (rate("replay", lambda s: s.attempted), "files/s"),
        "replay_kib_per_s": (rate("replay", lambda s: s.file_bytes / kib), "KiB/s"),
        "mutate_ops_per_s": (rate("mutate", lambda s: s.attempted), "ops/s"),
        "fuzz_execs_per_s": (rate("fuzz", lambda s: s.attempted), "execs/s"),
    }


SETUP_PROBE = """
import sys, time
from pathlib import Path
src, template, corpus, budget = sys.argv[1:5]
text = (Path(src) / "btfuzz/formats/templates" / f"{template}.bt").read_text()
files = [p.read_bytes() for p in sorted(Path(corpus).iterdir())]
sys.path.insert(0, src)
started = time.perf_counter()
import btfuzz
unit = btfuzz.parse_template(text, template)
btfuzz.index_corpus(unit, files, evil=True, budget=int(budget))
print(time.perf_counter() - started)
"""


def setup_seconds(bench: Bench) -> float:
    """Median time to import btfuzz, parse the template and index the
    corpus, each repeat in a fresh interpreter, scaled to nominal speed by
    the reference loop run just before it."""
    times = []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_NOMINAL_S / reference_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), bench.wl.template,
             str(bench.corpus_dir), str(bench.corpus_budget)],
            capture_output=True, text=True, check=True)
        times.append(float(proc.stdout.strip()) * scale)
    return statistics.median(times)


def traced_metrics(bench: Bench, first: Round, untraced: Round, timed_round):
    """One more round with every layer wrapped, which also counts the
    oracle's verdicts; returns the per-layer metrics and that round.  It
    repeats `first` (round 0) exactly."""
    import tracing
    btf = bench.btfuzz
    text = btf.formats.template_text(bench.wl.template)
    parse_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        btf.parse_template(text, bench.wl.template)
        parse_s.append(time.perf_counter() - started)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pool = btf.mutation.index_corpus(bench.unit, bench.corpus, evil=True,
                                         budget=bench.corpus_budget)
        traced = timed_round(oracle=True)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(WORK / f"trace-{bench.name}-seed{bench.seed}.jsonl")
    if pool.seeds != bench.pool.seeds:
        raise Violation("traced index_corpus differs from the untraced one")

    m = {"templatelang.parse_template_s": (statistics.median(parse_s), "s"),
         "templatelang.decls": (len(bench.unit.declarations), "count")}
    for name, value in tracer.layer_metrics().items():
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else
                "bytes" if name.endswith("_bytes") else "count")
        m[name] = (value, unit)
    for kind, n in first.digests["fuzz_outcomes"].items():
        m[f"harness.outcome.{kind}"] = (n, "count")
    generated = traced.runs["generate"]
    m["formats.valid_ratio"] = (
        traced.valid_files / (generated.attempted - generated.failed), "ratio")
    runs = traced.runs.values()
    m["failed_ratio"] = (sum(r.failed for r in runs) / sum(r.attempted for r in runs),
                         "ratio")

    def scaled_time(rnd: Round) -> float:
        interp, execs = speeds([rnd])
        return sum(r.elapsed * (execs if stage == "fuzz" else interp)
                   for stage, r in rnd.runs.items())
    m["bench.trace_overhead_ratio"] = (scaled_time(traced) / scaled_time(untraced) - 1,
                                       "ratio")
    return m, traced


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_workload(args) -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tmp = work / "tmp"
    tmp.mkdir()
    tempfile.tempdir = str(tmp)  # run_target's input files stay in the checkout
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    report = {"workloads_run": [args.workload],
              "seed": args.seed, "trace": args.trace, "git_sha": git_sha(),
              "python": platform.python_version(), "cpus": os.cpu_count()}
    try:
        bench = Bench(args.workload, args.seed, args.quick, work)
        deadline = time.perf_counter() + args.seconds
        first = bench.run_round(check=True)
        report["golden"] = first.digests

        def timed_round(oracle: bool = False) -> Round:
            rnd = bench.run_round(oracle=oracle)
            if rnd.digests != first.digests:
                raise Violation(f"round outputs differ from round 0: "
                                f"{rnd.digests} != {first.digests}")
            for stage in STAGES:
                if rnd.runs[stage].failed != first.runs[stage].failed:
                    raise Violation(f"{stage} failures differ from round 0")
            return rnd

        if args.trace:
            untraced = timed_round()
            metrics, traced = traced_metrics(bench, first, untraced, timed_round)
            rounds = [traced]
        else:
            rounds = [first]
            while time.perf_counter() < deadline:
                rounds.append(timed_round())
            scale = speeds(rounds)
            report["speed"], report["fuzz_speed"] = scale
            unscaled = throughput(rounds, (1.0, 1.0))
            report["unscaled"] = {k: v for k, (v, _) in unscaled.items()}
            metrics = throughput(rounds, scale)
            metrics["setup_s"] = (setup_seconds(bench), "s")
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        # Later rounds repeat round 0's operations on the same inputs, so the
        # distinct operations, and those that failed, are round 0's: counts
        # that depend on the seed alone, not on how many rounds fit the time.
        attempted = {s: first.runs[s].attempted for s in STAGES}
        failed = {s: first.runs[s].failed for s in STAGES}
        report.update(rounds=len(rounds), attempted=attempted, failed=failed,
                      failed_ratio=sum(failed.values()) / sum(attempted.values()))
        result.update(correct=True, attempted=sum(attempted.values()),
                      failed=sum(failed.values()),
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    except Violation as exc:
        report["violation"] = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="a tenth of the work per round, for the self-check")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
