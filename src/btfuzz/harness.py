"""Black-box fuzzing harness.

Runs target programs over generated or mutated files, classifies outcomes
(exit 0 = valid, nonzero = invalid, signal = crash, wall clock = timeout),
persists findings alongside replayable decision seeds, and implements the
QA commands (round-trip, coverage) exposed by the CLI.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import select
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .engine import compiled, generate_from_seed, generate_random, parse
from .errors import Error, GenerationFailed, NoApplicableMutation, ParseRejected, TrailingBytes
from .formats import VERIFIERS, load_template, resolve_template, verify
from .mutation import index_corpus, random_smart_mutation
from .runtime import DEFAULT_BUDGET

OUTCOME_KINDS = ("valid", "invalid", "crash", "timeout", "gen_failed")

# Successive files draw from independent rngs derived from one master seed,
# so runs are reproducible regardless of how work is split across jobs.
RNG_STRIDE = 1_000_003

# Names the fd pair and the user's LD_PRELOAD for the fork-server shim.
_HANDSHAKE_VAR = "BTFUZZ_FORKSRV"


def _iteration_rng(master: int, index: int) -> random.Random:
    """The rng of file `index` in a run with master seed `master`."""
    return random.Random(master * RNG_STRIDE + index)


@dataclass
class Outcome:
    """One target execution, classified."""

    kind: str
    exit_code: int | None = None
    signal: int | None = None
    duration: float = 0.0

    def __post_init__(self):
        if (self.kind == "crash") != (self.signal is not None):
            raise ValueError(f"outcome {self.kind!r} with signal {self.signal}: "
                             "crash if and only if the target died to a signal")

    def to_json(self) -> dict:
        return {"kind": self.kind, "exit_code": self.exit_code,
                "signal": self.signal, "duration": round(self.duration, 6)}


def _outcome(code: int | None, duration: float) -> Outcome:
    """Classify a return code as Popen reports it: None for a target still
    running at its deadline, minus the signal number for one that a signal
    killed, else the exit status."""
    if code is None:
        return Outcome("timeout", duration=duration)
    if code < 0:
        return Outcome("crash", signal=-code, duration=duration)
    return Outcome("valid" if code == 0 else "invalid", exit_code=code,
                   duration=duration)


def _target_argv(target: str) -> list[str]:
    """A target command's words; ValueError if none, or if a quote is left open."""
    argv = shlex.split(target)
    if not argv:
        raise ValueError("empty target command")
    return argv


class _Target:
    """A target command, run on one input after another, one process each.

    One input is in flight at a time, started by spawn() and ended by
    finish() or kill().  Every input is written to one temporary file,
    created here (in `tmp_dir`, or the default temporary directory) and
    removed by close().  The file's path replaces a `{}` token in the
    command; a command without one reads the file as its stdin, from
    offset 0 for every input.  The target leads a session of its own, so
    that kill() takes the processes it started along.
    """

    delivery = "spawn"

    def __init__(self, target: str, timeout_ms: int, tmp_dir: str | None = None):
        argv = _target_argv(target)
        self.timeout_ms = timeout_ms
        self.stdin = None
        fd, self.path = tempfile.mkstemp(prefix="btfuzz_in_", dir=tmp_dir)
        os.close(fd)
        try:
            if any("{}" in word for word in argv):
                argv = [word.replace("{}", self.path) for word in argv]
            else:
                self.stdin = os.open(self.path, os.O_RDONLY)
        except BaseException:
            self.close()
            raise
        self.argv = argv

    def _write(self, data: bytes) -> None:
        """Write `data` to the input file.  The previous target must have
        exited, since the file is overwritten."""
        # Written in place and cut to length: truncating to zero and closing
        # makes ext4 (auto_da_alloc) start writeback on every input.
        # O_CREAT recreates the file if the target removed or renamed it.
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o600)
        try:
            view = memoryview(data)
            written = 0
            while written < len(view):
                written += os.pwrite(fd, view[written:], written)
            os.ftruncate(fd, len(view))
        finally:
            os.close(fd)

    def spawn(self, data: bytes) -> None:
        """Start the target on `data`."""
        self._write(data)
        if self.stdin is not None:
            os.lseek(self.stdin, 0, os.SEEK_SET)
        self.started = time.perf_counter()
        self.deadline = self.started + self.timeout_ms / 1000.0
        self.run = subprocess.Popen(self.argv, stdin=self.stdin, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            self.pidfd = os.pidfd_open(self.run.pid)
        except (AttributeError, OSError):
            self.pidfd = None

    def _code(self) -> int | None:
        """The target's return code, as Popen reports it, once it exits; None
        if its deadline passes first.  On Linux this blocks on a pidfd, which
        wakes the moment the target exits; without one it falls back to
        Popen.wait."""
        if self.pidfd is not None:
            poller = select.poll()
            poller.register(self.pidfd, select.POLLIN)
            left = max(0.0, self.deadline - time.perf_counter())
            poller.poll(left * 1000)  # ms, rounded up
        try:
            self.run.wait(max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        return self.run.poll()

    def finish(self) -> Outcome:
        """Wait for the input in flight until its deadline, then classify it;
        one still running at the deadline is killed and counts as a timeout."""
        try:
            code = self._code()
        finally:
            self.kill()
        return _outcome(code, time.perf_counter() - self.started)

    def kill(self) -> None:
        """Kill the target's process group, whether or not the target still
        runs, and reap the target; release the pidfd."""
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.run.pid, signal.SIGKILL)
        self.run.wait()
        if self.pidfd is not None:
            os.close(self.pidfd)
            self.pidfd = None

    def close(self) -> None:
        if self.stdin is not None:
            os.close(self.stdin)
            self.stdin = None
        with contextlib.suppress(OSError):
            os.unlink(self.path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _NoForkServer(Exception):
    """Why a target cannot run under the fork server."""


def _shim() -> str:
    """The path of the fork-server shim (forkserver.c), compiled with `cc`
    into the per-user cache on first use."""
    source = resources.files(__package__).joinpath("forkserver.c").read_bytes()
    cache = os.environ.get("XDG_CACHE_HOME", "")
    cache = Path(cache if os.path.isabs(cache) else Path.home() / ".cache") / "btfuzz"
    lib = cache / f"forkserver-{hashlib.sha256(source).hexdigest()[:16]}.so"
    if " " in str(lib) or ":" in str(lib):
        raise _NoForkServer(f"LD_PRELOAD cannot name {lib}")
    if lib.is_file():
        return str(lib)
    cc = shutil.which("cc")
    if cc is None:
        raise _NoForkServer("no cc to build the shim with")
    tmp = None
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=lib.name + ".", dir=cache)
        os.close(fd)
        built = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", tmp, "-x", "c", "-"],
                               input=source, capture_output=True, timeout=120)
        if built.returncode != 0:
            raise _NoForkServer("cc failed: "
                                + built.stderr.decode(errors="replace").strip()[-300:])
        os.replace(tmp, lib)  # whole or not at all, whichever worker builds it
        tmp = None
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise _NoForkServer(f"cannot build the shim: {exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):  # cc removes it when it fails
                os.unlink(tmp)
    return str(lib)


class _ForkServer(_Target):
    """A target started once with the shim preloaded; the shim forks it
    before `main` for every input, and the child runs `main` on that input.
    The server reports the child's pid, then its wait status.  The child
    leads a process group of its own, which the server is not in.

    The server forks ahead: each child but the first is forked, and its pid
    reported, as soon as the previous child's status is written; it then
    waits for its own go word.  So a pid is usually readable before spawn()
    sends the go word, and the deadline still runs from that word.

    The input file is _Target's.  A stdin target's file is the server's
    stdin, and each child seeks it back to 0.  The constructor raises
    _NoForkServer when the shim cannot be built, or when the target exits
    or stays silent for `timeout_ms` instead of saying hello (a static or
    setuid target ignores LD_PRELOAD).
    """

    delivery = "fork-server"

    def __init__(self, target: str, timeout_ms: int, tmp_dir: str | None = None):
        shim = _shim()
        super().__init__(target, timeout_ms, tmp_dir)
        self.proc = None
        self.ctl = self.replies = None
        try:
            theirs = []  # the server's ends, closed here once it has them
            try:
                ctl, self.ctl = os.pipe()
                theirs.append(ctl)
                self.replies, out = os.pipe()
                theirs.append(out)
                preload = os.environ.get("LD_PRELOAD")
                env = dict(os.environ, LD_PRELOAD=f"{shim} {preload}" if preload else shim)
                env[_HANDSHAKE_VAR] = f"{ctl},{out}" + ("" if preload is None
                                                         else f"={preload}")
                self.proc = subprocess.Popen(
                    self.argv, stdin=self.stdin, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL, env=env, pass_fds=(ctl, out))
            finally:
                for fd in theirs:
                    os.close(fd)
            self.poller = select.poll()
            self.poller.register(self.replies, select.POLLIN)
            hello = self.recv(time.perf_counter() + timeout_ms / 1000.0)
            if hello != b"BTFZ":
                raise _NoForkServer(f"no handshake within {timeout_ms} ms" if hello is None
                                    else "the target exited before the handshake, "
                                         "as a static or setuid binary does")
        except BaseException:
            self.close()
            raise

    def recv(self, deadline: float | None) -> bytes | None:
        """The server's next 4-byte word: None if `deadline` (perf_counter
        seconds; None waits for ever) passes first, b"" once it exited.
        The server sends each word with one 4-byte write to a pipe, which
        is atomic, so one read of 4 bytes takes one whole word."""
        if deadline is not None and not self.poller.poll(
                max(0.0, deadline - time.perf_counter()) * 1000):
            return None
        return os.read(self.replies, 4)

    def spawn(self, data: bytes) -> None:
        """Run the target on `data`: the go word starts the child that the
        server forked ahead, or has the server fork the first one."""
        self._write(data)
        os.write(self.ctl, b"\0\0\0\0")
        self.started = time.perf_counter()
        self.deadline = self.started + self.timeout_ms / 1000.0
        self.pid = self.status = None

    def _read(self, deadline: float | None) -> bool:
        """Take the next of the child's pid and status; False if `deadline`
        passed first."""
        word = self.recv(deadline)
        if word is None:
            return False
        if not word:
            raise ChildProcessError("the fork server exited")
        value = int.from_bytes(word, sys.byteorder, signed=True)
        if self.pid is None:
            self.pid = value
        else:
            self.status = value
        return True

    def _code(self) -> int | None:
        """The child's return code, as _Target._code gives a target's."""
        while self.status is None and self._read(self.deadline):
            pass
        return None if self.status is None else os.waitstatus_to_exitcode(self.status)

    def kill(self) -> None:
        """Kill the child's process group, whether or not the child still
        runs, and take its status, which leaves the server ready for the
        next input.  The server itself is never signalled."""
        try:
            if self.pid is None:
                self._read(None)
            # no group left: the child is reaped, and its status on its way
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.pid, signal.SIGKILL)
            if self.status is None:
                self._read(None)
        except ChildProcessError:
            pass  # the server died, and PR_SET_PDEATHSIG took the child along

    def close(self) -> None:
        """Kill and reap the server.  Its children are settled but for the
        one forked ahead and idle, which PR_SET_PDEATHSIG kills with it."""
        try:
            if self.proc is not None:
                self.proc.kill()
                self.proc.wait()
            for fd in (self.ctl, self.replies):
                if fd is not None:
                    os.close(fd)
            self.ctl = self.replies = None
        finally:
            super().close()


def _open_target(target: str, timeout_ms: int, tmp_dir: str) -> _Target:
    """The target behind a fork server; the spawn path, with a warning, when
    the server cannot start."""
    try:
        return _ForkServer(target, timeout_ms, tmp_dir)
    except _NoForkServer as exc:
        # one write: print() writes the line and its newline apart, and the
        # fuzz workers share stderr, so their warnings would interleave
        sys.stderr.write(f"btfuzz: fork server unavailable: {exc}; starting the target "
                         "once per input\n")
        return _Target(target, timeout_ms, tmp_dir)


def run_target(target: str, data: bytes, timeout_ms: int) -> Outcome:
    """Deliver one input to the target command and classify the result.

    The input is written to a temporary file, removed before this returns,
    whose path replaces a `{}` token in the command; without one the file
    is the target's stdin.  Spawn failures (missing executable) raise
    OSError to the caller.
    """
    with _Target(target, timeout_ms) as tgt:
        tgt.spawn(data)
        return tgt.finish()


def _stats_line(counts: Counter, iters: int, elapsed: float) -> str:
    valid_pct = 100.0 * counts["valid"] / iters if iters else 0.0
    rate = iters / elapsed if elapsed > 0 else 0.0
    return json.dumps({"iters": iters, "valid%": round(valid_pct, 1),
                       "crashes": counts["crash"], "execs/s": round(rate, 1)})


def _count_ops(ops: dict, accepted: str | None, rejected: list) -> None:
    """Add one random_smart_mutation call to per-operator counts, kept as
    op -> {"attempts", "accepts", "rejects": {error class: n}}."""
    for op, cls in [*rejected, (accepted, None)]:
        if op is None:
            continue
        entry = ops.setdefault(op, {"attempts": 0, "accepts": 0, "rejects": {}})
        entry["attempts"] += 1
        if cls is None:
            entry["accepts"] += 1
        else:
            entry["rejects"][cls] = entry["rejects"].get(cls, 0) + 1


def _sum_ops(per_worker: list[dict]) -> dict:
    """Per-operator counts of several workers, summed, by operator name."""
    total: dict = {}
    for ops in per_worker:
        for op, entry in ops.items():
            summed = total.setdefault(op, {"attempts": 0, "accepts": 0, "rejects": {}})
            summed["attempts"] += entry["attempts"]
            summed["accepts"] += entry["accepts"]
            for cls, n in entry["rejects"].items():
                summed["rejects"][cls] = summed["rejects"].get(cls, 0) + n
    return dict(sorted(total.items()))


def _ops_line(ops: dict) -> str:
    return json.dumps({"mutations": dict(sorted(ops.items()))})


def _cpu_now() -> int:
    """The CPU that the calling thread is running on (field 39 of its stat)."""
    with open("/proc/thread-self/stat", "rb") as f:
        return int(f.read().rpartition(b")")[2].split()[36])


@contextlib.contextmanager
def _cpus_apart(target: _Target, jobs: int):
    """Pin the calling thread, a --jobs 1 fuzz worker, to the CPU it runs on
    and `target`'s fork server to the other CPU of a two-CPU mask, as
    _fuzz_worker says; yield the split, {"worker": [...], "server": [...]},
    and restore the thread's mask on the way out.  Yields None, and pins
    nothing, on the spawn path, under more jobs, with any other number of
    CPUs, or when the platform or the kernel refuses."""
    split = None
    if target.delivery == "fork-server" and jobs == 1:
        with contextlib.suppress(AttributeError, OSError):  # no sched_*affinity or /proc
            mask = os.sched_getaffinity(0)
            here = _cpu_now()
            if len(mask) == 2 and here in mask:
                split = {"worker": [here], "server": sorted(mask - {here})}
    if split is not None:
        try:
            os.sched_setaffinity(0, split["worker"])
            os.sched_setaffinity(target.proc.pid, split["server"])
        except OSError:
            split = None
            os.sched_setaffinity(0, mask)
    try:
        yield split
    finally:
        if split is not None:
            os.sched_setaffinity(0, mask)


def _fuzz_worker(cfg: dict) -> dict:
    """One fuzzing loop; top-level so a worker process can unpickle it.

    The loop is a two-stage pipeline: the input of iteration i+1 is built
    while target i runs, then target i is settled (counted, persisted if it
    is a finding) and target i+1 started.  Every input comes from its own
    iteration's rng, so counts and findings do not depend on the overlap.

    On a two-CPU host the overlap needs the CPUs split.  Sending the fork
    server its go word wakes the child that the server forked ahead, which
    runs at once; when the scheduler wakes it on the worker's CPU, it runs
    first and the worker waits, so the next input is built only after the
    target ran.  So under --jobs 1 with the fork server and a two-CPU mask,
    the worker pins its thread to the CPU it is running on and the server,
    whose children inherit the mask, to the other (the server forks its
    first child only on the first go word, after the pin); the thread's mask
    is restored when the loop ends (the loop runs in the caller's own
    thread).  Nothing is pinned elsewhere: the split was measured only
    there, and on a larger mask or under more jobs the scheduler keeps its
    freedom to spread the work.
    """
    unit = load_template(cfg["template"])
    evil, budget = cfg["evil"], cfg["budget"]
    out_dir = Path(cfg["out"])
    pool = cfg["pool"]
    bases = sorted(pool.seeds) if pool is not None else []

    ops: dict = {}  # per-operator counts, as _count_ops keeps them
    gen_failed: Counter = Counter()  # by error class

    def produce(index: int):
        """(data, the seed it was made from), or None if none could be built."""
        rng = _iteration_rng(cfg["rng_seed"], index)
        try:
            if pool is None:
                result = generate_random(unit, rng, evil=evil, budget=budget)
                return result.file, result.seed
            data, desc, seed = random_smart_mutation(unit, pool, rng.choice(bases), rng)
            _count_ops(ops, desc["op"], desc["rejected"])
            return data, seed
        except Error as exc:  # any typed failure of the generator or the mutator
            if isinstance(exc, NoApplicableMutation):
                _count_ops(ops, None, exc.rejected)
            gen_failed[type(exc).__name__] += 1
            return None

    counts: Counter = Counter()
    findings = []
    started, cpu_started = time.perf_counter(), time.thread_time()
    done = 0
    produce_s = spawn_s = blocked_s = 0.0
    running = None  # (index, data, seed) of the target in flight

    def settle(kind: str) -> None:
        nonlocal done
        counts[kind] += 1
        done += 1
        if cfg["progress_every"] and done % cfg["progress_every"] == 0:
            print(_stats_line(counts, done, time.perf_counter() - started),
                  flush=True)

    def settle_running(since: float) -> None:
        """Settle the target in flight; the wait from `since` is blocked time."""
        nonlocal running, blocked_s
        if running is None:
            return
        index, data, seed = running
        running = None  # finish() kills and reaps the target whatever happens
        outcome = target.finish()
        blocked_s += time.perf_counter() - since
        if outcome.kind in ("crash", "timeout"):
            name = f"{outcome.kind}_{cfg['worker']:02d}_{index:06d}"
            (out_dir / f"{name}.bin").write_bytes(data)
            (out_dir / f"{name}.seed").write_bytes(seed)
            findings.append(name)
        settle(outcome.kind)

    interrupted = False
    with _open_target(cfg["target"], cfg["timeout_ms"], cfg["tmp_dir"]) as target, \
            _cpus_apart(target, cfg["jobs"]) as cpus:
        try:
            began = time.perf_counter()
            for index in range(cfg["start"], cfg["start"] + cfg["count"]):
                made = produce(index)  # while the previous target runs
                built = time.perf_counter()
                produce_s += built - began
                settle_running(built)
                if made is None:
                    settle("gen_failed")
                    began = time.perf_counter()
                    continue
                spawning = time.perf_counter()
                target.spawn(made[0])
                running = (index, *made)
                began = time.perf_counter()
                spawn_s += began - spawning
            settle_running(began)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            if running is not None:
                target.kill()
    return {"counts": dict(counts), "findings": findings,
            "duration": time.perf_counter() - started, "delivery": target.delivery,
            "produce_s": produce_s, "spawn_s": spawn_s, "blocked_s": blocked_s,
            "cpu_s": time.thread_time() - cpu_started, "cpus": cpus,
            "interrupted": interrupted, "mutation_ops": ops,
            "gen_failed_errors": dict(gen_failed)}


def _load_corpus_dir(corpus_dir: str) -> dict[str, bytes]:
    """Corpus files keyed by filename.  Directories produced by `generate`
    hold .bin/.seed pairs; when any .bin is present only those are taken,
    otherwise every regular file counts."""
    root = Path(corpus_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {corpus_dir}")
    paths = sorted(p for p in root.iterdir() if p.is_file())
    bins = [p for p in paths if p.suffix == ".bin"]
    if bins:
        paths = bins
    return {p.name: p.read_bytes() for p in paths}


def _master_seed(args) -> int:
    if args.rng_seed is not None:
        return args.rng_seed
    seed = random.randrange(2**32)
    print(f"rng seed not given; using {seed}", file=sys.stderr)
    return seed


def _generations(unit, args, tree: bool = False):
    """(i, GenResult, or None if generation failed) for each of --count
    random files, file i drawn from its own iteration rng; only a tree run
    (tree=True) has a tree, events and coverage."""
    master = _master_seed(args)
    for i in range(args.count):
        try:
            result = generate_random(unit, _iteration_rng(master, i), evil=not args.no_evil,
                                     budget=args.max_size, tree=tree)
        except GenerationFailed:
            result = None
        yield i, result


def _corpus_pool(unit, args):
    """--corpus indexed for mutation, each unparsable file reported; None,
    after saying so, when no file parsed."""
    pool = index_corpus(unit, _load_corpus_dir(args.corpus), evil=not args.no_evil,
                        budget=args.max_size)
    for cid, why in pool.failures:
        print(f"skipping {cid}: {why}", file=sys.stderr)
    if not pool.seeds:
        print(f"no corpus file parsed in {args.corpus}", file=sys.stderr)
        return None
    return pool


def _roundtrip_failure(unit, data: bytes, args) -> str | None:
    """Parse `data` and regenerate it from its seed: None if that gives
    `data` back, else why not.  A parse failure raises ParseRejected."""
    seed = parse(unit, data, evil=not args.no_evil).seed
    try:
        regen = generate_from_seed(unit, seed, evil=not args.no_evil,
                                   budget=max(args.max_size, len(data)))
    except GenerationFailed as exc:
        return str(exc)
    return None if regen.file == data else "regenerated file differs"


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the process exit code


def cmd_generate(args) -> int:
    unit = load_template(args.template)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    started = time.perf_counter()
    for i, result in _generations(unit, args):
        if result is None:
            failed += 1
            continue
        name = f"gen_{i:06d}"
        (out_dir / f"{name}.bin").write_bytes(result.file)
        (out_dir / f"{name}.seed").write_bytes(result.seed)
    elapsed = time.perf_counter() - started
    written = args.count - failed
    rate = written / elapsed if elapsed > 0 else 0.0
    print(f"generated {written}/{args.count} files ({failed} failed) "
          f"in {elapsed:.2f}s, {rate:.0f} files/s -> {out_dir}")
    return 0


def cmd_parse(args) -> int:
    unit = load_template(args.template)
    in_path = Path(args.file)
    data = in_path.read_bytes()
    try:
        outcome = parse(unit, data, evil=not args.no_evil, tree=True)
    except TrailingBytes as exc:
        print(f"trailing bytes: {exc}", file=sys.stderr)
        return 4
    except ParseRejected as exc:
        print(f"parse rejected: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else in_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    tree_path = out_dir / f"{in_path.name}.tree.json"
    seed_path = out_dir / f"{in_path.name}.seed"
    tree_path.write_text(json.dumps(outcome.tree.to_json(), indent=2) + "\n")
    seed_path.write_bytes(outcome.seed)
    nodes = sum(1 for _ in outcome.tree.walk())
    print(f"accepted: {nodes} nodes, {len(outcome.seed)} seed byte(s) "
          f"-> {tree_path}, {seed_path}")
    return 0


def cmd_replay(args) -> int:
    unit = load_template(args.template)
    seed = Path(args.seed).read_bytes()
    try:
        result = generate_from_seed(unit, seed, evil=not args.no_evil, budget=args.max_size)
    except GenerationFailed as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_bytes(result.file)
        print(f"wrote {len(result.file)} bytes -> {args.out}")
    if args.target:
        try:
            outcome = run_target(args.target, result.file, args.timeout_ms)
        except (OSError, ValueError) as exc:
            print(f"btfuzz: cannot run target: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(outcome.to_json()))
    elif not args.out:
        sys.stdout.buffer.write(result.file)
        sys.stdout.buffer.flush()
    return 0


def cmd_mutate(args) -> int:
    unit = load_template(args.template)
    pool = _corpus_pool(unit, args)
    if pool is None:
        return 1
    bases = sorted(pool.seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    master = _master_seed(args)
    ok = 0
    ops: dict = {}
    with open(out_dir / "mutations.jsonl", "w") as log:
        for i in range(args.count):
            rng = _iteration_rng(master, i)
            base = rng.choice(bases)
            try:
                data, desc, _ = random_smart_mutation(unit, pool, base, rng)
            except NoApplicableMutation as exc:
                _count_ops(ops, None, exc.rejected)
                log.write(json.dumps({"op": None, "base": base, "ok": False,
                                      "error": str(exc), "rejected": exc.rejected}) + "\n")
                continue
            _count_ops(ops, desc["op"], desc["rejected"])
            (out_dir / f"mut_{i:06d}.bin").write_bytes(data)
            log.write(json.dumps(desc) + "\n")
            ok += 1
    print(f"wrote {ok}/{args.count} mutated files -> {out_dir}")
    print(_ops_line(ops))
    return 0


def cmd_fuzz(args) -> int:
    try:
        _target_argv(args.target)  # a bad command fails before --out is made
    except ValueError as exc:
        print(f"btfuzz: cannot run target: {exc}", file=sys.stderr)
        return 1
    unit = load_template(args.template)
    pool = None
    if args.corpus:
        pool = _corpus_pool(unit, args)
        if pool is None:
            return 1
    # the program every worker runs, compiled once: the workers fork from here
    compiled(unit, gen=True)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    master = _master_seed(args)
    # every worker's input file, in one directory that goes with the run,
    # even when a worker dies and leaves its file behind
    tmp_dir = tempfile.mkdtemp(prefix="btfuzz_")
    base_cfg = {
        "template": args.template,
        "target": args.target,
        "timeout_ms": args.timeout_ms,
        "evil": not args.no_evil,
        "budget": args.max_size,
        "out": str(out_dir),
        "pool": pool,
        "rng_seed": master,
        "tmp_dir": tmp_dir,
        "jobs": args.jobs,
    }
    per = [args.count // args.jobs + (1 if w < args.count % args.jobs else 0)
           for w in range(args.jobs)]
    cfgs = []
    start = 0
    for w, n in enumerate(per):
        if n == 0:
            continue
        cfg = dict(base_cfg, worker=w, start=start, count=n,
                   progress_every=(max(1, args.count // 10) if args.jobs == 1 else 0))
        cfgs.append(cfg)
        start += n
    started = time.perf_counter()
    try:
        if len(cfgs) < 2:  # no worker at all under --count 0
            results = [_fuzz_worker(cfg) for cfg in cfgs]
        else:
            # imported here: its modules would add about 0.5 MiB to every
            # btfuzz process, and only --jobs above 1 needs them
            from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
            from multiprocessing import get_context
            try:
                # unlike multiprocessing.Pool, raises once a worker dies; fork
                # hands each worker the unit with its program compiled
                with ProcessPoolExecutor(len(cfgs), mp_context=get_context("fork")) as mp:
                    results = list(mp.map(_fuzz_worker, cfgs))
            except BrokenProcessPool as exc:
                print(f"btfuzz: a fuzz worker died: {exc}", file=sys.stderr)
                return 1
    except OSError as exc:
        print(f"btfuzz: cannot run target: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    wall = time.perf_counter() - started
    counts: Counter = Counter()
    gen_failed: Counter = Counter()
    findings: list[str] = []
    for res in results:
        counts.update(res["counts"])
        gen_failed.update(res["gen_failed_errors"])
        findings.extend(res["findings"])
    iters = sum(counts[k] for k in OUTCOME_KINDS)
    interrupted = any(res["interrupted"] for res in results)
    ops = _sum_ops([res["mutation_ops"] for res in results])
    print(_stats_line(counts, iters, wall))
    if pool is not None:
        print(_ops_line(ops))
    stats = {k: counts[k] for k in OUTCOME_KINDS}
    stats.update(iterations=iters, execs_per_s=round(iters / wall, 1) if wall else 0.0,
                 duration_s=round(wall, 3), findings=findings, interrupted=interrupted,
                 delivery=[res["delivery"] for res in results],
                 produce_s=[round(res["produce_s"], 3) for res in results],
                 spawn_s=[round(res["spawn_s"], 3) for res in results],
                 blocked_s=[round(res["blocked_s"], 3) for res in results],
                 cpu_s=[round(res["cpu_s"], 3) for res in results],
                 cpus=[res["cpus"] for res in results],
                 gen_failed_errors=dict(sorted(gen_failed.items())), mutation_ops=ops,
                 worker_mutation_ops=[res["mutation_ops"] for res in results])
    (out_dir / "stats.json").write_text(json.dumps(stats, indent=2) + "\n")
    print(f"{counts['crash']} crash(es), {counts['timeout']} timeout(s) "
          f"-> {out_dir}")
    if interrupted:
        print(f"interrupted after {iters} iteration(s)", file=sys.stderr)
        return 130
    return 0


def cmd_roundtrip(args) -> int:
    unit = load_template(args.template)
    failures = 0
    if args.corpus:
        for name, data in _load_corpus_dir(args.corpus).items():
            try:
                why = _roundtrip_failure(unit, data, args)
            except ParseRejected as exc:
                print(f"{name}: parse-rejected ({exc})")
                continue
            print(f"{name}: pass" if why is None else f"{name}: FAIL ({why})")
            failures += why is not None

    gen_failed = random_failures = 0
    for i, result in _generations(unit, args):
        if result is None:
            gen_failed += 1
            continue
        try:
            why = _roundtrip_failure(unit, result.file, args)
        except ParseRejected as exc:
            why = str(exc)
        if why is not None:
            print(f"seed {i}: FAIL ({why})")
            random_failures += 1
    checked = args.count - gen_failed
    if args.count:
        print(f"random seeds: {checked - random_failures}/{checked} round-tripped "
              f"({gen_failed} generation failures skipped)")
    failures += random_failures
    if failures:
        print(f"{failures} round-trip failure(s)", file=sys.stderr)
        return 3
    return 0


def cmd_coverage(args) -> int:
    unit = load_template(args.template)
    hits: Counter = Counter()
    gen_failed = 0
    for _, result in _generations(unit, args, tree=True):
        gen_failed += result is None
        hits.update(result.covered if result else ())
    total = len(unit.declarations)
    covered = sum(1 for d in unit.declarations if hits[d.decl_id])
    pct = 100.0 * covered / total if total else 0.0
    print(f"declaration coverage: {covered}/{total} ({pct:.1f}%) "
          f"over {args.count} generations ({gen_failed} failed)")
    missed = [d for d in unit.declarations if not hits[d.decl_id]]
    for d in missed:
        print(f"  never hit: {d.name} ({d.type_name})")
    if args.out:
        report = {
            "covered": covered, "total": total, "percent": round(pct, 2),
            "generations": args.count,
            "hits": {str(d.decl_id): {"name": d.name, "type": d.type_name,
                                      "hits": hits[d.decl_id]}
                     for d in unit.declarations},
        }
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    name, _ = resolve_template(args.template)
    if name not in VERIFIERS:
        print(f"no oracle for template {name!r} "
              f"(have: {', '.join(sorted(VERIFIERS))})", file=sys.stderr)
        return 1
    bad = 0
    for path in args.files:
        data = Path(path).read_bytes()
        valid, violations = verify(name, data)
        if valid:
            print(f"{path}: valid")
        else:
            bad += 1
            print(f"{path}: INVALID")
            for v in violations:
                print(f"  {v}")
    return 2 if bad else 0
