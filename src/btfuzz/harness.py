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
import multiprocessing
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

from .engine import generate_from_seed, generate_random, parse
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


class _Run:
    """One target execution in flight: started by the constructor, ended by
    finish() or kill().

    `stdin` is the open input file of a stdin target, None for a `{}`
    target.  On Linux finish() blocks on a pidfd, which wakes the moment the
    target exits; without one it falls back to Popen.wait.
    """

    def __init__(self, argv: list[str], stdin: int | None, timeout_ms: int):
        self.started = time.perf_counter()
        self.deadline = self.started + timeout_ms / 1000.0
        self.proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        try:
            self.pidfd = os.pidfd_open(self.proc.pid)
        except (AttributeError, OSError):
            self.pidfd = None

    def _wait(self) -> None:
        """Return once the target has exited or its deadline has passed."""
        if self.pidfd is not None:
            poller = select.poll()
            poller.register(self.pidfd, select.POLLIN)
            left = max(0.0, self.deadline - time.perf_counter())
            poller.poll(left * 1000)  # ms, rounded up
        try:
            self.proc.wait(max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass

    def finish(self) -> Outcome:
        """Wait for the target until its deadline, then classify it; a target
        still running at the deadline is killed and counts as a timeout."""
        try:
            self._wait()
            code = self.proc.poll()
        finally:
            self.kill()
        return _outcome(code, time.perf_counter() - self.started)

    def kill(self) -> None:
        """Kill and reap the target if it still runs; release the pidfd."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        if self.pidfd is not None:
            os.close(self.pidfd)
            self.pidfd = None


def _target_argv(target: str) -> list[str]:
    """A target command's words; ValueError if none, or if a quote is left open."""
    argv = shlex.split(target)
    if not argv:
        raise ValueError("empty target command")
    return argv


class _Target:
    """A target command, run on one input after another, one process each.

    Every input is written to one temporary file, created here and removed
    by close().  The file's path replaces a `{}` token in the command; a
    command without one reads the file as its stdin, from offset 0 for
    every input.
    """

    delivery = "spawn"

    def __init__(self, target: str, timeout_ms: int):
        argv = _target_argv(target)
        self.timeout_ms = timeout_ms
        self.stdin = None
        fd, self.path = tempfile.mkstemp(prefix="btfuzz_in_")
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

    def spawn(self, data: bytes) -> _Run:
        """Start the target on `data`."""
        self._write(data)
        if self.stdin is not None:
            os.lseek(self.stdin, 0, os.SEEK_SET)
        return _Run(self.argv, self.stdin, self.timeout_ms)

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

    The input file is _Target's.  A stdin target's file is the server's
    stdin, and each child seeks it back to 0.  The constructor raises
    _NoForkServer when the shim cannot be built, or when the target exits
    or stays silent for `timeout_ms` instead of saying hello (a static or
    setuid target ignores LD_PRELOAD).
    """

    delivery = "fork-server"

    def __init__(self, target: str, timeout_ms: int):
        shim = _shim()
        super().__init__(target, timeout_ms)
        self.proc = None
        self.pending = b""
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
        seconds; None waits for ever) passes first, b"" once it exited."""
        while len(self.pending) < 4:
            if deadline is not None and not self.poller.poll(
                    max(0.0, deadline - time.perf_counter()) * 1000):
                return None
            chunk = os.read(self.replies, 4096)
            if not chunk:
                return b""
            self.pending += chunk
        word, self.pending = self.pending[:4], self.pending[4:]
        return word

    def spawn(self, data: bytes) -> _ForkRun:
        """Fork the target on `data`."""
        self._write(data)
        os.write(self.ctl, b"\0\0\0\0")
        return _ForkRun(self)

    def close(self) -> None:
        """Kill and reap the server, whose children are already settled."""
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


class _ForkRun:
    """One input in flight in a fork server: started by _ForkServer.spawn,
    ended by finish() or kill().  The server reports the child's pid, then
    its wait status."""

    def __init__(self, server: _ForkServer):
        self.server = server
        self.started = time.perf_counter()
        self.deadline = self.started + server.timeout_ms / 1000.0
        self.pid = self.status = None

    def _read(self, deadline: float | None) -> bool:
        """Take the next of pid and status; False if `deadline` passed first."""
        word = self.server.recv(deadline)
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

    def finish(self) -> Outcome:
        """Wait for the child until its deadline, then classify it as _Run
        does; a child still running at the deadline is killed."""
        try:
            while self.status is None and self._read(self.deadline):
                pass
            code = None if self.status is None else os.waitstatus_to_exitcode(self.status)
        finally:
            self.kill()
        return _outcome(code, time.perf_counter() - self.started)

    def kill(self) -> None:
        """Kill the child if it still runs, and take its status, which leaves
        the server ready for the next input."""
        if self.status is not None:
            return
        try:
            if self.pid is None:
                self._read(None)
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # reaped by the server already; the status is on its way
            self._read(None)
        except ChildProcessError:
            pass  # the server died, and PR_SET_PDEATHSIG took the child along


def _open_target(target: str, timeout_ms: int) -> _Target:
    """The target behind a fork server; the spawn path, with a warning, when
    the server cannot start."""
    try:
        return _ForkServer(target, timeout_ms)
    except _NoForkServer as exc:
        print(f"btfuzz: fork server unavailable: {exc}; starting the target once "
              "per input", file=sys.stderr)
        return _Target(target, timeout_ms)


def run_target(target: str, data: bytes, timeout_ms: int) -> Outcome:
    """Deliver one input to the target command and classify the result.

    The input is written to a temporary file, removed before this returns,
    whose path replaces a `{}` token in the command; without one the file
    is the target's stdin.  Spawn failures (missing executable) raise
    OSError to the caller.
    """
    with _Target(target, timeout_ms) as tgt:
        return tgt.spawn(data).finish()


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


def _fuzz_worker(cfg: dict) -> dict:
    """One fuzzing loop; top-level so multiprocessing can pickle it.

    The loop is a two-stage pipeline: the input of iteration i+1 is built
    while target i runs, then target i is settled (counted, persisted if it
    is a finding) and target i+1 started.  Every input comes from its own
    iteration's rng, so counts and findings do not depend on the overlap.
    """
    unit = load_template(cfg["template"])
    evil, budget = cfg["evil"], cfg["budget"]
    out_dir = Path(cfg["out"])
    pool = cfg["pool"]
    bases = sorted(pool.seeds) if pool is not None else []

    ops: dict = {}  # per-operator counts, as _count_ops keeps them
    gen_failed: Counter = Counter()  # by error class

    def produce(index: int):
        """(data, seed or None), or None when no input could be built."""
        rng = _iteration_rng(cfg["rng_seed"], index)
        try:
            if pool is None:
                result = generate_random(unit, rng, evil=evil, budget=budget)
                return result.file, result.seed
            data, desc = random_smart_mutation(unit, pool, rng.choice(bases), rng)
            _count_ops(ops, desc["op"], desc["rejected"])
            return data, None
        except Error as exc:  # any typed failure of the generator or the mutator
            if isinstance(exc, NoApplicableMutation):
                _count_ops(ops, None, exc.rejected)
            gen_failed[type(exc).__name__] += 1
            return None

    counts: Counter = Counter()
    findings = []
    started = time.perf_counter()
    done = 0
    produce_s = spawn_s = blocked_s = 0.0
    running = None  # (index, data, seed or None, run) of the target in flight

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
        index, data, seed_bytes, run = running
        running = None  # finish() kills and reaps the target whatever happens
        outcome = run.finish()
        blocked_s += time.perf_counter() - since
        if outcome.kind in ("crash", "timeout"):
            if seed_bytes is None:
                # mutated inputs: recover the canonical seed for replay
                seed_bytes = parse(unit, data, evil=evil).seed
            name = f"{outcome.kind}_{cfg['worker']:02d}_{index:06d}"
            (out_dir / f"{name}.bin").write_bytes(data)
            (out_dir / f"{name}.seed").write_bytes(seed_bytes)
            findings.append(name)
        settle(outcome.kind)

    interrupted = False
    with _open_target(cfg["target"], cfg["timeout_ms"]) as target:
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
                running = (index, *made, target.spawn(made[0]))
                began = time.perf_counter()
                spawn_s += began - spawning
            settle_running(began)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            if running is not None:
                running[3].kill()
    return {"counts": dict(counts), "findings": findings,
            "duration": time.perf_counter() - started, "delivery": target.delivery,
            "produce_s": produce_s, "spawn_s": spawn_s, "blocked_s": blocked_s,
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


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the process exit code


def cmd_generate(args) -> int:
    unit = load_template(args.template)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    evil = not args.no_evil

    if args.seed is not None:
        if args.rng_seed is not None:
            print("--seed and --rng-seed are mutually exclusive seed sources",
                  file=sys.stderr)
            return 1
        if args.count != 1:
            print("--seed replays exactly one file; --count must be 1",
                  file=sys.stderr)
            return 1
        seed = Path(args.seed).read_bytes()
        try:
            result = generate_from_seed(unit, seed, evil=evil, budget=args.max_size)
        except GenerationFailed as exc:
            print(f"generation failed: {exc}", file=sys.stderr)
            return 1
        name = Path(args.seed).stem
        bin_path = out_dir / f"{name}.bin"
        bin_path.write_bytes(result.file)
        (out_dir / f"{name}.seed").write_bytes(result.seed)
        print(f"replayed {len(seed)} seed byte(s) -> {bin_path} "
              f"({len(result.file)} bytes)")
        return 0

    master = _master_seed(args)
    ok = failed = 0
    started = time.perf_counter()
    for i in range(args.count):
        rng = _iteration_rng(master, i)
        try:
            result = generate_random(unit, rng, evil=evil, budget=args.max_size)
        except GenerationFailed:
            failed += 1
            continue
        name = f"gen_{i:06d}"
        (out_dir / f"{name}.bin").write_bytes(result.file)
        (out_dir / f"{name}.seed").write_bytes(result.seed)
        ok += 1
    elapsed = time.perf_counter() - started
    rate = args.count / elapsed if elapsed > 0 else 0.0
    print(f"generated {ok}/{args.count} files ({failed} failed) "
          f"in {elapsed:.2f}s, {rate:.0f} files/s -> {out_dir}")
    return 0


def cmd_parse(args) -> int:
    unit = load_template(args.template)
    in_path = Path(args.file)
    data = in_path.read_bytes()
    try:
        outcome = parse(unit, data, evil=not args.no_evil)
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
        result = generate_from_seed(unit, seed, evil=not args.no_evil,
                                    budget=args.max_size)
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
    evil = not args.no_evil
    corpus = _load_corpus_dir(args.corpus)
    if not corpus:
        print(f"corpus directory is empty: {args.corpus}", file=sys.stderr)
        return 1
    pool = index_corpus(unit, corpus, evil=evil, budget=args.max_size)
    for cid, why in pool.failures:
        print(f"skipping {cid}: {why}", file=sys.stderr)
    if not pool.seeds:
        print("no corpus file parsed; nothing to mutate", file=sys.stderr)
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
                data, desc = random_smart_mutation(unit, pool, base, rng)
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
    corpus = _load_corpus_dir(args.corpus) if args.corpus else None
    unit = load_template(args.template)
    evil = not args.no_evil
    pool = None
    if corpus is not None:
        pool = index_corpus(unit, corpus, evil=evil, budget=args.max_size)
        if not pool.seeds:
            print("no corpus file parsed", file=sys.stderr)
            return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    master = _master_seed(args)
    base_cfg = {
        "template": args.template,
        "target": args.target,
        "timeout_ms": args.timeout_ms,
        "evil": evil,
        "budget": args.max_size,
        "out": str(out_dir),
        "pool": pool,
        "rng_seed": master,
    }
    jobs = max(1, args.jobs)
    per = [args.count // jobs + (1 if w < args.count % jobs else 0)
           for w in range(jobs)]
    cfgs = []
    start = 0
    for w, n in enumerate(per):
        if n == 0:
            continue
        cfg = dict(base_cfg, worker=w, start=start, count=n,
                   progress_every=(max(1, args.count // 10) if jobs == 1 else 0))
        cfgs.append(cfg)
        start += n
    started = time.perf_counter()
    try:
        if len(cfgs) == 1:
            results = [_fuzz_worker(cfgs[0])]
        else:
            with multiprocessing.Pool(len(cfgs)) as mp:
                results = mp.map(_fuzz_worker, cfgs)
    except OSError as exc:
        print(f"btfuzz: cannot run target: {exc}", file=sys.stderr)
        return 1
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
    evil = not args.no_evil
    failures = 0

    if args.corpus:
        for name, data in _load_corpus_dir(args.corpus).items():
            try:
                outcome = parse(unit, data, evil=evil)
            except ParseRejected as exc:
                print(f"{name}: parse-rejected ({exc})")
                continue
            regen = generate_from_seed(unit, outcome.seed, evil=evil,
                                       budget=max(args.max_size, len(data)))
            if regen.file == data:
                print(f"{name}: pass")
            else:
                print(f"{name}: FAIL (regenerated file differs)")
                failures += 1

    master = _master_seed(args)
    gen_failed = checked = 0
    for i in range(args.count):
        rng = _iteration_rng(master, i)
        try:
            result = generate_random(unit, rng, evil=evil, budget=args.max_size)
        except GenerationFailed:
            gen_failed += 1
            continue
        checked += 1
        try:
            outcome = parse(unit, result.file, evil=evil)
            regen = generate_from_seed(unit, outcome.seed, evil=evil,
                                       budget=args.max_size)
        except (ParseRejected, GenerationFailed) as exc:
            print(f"seed {i}: FAIL ({exc})")
            failures += 1
            continue
        if regen.file != result.file:
            print(f"seed {i}: FAIL (regenerated file differs)")
            failures += 1
    if args.count:
        print(f"random seeds: {checked - failures}/{checked} round-tripped "
              f"({gen_failed} generation failures skipped)")
    if failures:
        print(f"{failures} round-trip failure(s)", file=sys.stderr)
        return 3
    return 0


def cmd_coverage(args) -> int:
    unit = load_template(args.template)
    evil = not args.no_evil
    master = _master_seed(args)
    hits: Counter = Counter()
    gen_failed = 0
    for i in range(args.count):
        rng = _iteration_rng(master, i)
        try:
            result = generate_random(unit, rng, evil=evil, budget=args.max_size)
        except GenerationFailed:
            gen_failed += 1
            continue
        hits.update(result.covered)
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
