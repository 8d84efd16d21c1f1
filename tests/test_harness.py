"""Target execution, outcome classification, and the CLI surface."""

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from btfuzz import cli, harness
from btfuzz.engine import generate_from_seed, generate_random
from btfuzz.formats import load_template
from btfuzz.harness import Outcome, run_target

PY = f"{sys.executable} -S -E"
STUB = Path(__file__).with_name("crash_stub.py")


# -- run_target -------------------------------------------------------------------


def test_exit_zero_is_valid():
    out = run_target(f"{PY} -c 'pass'", b"", timeout_ms=5000)
    assert out.kind == "valid" and out.exit_code == 0 and out.signal is None


def test_nonzero_exit_is_invalid():
    out = run_target(f"{PY} -c 'raise SystemExit(3)'", b"", timeout_ms=5000)
    assert out.kind == "invalid" and out.exit_code == 3


def test_timeout():
    out = run_target(f"{PY} -c 'import time; time.sleep(5)'", b"", timeout_ms=200)
    assert out.kind == "timeout"
    assert out.duration >= 0.2


def test_signal_death_is_crash():
    code = "import os, signal; os.kill(os.getpid(), signal.SIGSEGV)"
    out = run_target(f'{PY} -c "{code}"', b"", timeout_ms=5000)
    assert out.kind == "crash"
    assert out.signal == 11  # SIGSEGV
    assert out.exit_code is None


def test_stdin_delivery():
    code = "import sys; raise SystemExit(0 if sys.stdin.buffer.read() == b'ping' else 1)"
    out = run_target(f'{PY} -c "{code}"', b"ping", timeout_ms=5000)
    assert out.kind == "valid"


def test_file_substitution():
    code = ("import sys, pathlib; "
            "raise SystemExit(0 if pathlib.Path(sys.argv[1]).read_bytes() == b'pong' else 1)")
    out = run_target(f'{PY} -c "{code}" {{}}', b"pong", timeout_ms=5000)
    assert out.kind == "valid"


def test_file_substitution_cleans_up(tmp_path, monkeypatch):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    tempfile.tempdir = None
    try:
        run_target(f"{PY} -c 'pass' {{}}", b"x", timeout_ms=5000)
        assert list(tmp_path.iterdir()) == []
    finally:
        tempfile.tempdir = None


def _recorder(log_dir: Path, then: str = "pass") -> str:
    """A `{}` target that copies its input to log_dir/NNN.bin, numbered from
    000 in delivery order, then runs `then` with the input's path as `p`."""
    log_dir.mkdir()
    code = ("import os, shutil, sys; p, d = sys.argv[1:]; "
            "shutil.copyfile(p, os.path.join(d, '%03d.bin' % len(os.listdir(d)))); "
            + then)
    return f'{PY} -c "{code}" {{}} {log_dir}'


def _delivered(target: str, inputs: list[bytes]) -> None:
    with harness._Target(target, timeout_ms=10000) as tgt:
        for data in inputs:
            assert tgt.spawn(data).finish().kind == "valid"


def test_file_input_shrinks_to_each_length(tmp_path):
    inputs = [bytes(range(256)) + b"x" * 44, b"12345", b"", b"ab"]
    _delivered(_recorder(tmp_path / "log"), inputs)
    seen = [p.read_bytes() for p in sorted((tmp_path / "log").iterdir())]
    assert seen == inputs


@pytest.mark.parametrize("then", ["os.unlink(p)", "os.rename(p, p + '.moved')"])
def test_file_input_recreated_after_target_removes_it(tmp_path, monkeypatch, then):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    inputs = [b"first", b"second", b"3"]
    _delivered(_recorder(tmp_path / "log", then), inputs)
    seen = [p.read_bytes() for p in sorted((tmp_path / "log").iterdir())]
    assert seen == inputs


def test_file_input_truncated_to_zero_only_when_empty(tmp_path, monkeypatch):
    import builtins
    inputs = [b"abcdef", b"abc", b"", b"xy"]
    with harness._Target(f"{PY} -c pass {{}}", timeout_ms=10000) as tgt:
        opens, truncations = [], []
        real_os_open, real_open, real_ftruncate = os.open, builtins.open, os.ftruncate

        def spy_os_open(path, flags, *args, **kwargs):
            if path == tgt.path:
                opens.append(flags)
            return real_os_open(path, flags, *args, **kwargs)

        def spy_open(file, *args, **kwargs):
            assert file != tgt.path, "input file reopened with open()"
            return real_open(file, *args, **kwargs)

        def spy_ftruncate(fd, length):
            truncations.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
        for data in inputs:
            tgt.spawn(data).finish()
    assert len(opens) == len(inputs)
    assert not any(flags & os.O_TRUNC for flags in opens)
    assert truncations == [len(data) for data in inputs]


BIG = bytes(range(256)) * 800  # 200 KiB, more than a pipe buffer holds


@pytest.fixture(params=["pidfd", "fallback"])
def wait_mode(request, monkeypatch):
    """Run a test with the pidfd wait and again with the Popen.wait fallback."""
    if request.param == "fallback":
        def no_pidfd(pid):
            raise OSError("pidfd_open unavailable")
        monkeypatch.setattr(os, "pidfd_open", no_pidfd, raising=False)
    return request.param


def test_stdin_unread_large_input_times_out(wait_mode):
    out = run_target(f"{PY} -c 'import time; time.sleep(5)'", BIG, timeout_ms=300)
    assert out.kind == "timeout"
    assert 0.3 <= out.duration < 4


def test_stdin_large_input_reaches_reader(wait_mode):
    code = ("import sys; raise SystemExit(0 if sys.stdin.buffer.read() == "
            "bytes(range(256)) * 800 else 1)")
    assert run_target(f'{PY} -c "{code}"', BIG, timeout_ms=10000).kind == "valid"


def test_stdin_target_exiting_early_is_classified(wait_mode):
    out = run_target(f"{PY} -c 'raise SystemExit(4)'", BIG, timeout_ms=10000)
    assert out.kind == "invalid" and out.exit_code == 4


def test_empty_target_rejected():
    with pytest.raises(ValueError):
        run_target("   ", b"", timeout_ms=100)


def test_crash_stub_behaviour():
    # the stub dies when byte 4 is 0xFF, i.e. on the smallest MINI file
    out = run_target(f"{PY} {STUB}", b"MINI\xff", timeout_ms=5000)
    assert out.kind == "crash"
    assert run_target(f"{PY} {STUB}", b"JUNK", timeout_ms=5000).kind == "invalid"
    ok = run_target(f"{PY} {STUB}", b"MINI\x01\x01\x00AA\xff", timeout_ms=5000)
    assert ok.kind == "valid"


def test_outcome_crash_requires_signal():
    with pytest.raises(ValueError):
        Outcome(kind="crash", exit_code=None, signal=None)
    with pytest.raises(ValueError):
        Outcome(kind="valid", exit_code=0, signal=11)


def test_outcome_check_survives_optimize_flag():
    # -O strips assert statements; the crash/signal check must still run
    src = Path(__file__).parents[1] / "src"
    code = ("from btfuzz.harness import Outcome\n"
            "try:\n    Outcome('crash')\nexcept ValueError:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0


def test_outcome_to_json_roundtrips():
    out = Outcome(kind="crash", exit_code=None, signal=11, duration=0.0125)
    parsed = json.loads(json.dumps(out.to_json()))
    assert parsed["kind"] == "crash" and parsed["signal"] == 11


# -- CLI ---------------------------------------------------------------------------


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run_cli("generate", "--template", "mini", "--count", 5,
                     "--rng-seed", 7, "--out", out)
        assert rc == 0
    for name in ("gen_000000.bin", "gen_000004.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert len(list(a.glob("*.bin"))) == 5
    assert len(list(a.glob("*.seed"))) == 5


def test_generate_seed_replay(tmp_path):
    seed_file = tmp_path / "in.seed"
    seed_file.write_bytes(b"\x00\x00\x00")
    rc = run_cli("generate", "--template", "mini", "--seed", seed_file,
                 "--out", tmp_path)
    assert rc == 0
    assert (tmp_path / "in.bin").read_bytes() == b"MINI\xff"


def test_generate_seed_and_rng_conflict(tmp_path):
    seed_file = tmp_path / "in.seed"
    seed_file.write_bytes(b"\x00\x00\x00")
    rc = run_cli("generate", "--template", "mini", "--seed", seed_file,
                 "--rng-seed", 7, "--out", tmp_path)
    assert rc == 1


def test_generate_seed_needs_count_one(tmp_path):
    seed_file = tmp_path / "in.seed"
    seed_file.write_bytes(b"\x00\x00\x00")
    rc = run_cli("generate", "--template", "mini", "--seed", seed_file,
                 "--count", 2, "--out", tmp_path)
    assert rc == 1


def test_parse_exit_codes(tmp_path):
    good = tmp_path / "good.mini"
    good.write_bytes(b"MINI\xff")
    assert run_cli("parse", "--template", "mini", good) == 0
    assert (tmp_path / "good.mini.tree.json").is_file()
    assert (tmp_path / "good.mini.seed").read_bytes() == b"\x00\x00\x00"

    bad = tmp_path / "bad.mini"
    bad.write_bytes(b"JUNK")
    assert run_cli("parse", "--template", "mini", bad) == 2

    trailing = tmp_path / "trailing.mini"
    trailing.write_bytes(b"MINI\xff\xaa")
    assert run_cli("parse", "--template", "mini", trailing) == 4


def test_parse_tree_json_structure(tmp_path):
    f = tmp_path / "x.mini"
    f.write_bytes(b"MINI\x01\x01\x00AA\xff")
    assert run_cli("parse", "--template", "mini", f) == 0
    tree = json.loads((tmp_path / "x.mini.tree.json").read_text())
    assert tree["name"] == "<file>"
    assert any(child["name"] == "data" for child in tree["children"])


def test_parse_generate_inverse(tmp_path):
    f = tmp_path / "x.mini"
    f.write_bytes(b"MINI\x01\x02\x00hi\xd3\xff")
    assert run_cli("parse", "--template", "mini", f) == 0
    rc = run_cli("generate", "--template", "mini",
                 "--seed", tmp_path / "x.mini.seed", "--out", tmp_path / "regen")
    assert rc == 0
    regen = (tmp_path / "regen" / "x.mini.bin").read_bytes()
    assert regen == f.read_bytes()


def test_replay_writes_file(tmp_path):
    seed = tmp_path / "s.seed"
    seed.write_bytes(b"\x00\x00\x00")
    out = tmp_path / "replayed.bin"
    assert run_cli("replay", "--template", "mini", "--seed", seed, "--out", out) == 0
    assert out.read_bytes() == b"MINI\xff"


def test_replay_runs_target(tmp_path, capsys):
    seed = tmp_path / "s.seed"
    seed.write_bytes(b"\x00\x00\x00")
    rc = run_cli("replay", "--template", "mini", "--seed", seed,
                 "--target", f"{PY} {STUB}")
    assert rc == 0
    outcome = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert outcome["kind"] == "crash"  # the stub dies on the minimal MINI file


def test_mutate_writes_jsonl(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    (corpus / "b.mini").write_bytes(b"MINI\x01\x02\x00hi\xd3\x01\x01\x00BB\xff")
    out = tmp_path / "mut"
    rc = run_cli("mutate", "--template", "mini", "--corpus", corpus,
                 "--count", 12, "--rng-seed", 3, "--out", out)
    assert rc == 0
    lines = (out / "mutations.jsonl").read_text().splitlines()
    assert len(lines) == 12
    records = [json.loads(line) for line in lines]
    produced = len(list(out.glob("mut_*.bin")))
    assert produced == sum(1 for r in records if r["ok"])


def test_mutate_missing_corpus(tmp_path, capsys):
    rc = run_cli("mutate", "--template", "mini",
                 "--corpus", tmp_path / "nope", "--out", tmp_path / "m")
    assert rc == 1
    assert "btfuzz: corpus directory not found" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("fuzz", ("--target", f"{PY} -c pass")),
    ("roundtrip", ()),
])
def test_missing_corpus_exits_one(tmp_path, monkeypatch, capsys, command, extra):
    monkeypatch.chdir(tmp_path)  # so a default --out directory would land here
    rc = run_cli(command, "--template", "mini", "--corpus", tmp_path / "nope",
                 "--rng-seed", 1, *extra)
    assert rc == 1
    assert "btfuzz: corpus directory not found" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no --out directory left behind


def test_roundtrip_random_only(tmp_path):
    assert run_cli("roundtrip", "--template", "mini", "--count", 40,
                   "--rng-seed", 11) == 0


def test_roundtrip_with_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.mini").write_bytes(b"MINI\xff")
    (corpus / "notmini.bin").write_bytes(b"JUNK")  # parse-rejected, not a failure
    assert run_cli("roundtrip", "--template", "mini", "--corpus", corpus,
                   "--count", 5, "--rng-seed", 1) == 0


def test_coverage_report(tmp_path, capsys):
    report = tmp_path / "cov.json"
    rc = run_cli("coverage", "--template", "mini", "--count", 300,
                 "--rng-seed", 2, "--out", report)
    assert rc == 0
    assert "8/8" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["covered"] == data["total"] == 8
    assert all(entry["hits"] > 0 for entry in data["hits"].values())


def test_verify_exit_codes(tmp_path):
    good = tmp_path / "good.mini"
    good.write_bytes(b"MINI\xff")
    assert run_cli("verify", "--template", "mini", good) == 0
    bad = tmp_path / "bad.mini"
    bad.write_bytes(b"MINI\x00")
    assert run_cli("verify", "--template", "mini", bad) == 2
    assert run_cli("verify", "--template", "magic16", good) == 1  # no oracle


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(["generate"])  # missing --template
    assert err.value.code == 1
    assert run_cli("generate", "--template", "no-such-template") == 1


# -- fuzz loop ----------------------------------------------------------------------


def test_fuzz_finds_stub_crash(tmp_path, capsys):
    out = tmp_path / "findings"
    rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} {STUB}",
                 "--count", 25, "--rng-seed", 5, "--timeout-ms", 5000,
                 "--out", out)
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["iterations"] == 25
    counted = sum(stats[k] for k in
                  ("valid", "invalid", "crash", "timeout", "gen_failed"))
    assert counted == 25
    assert stats["crash"] >= 1

    crashes = sorted(out.glob("crash_*.bin"))
    assert crashes
    mini = load_template("mini")
    for crash_bin in crashes[:3]:
        seed = Path(str(crash_bin)[:-4] + ".seed").read_bytes()
        assert generate_from_seed(mini, seed).file == crash_bin.read_bytes()


def test_fuzz_mutation_mode(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    out = tmp_path / "findings"
    rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} {STUB}",
                 "--count", 15, "--rng-seed", 9, "--timeout-ms", 5000,
                 "--corpus", corpus, "--out", out)
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert sum(stats[k] for k in
               ("valid", "invalid", "crash", "timeout", "gen_failed")) == 15


def test_fuzz_jobs_share_one_corpus_index(tmp_path, monkeypatch):
    real = harness.index_corpus
    calls = tmp_path / "index_calls"

    def counting_index(*args, **kwargs):
        with open(calls, "a") as fh:  # a worker process appends here too
            fh.write("1")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "index_corpus", counting_index)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    (corpus / "b.mini").write_bytes(b"MINI\x01\x02\x00hi\xd3\x01\x01\x00BB\xff")
    counts = []
    for jobs in (1, 2):
        out = tmp_path / f"findings-{jobs}"
        rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} {STUB}",
                     "--count", 16, "--rng-seed", 7, "--timeout-ms", 10000,
                     "--corpus", corpus, "--jobs", jobs, "--out", out)
        assert rc == 0
        assert calls.read_text() == "1"
        calls.unlink()
        stats = json.loads((out / "stats.json").read_text())
        counts.append({k: stats[k] for k in harness.OUTCOME_KINDS})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) == 16 and counts[0]["crash"] >= 1


def test_fuzz_unparsable_corpus_exits_one(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "junk.bin").write_bytes(b"JUNK")
    rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} -c pass",
                 "--corpus", corpus, "--rng-seed", 1, "--out", tmp_path / "f")
    assert rc == 1
    assert "no corpus file parsed" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_fuzz_unknown_checksum_counts_as_gen_failed(tmp_path):
    from btfuzz.errors import ChecksumAlgoUnknown
    template = tmp_path / "ck.bt"
    template.write_text("ubyte a; if (a > 200) { local int c = Checksum(9, 0, 1); } "
                        "ubyte b;")
    out = tmp_path / "f"
    rc = run_cli("fuzz", "--template", template, "--target", "true",
                 "--count", 300, "--rng-seed", 1, "--out", out)
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    unit = load_template(str(template))
    expected = 0
    for i in range(300):
        try:
            generate_random(unit, harness._iteration_rng(1, i))
        except ChecksumAlgoUnknown:
            expected += 1
    assert expected > 0
    assert stats["gen_failed"] == expected
    assert stats["valid"] == 300 - expected


def test_fuzz_mutator_errors_count_as_gen_failed(tmp_path, monkeypatch):
    from btfuzz.errors import ParseRejected
    real = harness.random_smart_mutation
    calls = []

    def flaky_mutation(*args):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise ParseRejected("mutant rejected")
        return real(*args)

    monkeypatch.setattr(harness, "random_smart_mutation", flaky_mutation)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    out = tmp_path / "f"
    rc = run_cli("fuzz", "--template", "mini", "--target", "true", "--corpus", corpus,
                 "--count", 12, "--rng-seed", 3, "--out", out)
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert sum(stats[k] for k in harness.OUTCOME_KINDS) == 12
    assert stats["gen_failed"] >= 4


def test_fuzz_bad_target(tmp_path):
    rc = run_cli("fuzz", "--template", "mini", "--target", "/no/such/binary",
                 "--count", 3, "--rng-seed", 1, "--out", tmp_path / "f")
    assert rc == 1


@pytest.fixture
def spawned(tmp_path, monkeypatch):
    """The processes a test starts; temp files go to tmp_path / "tmp"."""
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return started


def _assert_reaped(procs):
    assert procs
    for proc in procs:
        assert proc.returncode is not None
        with pytest.raises(ChildProcessError):  # no zombie left to wait for
            os.waitpid(proc.pid, os.WNOHANG)


def test_fuzz_leaves_no_input_file_or_child(tmp_path, spawned):
    rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} -c pass {{}}",
                 "--count", 6, "--rng-seed", 2, "--out", tmp_path / "f")
    assert rc == 0
    assert list((tmp_path / "tmp").iterdir()) == []
    assert len(spawned) == 6
    _assert_reaped(spawned)


def test_fuzz_error_mid_loop_kills_target_in_flight(tmp_path, spawned, monkeypatch):
    real = harness.random_smart_mutation
    calls = []

    def failing_mutation(*args):
        calls.append(1)
        if len(calls) == 2:  # the first input's target is still running
            raise RuntimeError("mutator failed")
        return real(*args)

    monkeypatch.setattr(harness, "random_smart_mutation", failing_mutation)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    with pytest.raises(RuntimeError, match="mutator failed"):
        run_cli("fuzz", "--template", "mini", "--corpus", corpus,
                "--target", f"{PY} -c 'import time; time.sleep(30)' {{}}",
                "--count", 5, "--rng-seed", 2, "--timeout-ms", 60000,
                "--out", tmp_path / "f")
    assert list((tmp_path / "tmp").iterdir()) == []
    assert len(spawned) == 1
    _assert_reaped(spawned)
    assert spawned[0].returncode == -signal.SIGKILL  # killed, not waited out
