"""Target execution, outcome classification, and the CLI surface."""

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from btfuzz import cli, engine, harness
from btfuzz.engine import generate_from_seed, generate_random
from btfuzz.formats import load_template, template_text
from btfuzz.harness import Outcome, run_target
from conftest import force_spawn

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


@pytest.mark.parametrize("target, raises", [
    (f"{PY} -c 'pass'", None),
    (f"{PY} -c 'pass' {{}}", None),
    ("/no/such/binary", OSError),
], ids=["stdin", "file", "missing"])
def test_file_substitution_cleans_up(tmp_path, monkeypatch, target, raises):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    tempfile.tempdir = None
    try:
        fds = os.listdir("/proc/self/fd")
        with pytest.raises(raises) if raises else contextlib.nullcontext():
            run_target(target, b"x", timeout_ms=5000)
        assert list(tmp_path.iterdir()) == []
        assert os.listdir("/proc/self/fd") == fds
    finally:
        tempfile.tempdir = None


def test_target_removes_input_file_when_init_fails(tmp_path, monkeypatch):
    def failing_open(path, flags, *args, real=os.open):
        if flags == os.O_RDONLY:  # the stdin fd, after mkstemp made the file
            raise OSError("no fd left")
        return real(path, flags, *args)

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(os, "open", failing_open)
    with pytest.raises(OSError, match="no fd left"):
        harness._Target(f"{PY} -c 'pass'", timeout_ms=5000)
    assert list(tmp_path.iterdir()) == []


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
            tgt.spawn(data)
            assert tgt.finish().kind == "valid"


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
            tgt.spawn(data)
            tgt.finish()
    assert len(opens) == len(inputs)
    assert not any(flags & os.O_TRUNC for flags in opens)
    assert truncations == [len(data) for data in inputs]


# 200 KiB: a stdin target must read the input file to its end, and a
# shorter input after it must not see its tail
BIG = bytes(range(256)) * 800


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
    regen = tmp_path / "regen.mini"
    rc = run_cli("replay", "--template", "mini", "--seed", tmp_path / "x.mini.seed",
                 "--out", regen)
    assert rc == 0
    assert regen.read_bytes() == f.read_bytes()


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


def test_replay_without_out_or_target_writes_the_file_to_stdout(tmp_path, capsysbinary):
    seed = tmp_path / "s.seed"
    seed.write_bytes(b"\x00\x00\x00")
    assert run_cli("replay", "--template", "mini", "--seed", seed) == 0
    assert capsysbinary.readouterr().out == b"MINI\xff"


def test_mutate_a_corpus_no_operator_applies_to(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\xff")  # no record to mutate
    out = tmp_path / "mut"
    rc = run_cli("mutate", "--template", "mini", "--corpus", corpus,
                 "--count", 3, "--rng-seed", 1, "--out", out)
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote 0/3 mutated files -> {out}", '{"mutations": {}}']
    records = [json.loads(line) for line in (out / "mutations.jsonl").read_text().splitlines()]
    assert [(r["op"], r["ok"], r["rejected"]) for r in records] == [(None, False, [])] * 3
    assert list(out.glob("mut_*.bin")) == []


def test_mutate_missing_corpus(tmp_path, capsys):
    rc = run_cli("mutate", "--template", "mini",
                 "--corpus", tmp_path / "nope", "--out", tmp_path / "m")
    assert rc == 1
    assert "btfuzz: corpus directory not found" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("mutate", "--template", "mini", "--corpus", empty,
                   "--out", tmp_path / "m") == 1
    assert capsys.readouterr().err == f"no corpus file parsed in {empty}\n"


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_fuzz_empty_target_exits_one(tmp_path, capsys, jobs):
    out = tmp_path / "findings"
    rc = run_cli("fuzz", "--template", "mini", "--target", "", "--count", 4,
                 "--jobs", jobs, "--rng-seed", 1, "--out", out)
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["btfuzz: cannot run target: empty target command"]
    assert not out.exists()  # the command is checked before --out is made


@pytest.mark.parametrize("source", [
    "local int c = '\\xzz';", "local int c = '\\", "local int a = \u00b2;",
    "local int x = " + "(" * 1000 + "1" + ")" * 1000 + ";",
], ids=["char-hex-escape", "char-escape-at-end", "superscript-two", "deep-parentheses"])
def test_malformed_template_exits_one(tmp_path, capsys, source):
    bad = tmp_path / "bad.bt"
    bad.write_text(source, encoding="utf-8")
    assert run_cli("generate", "--template", bad, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("btfuzz: ")


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_non_utf8_template_exits_one(tmp_path, capsys, command):
    bad = tmp_path / "bad.bt"
    bad.write_bytes(b"ubyte a;\xff")
    args = ["--out", tmp_path / "out"] if command == "generate" else [bad]
    assert run_cli(command, "--template", bad, *args) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"btfuzz: {bad}: not UTF-8 text (byte 8)"]


def test_replay_unsplittable_target_exits_one(tmp_path, capsys):
    seed = tmp_path / "x.seed"
    seed.write_bytes(generate_random(load_template("mini"), 1).seed)
    rc = run_cli("replay", "--template", "mini", "--seed", seed,
                 "--target", "cat 'x", "--out", tmp_path / "x.bin")
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("btfuzz: ")
    assert "No closing quotation" in err[0]


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


@pytest.mark.parametrize("source, expected", [
    # Generation sees FileSize() == 0, so it never writes `a`: the corpus
    # file regenerates empty, while every random file is empty and passes.
    ("if (FileSize() > 0) ubyte a;",
     ["one.bin: FAIL (regenerated file differs)",
      "random seeds: 5/5 round-tripped (0 generation failures skipped)"]),
    ("if (FileSize() == 0) return -1; ubyte a;",
     ["one.bin: FAIL (template returned -1)",
      "random seeds: 0/0 round-tripped (5 generation failures skipped)"]),
], ids=["corpus-failure-counted-apart", "regeneration-fails"])
def test_roundtrip_corpus_failures(tmp_path, capsys, source, expected):
    template = tmp_path / "t.bt"
    template.write_text(source)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "one.bin").write_bytes(b"\x05")
    rc = run_cli("roundtrip", "--template", template, "--corpus", corpus,
                 "--count", 5, "--rng-seed", 1)
    assert rc == 3
    out = capsys.readouterr()
    assert out.out.splitlines() == expected
    assert out.err == "1 round-trip failure(s)\n"


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
    with pytest.raises(SystemExit) as err:  # `replay` turns a seed into a file
        cli.build_parser().parse_args(["generate", "--template", "mini", "--seed", "s"])
    assert err.value.code == 1


@pytest.mark.parametrize("command, flag, value, least", [
    ("generate", "--count", -1, 0), ("generate", "--max-size", -1, 0),
    ("fuzz", "--timeout-ms", 0, 1), ("fuzz", "--jobs", 0, 1),
], ids=["count", "max-size", "timeout-ms", "jobs"])
def test_numeric_option_below_its_least_exits_one(tmp_path, capsys, command, flag, value, least):
    out = tmp_path / "out"
    target = ["--target", f"{PY} -c pass"] if command == "fuzz" else []
    with pytest.raises(SystemExit) as err:
        run_cli(command, "--template", "mini", *target, "--count", 2, flag, value, "--out", out)
    assert err.value.code == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        f"btfuzz: error: argument {flag}: must be at least {least}")
    assert not out.exists()


# -- fuzz loop ----------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_fuzz_count_zero_writes_empty_stats(tmp_path, jobs):
    out = tmp_path / "findings"
    rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} -c pass",
                 "--count", 0, "--jobs", jobs, "--rng-seed", 1, "--out", out)
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["iterations"] == 0 and stats["findings"] == []


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


# a fix-up writes k (0-3) over n <min=1, max=4>: a mutant whose k is 0 has
# no evil-off parse, so a mutated finding's seed must come from its mutator
FIXUP_OUTSIDE_RANGE = """
typedef struct {
    uint16 n <min=1, max=4>;
    local int start = FTell();
    ubyte k <min=0, max=3>;
    ubyte body[k];
    FSeek(start - 2);
    uint16 n = { k };
    FSeek(start + 1 + k);
} CHUNK;
CHUNK a;
CHUNK b;
"""


def test_fuzz_mutation_findings_keep_their_mutator_seed(tmp_path):
    template = tmp_path / "fixup.bt"
    template.write_text(FIXUP_OUTSIDE_RANGE)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, hexdata in enumerate(["020002e30a0300037cebd4", "010001b80200021705",
                                 "02000214c301000125"]):
        (corpus / f"c{i}.bin").write_bytes(bytes.fromhex(hexdata))
    out = tmp_path / "findings"
    rc = run_cli("fuzz", "--template", template, "--no-evil", "--corpus", corpus,
                 "--target", "sh -c 'kill -SEGV $$' {}", "--count", 40,
                 "--rng-seed", 1, "--out", out)
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    assert sum(stats[k] for k in harness.OUTCOME_KINDS) == 40
    assert all(stats["mutation_ops"][op]["accepts"] > 0 for op in ("abstract", "replace"))
    assert stats["findings"]
    unit = load_template(str(template))
    for name in stats["findings"]:
        seed = (out / f"{name}.seed").read_bytes()
        regen = generate_from_seed(unit, seed, evil=False, budget=engine.DEFAULT_BUDGET)
        assert regen.file == (out / f"{name}.bin").read_bytes(), name


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
    err = capsys.readouterr().err
    assert "skipping junk.bin: " in err
    assert f"no corpus file parsed in {corpus}" in err
    assert not (tmp_path / "f").exists()

    # with one good file the campaign runs, and names the file it skipped
    (corpus / "good.bin").write_bytes(b"MINI\x01\x01\x00AA\xff")
    rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} -c pass",
                 "--corpus", corpus, "--count", 2, "--rng-seed", 1,
                 "--out", tmp_path / "f")
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err if line.startswith("skipping ")] == [
        "skipping junk.bin"]


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
    assert stats["gen_failed_errors"] == {"ChecksumAlgoUnknown": expected}
    assert stats["valid"] == 300 - expected
    assert stats["mutation_ops"] == {} and stats["worker_mutation_ops"] == [{}]


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
    assert stats["gen_failed_errors"] == {"ParseRejected": stats["gen_failed"]}


def _check_op_counts(ops: dict) -> None:
    for entry in ops.values():
        assert entry["attempts"] == entry["accepts"] + sum(entry["rejects"].values())


@pytest.mark.parametrize("jobs", [1, 2])
def test_fuzz_counts_mutation_attempts_per_operator(tmp_path, monkeypatch, capsys, jobs):
    from btfuzz import mutation
    from btfuzz.errors import SpliceMisaligned

    def misaligned(*args):
        raise SpliceMisaligned("forced")

    monkeypatch.setattr(mutation, "smart_insert", misaligned)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    (corpus / "b.mini").write_bytes(b"MINI\x01\x02\x00hi\xd3\x01\x01\x00BB\xff")
    out = tmp_path / "f"
    rc = run_cli("fuzz", "--template", "mini", "--target", "true", "--corpus", corpus,
                 "--count", 40, "--rng-seed", 3, "--jobs", jobs, "--out", out)
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    ops, workers = stats["mutation_ops"], stats["worker_mutation_ops"]
    assert len(workers) == jobs
    for counted in (ops, *workers):
        _check_op_counts(counted)
    assert ops == harness._sum_ops(workers)
    assert set(ops) == {"abstract", "replace", "delete", "insert"}
    assert ops["insert"]["accepts"] == 0
    assert ops["insert"]["rejects"] == {"SpliceMisaligned": ops["insert"]["attempts"]} != {}
    # every input built is one accepted mutation
    assert sum(e["accepts"] for e in ops.values()) == 40 - stats["gen_failed"]
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-2]) == {"mutations": ops}


def test_mutate_prints_operator_summary(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    (corpus / "b.mini").write_bytes(b"MINI\xff")
    out = tmp_path / "mut"
    rc = run_cli("mutate", "--template", "mini", "--corpus", corpus,
                 "--count", 30, "--rng-seed", 4, "--out", out)
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["mutations"]
    _check_op_counts(summary)
    records = [json.loads(line) for line in (out / "mutations.jsonl").read_text().splitlines()]
    assert sum(e["accepts"] for e in summary.values()) == sum(r["ok"] for r in records)
    attempts = sum(r["ok"] + len(r["rejected"]) for r in records)
    assert sum(e["attempts"] for e in summary.values()) == attempts


@pytest.mark.parametrize("jobs", [1, 2])
def test_fuzz_missing_executable_exits_one(tmp_path, capsys, jobs):
    rc = run_cli("fuzz", "--template", "mini", "--target", "/no/such/binary {}",
                 "--count", 4, "--jobs", jobs, "--rng-seed", 1, "--out", tmp_path / "f")
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("btfuzz: cannot run target: ")
    assert "/no/such/binary" in err[0]


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


@pytest.fixture
def runs(monkeypatch):
    """(delivery, target pid, return code as Popen reports it) of every
    target run the fuzz loop ends, under either delivery.  Every run ends
    in kill(), called by finish() or directly."""
    settled = []
    pid_and_code = {
        harness._Target: lambda tgt: (tgt.run.pid, tgt.run.returncode),
        harness._ForkServer: lambda tgt: (tgt.pid, os.waitstatus_to_exitcode(tgt.status)),
    }
    for cls, read in pid_and_code.items():
        def kill(self, real=cls.kill, read=read):
            real(self)
            settled.append((self.delivery, *read(self)))
        monkeypatch.setattr(cls, "kill", kill)
    return settled


def _assert_reaped(procs):
    assert procs
    for proc in procs:
        assert proc.returncode is not None
        with pytest.raises(ChildProcessError):  # no zombie left to wait for
            os.waitpid(proc.pid, os.WNOHANG)


def _assert_gone(pid):
    with pytest.raises(ProcessLookupError):  # neither running nor a zombie
        os.kill(pid, 0)


def _deliveries(tmp_path, monkeypatch):
    """Yield each delivery in turn; the spawn path, forced, comes last."""
    yield "fork-server"
    force_spawn(monkeypatch, tmp_path / "spawn-only")
    yield "spawn"


def test_fuzz_leaves_no_input_file_or_child(tmp_path, monkeypatch, spawned, runs):
    for delivery in _deliveries(tmp_path, monkeypatch):
        spawned.clear()
        runs.clear()
        out = tmp_path / delivery
        rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} -c pass {{}}",
                     "--count", 6, "--rng-seed", 2, "--out", out)
        assert rc == 0
        assert json.loads((out / "stats.json").read_text())["delivery"] == [delivery]
        assert list((tmp_path / "tmp").iterdir()) == []
        _assert_reaped(spawned)  # the targets, or the server
        assert len(runs) == 6
        for _, pid, code in runs:
            assert code == 0
            _assert_gone(pid)


def test_fuzz_error_mid_loop_kills_target_in_flight(tmp_path, spawned, runs, monkeypatch):
    real = harness.random_smart_mutation
    calls = []

    def failing_mutation(*args):
        calls.append(1)
        if len(calls) % 2 == 0:  # the first input's target is still running
            raise RuntimeError("mutator failed")
        return real(*args)

    monkeypatch.setattr(harness, "random_smart_mutation", failing_mutation)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    for delivery in _deliveries(tmp_path, monkeypatch):
        spawned.clear()
        runs.clear()
        with pytest.raises(RuntimeError, match="mutator failed"):
            run_cli("fuzz", "--template", "mini", "--corpus", corpus,
                    "--target", f"{PY} -c 'import time; time.sleep(30)' {{}}",
                    "--count", 5, "--rng-seed", 2, "--timeout-ms", 60000,
                    "--out", tmp_path / delivery)
        assert list((tmp_path / "tmp").iterdir()) == []
        _assert_reaped(spawned)
        assert len(runs) == 1
        _, pid, code = runs[0]
        assert code == -signal.SIGKILL  # killed, not waited out
        _assert_gone(pid)
        assert runs[0][0] == delivery


def test_fuzz_ctrl_c_writes_partial_stats(tmp_path, spawned, runs, monkeypatch):
    real = harness.random_smart_mutation
    calls = []

    def interrupted_mutation(*args):
        calls.append(1)
        if len(calls) % 4 == 0:  # inputs 1-2 settled, input 3 in flight
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(harness, "random_smart_mutation", interrupted_mutation)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.mini").write_bytes(b"MINI\x01\x01\x00AA\xff")
    for delivery in _deliveries(tmp_path, monkeypatch):
        spawned.clear()
        runs.clear()
        out = tmp_path / delivery
        rc = run_cli("fuzz", "--template", "mini", "--corpus", corpus,
                     "--target", f"{PY} -c 'import time; time.sleep(30)' {{}}",
                     "--count", 10, "--rng-seed", 2, "--timeout-ms", 200, "--out", out)
        assert rc == 130
        stats = json.loads((out / "stats.json").read_text())
        assert stats["interrupted"] is True and stats["delivery"] == [delivery]
        assert stats["iterations"] == stats["timeout"] == 2
        assert sum(stats[k] for k in harness.OUTCOME_KINDS) == 2
        assert list((tmp_path / "tmp").iterdir()) == []
        _assert_reaped(spawned)
        assert len(runs) == 3
        for _, pid, code in runs:
            assert code == -signal.SIGKILL
            _assert_gone(pid)


def test_fuzz_hanging_target_times_out(tmp_path, spawned, runs, monkeypatch):
    for delivery in _deliveries(tmp_path, monkeypatch):
        spawned.clear()
        runs.clear()
        out = tmp_path / delivery
        started = time.perf_counter()
        rc = run_cli("fuzz", "--template", "mini", "--rng-seed", 1, "--count", 3,
                     "--target", f"{PY} -c 'import time; time.sleep(30)' {{}}",
                     "--timeout-ms", 300, "--out", out)
        assert rc == 0
        assert time.perf_counter() - started < 10
        stats = json.loads((out / "stats.json").read_text())
        assert stats["timeout"] == 3 and stats["delivery"] == [delivery]
        assert stats["blocked_s"][0] > 0.6  # most of three 300 ms deadlines
        assert list((tmp_path / "tmp").iterdir()) == []
        _assert_reaped(spawned)
        for _, pid, code in runs:
            assert code == -signal.SIGKILL
            _assert_gone(pid)


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("delivery", ["fork-server", "spawn"])
def test_target_children_die_with_it(tmp_path, monkeypatch, delivery):
    # each target leaves a background sleep behind, which must not outlive it
    pids = tmp_path / "pids"
    sleep, cat = shutil.which("sleep"), shutil.which("cat")
    target = f"sh -c '{sleep} 20 & echo $! >> {pids}; {cat} \"$0\" >/dev/null' {{}}"
    if delivery == "spawn":
        force_spawn(monkeypatch, tmp_path / "spawn-only")
    try:
        rc = run_cli("fuzz", "--template", "mini", "--target", target, "--count", 2,
                     "--rng-seed", 1, "--timeout-ms", 5000, "--out", tmp_path / "out")
        assert rc == 0
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stats["delivery"] == [delivery] and stats["valid"] == 2
        left = [int(pid) for pid in pids.read_text().split()]
        assert len(left) == 2
        deadline = time.perf_counter() + 5
        while time.perf_counter() < deadline and not all(map(_gone_or_zombie, left)):
            time.sleep(0.01)
        assert all(map(_gone_or_zombie, left))
    finally:
        for pid in pids.read_text().split() if pids.exists() else ():
            with contextlib.suppress(ProcessLookupError):
                os.kill(int(pid), signal.SIGKILL)


def test_dead_fuzz_worker_ends_the_run(tmp_path, monkeypatch):
    # on the spawn path the target's parent is the worker, which it kills;
    # multiprocessing.Pool would wait for that worker for ever
    force_spawn(monkeypatch, tmp_path / "spawn-only")
    (tmp_path / "tmp").mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
           "TMPDIR": str(tmp_path / "tmp")}
    argv = [sys.executable, "-m", "btfuzz.cli", "fuzz", "--template", "mini", "--jobs", "2",
            "--count", "2", "--rng-seed", "1", "--target", "sh -c 'kill -KILL $PPID'",
            "--out", str(tmp_path / "out")]
    proc = subprocess.Popen(argv, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the run, its workers and their targets
        proc.communicate()
        raise
    assert proc.returncode == 1
    lines = [line for line in err.splitlines() if "fork server unavailable" not in line]
    assert len(lines) == 1 and lines[0].startswith("btfuzz: a fuzz worker died")
    assert list((tmp_path / "tmp").iterdir()) == []  # the dead worker's input file too


def test_forked_fuzz_workers_find_the_program_compiled(tmp_path, monkeypatch):
    # a template path of its own, so that no earlier test compiled its unit
    template = tmp_path / "fresh.bt"
    template.write_text(template_text("mini"))
    parent, compiles = os.getpid(), tmp_path / "compiles"

    class Recording(engine._Compiler):
        def __init__(self, unit, gen, tree):
            with open(compiles, "a") as log:  # appended to by any process
                log.write(f"{'parent' if os.getpid() == parent else 'worker'} {gen} {tree}\n")
            super().__init__(unit, gen, tree)

    monkeypatch.setattr(engine, "_Compiler", Recording)
    out = tmp_path / "out"
    assert run_cli("fuzz", "--template", template, "--target", f"{PY} -c pass",
                   "--count", 4, "--jobs", 2, "--rng-seed", 1, "--out", out) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["iterations"] == 4 and len(stats["delivery"]) == 2
    assert compiles.read_text() == "parent True False\n"


@pytest.mark.parametrize("delivery", [harness._Target, harness._ForkServer],
                         ids=["spawn", "fork-server"])
def test_stdin_is_each_input_exactly(tmp_path, delivery):
    log = tmp_path / "log"
    log.mkdir()
    code = ("import os, stat, sys; d = sys.argv[1]; "
            "assert stat.S_ISREG(os.fstat(0).st_mode); "
            "open(os.path.join(d, '%03d.bin' % len(os.listdir(d))), 'wb')"
            ".write(sys.stdin.buffer.read())")
    inputs = [BIG, b"abc", b"", b"xy"]
    with delivery(f'{PY} -c "{code}" {log}', timeout_ms=10000) as tgt:
        for data in inputs:
            tgt.spawn(data)
            assert tgt.finish().kind == "valid"
    assert [p.read_bytes() for p in sorted(log.iterdir())] == inputs


def test_fuzz_accounts_for_spawn_time(tmp_path, monkeypatch):
    results = []

    def recording_worker(cfg, real=harness._fuzz_worker):
        results.append(real(cfg))
        return results[-1]

    monkeypatch.setattr(harness, "_fuzz_worker", recording_worker)
    for delivery in _deliveries(tmp_path, monkeypatch):
        results.clear()
        out = tmp_path / delivery
        rc = run_cli("fuzz", "--template", "mini", "--target", f"{PY} -c pass",
                     "--count", 6, "--rng-seed", 2, "--out", out)
        assert rc == 0
        (res,) = results
        assert res["delivery"] == delivery and res["spawn_s"] > 0
        assert res["produce_s"] + res["spawn_s"] + res["blocked_s"] <= res["duration"]
        stats = json.loads((out / "stats.json").read_text())
        assert stats["spawn_s"] == [round(res["spawn_s"], 3)]


@pytest.mark.parametrize("preload", [None, "libm.so.6"])
def test_fork_server_restores_ld_preload(tmp_path, monkeypatch, preload):
    if preload is None:
        monkeypatch.delenv("LD_PRELOAD", raising=False)
    else:
        monkeypatch.setenv("LD_PRELOAD", preload)
    check = tmp_path / "check.py"
    check.write_text(
        "import os, sys\n"
        f"ok = os.environ.get('LD_PRELOAD') == {preload!r} "
        f"and {harness._HANDSHAKE_VAR!r} not in os.environ\n"
        "sys.exit(0 if ok else 1)\n")
    # the shell's child is a grandchild of the server: `; exit` stops an exec
    target = f"sh -c '{PY} {check}; exit $?'"
    with harness._ForkServer(target, timeout_ms=10000) as tgt:
        tgt.spawn(b"")
        assert tgt.finish().kind == "valid"


VALIDATOR_C = r"""
#include <signal.h>
#include <stdio.h>
#include <string.h>
int main(int argc, char **argv) {
    unsigned char buf[4096];
    FILE *f = fopen(argv[1], "rb");
    size_t n = f ? fread(buf, 1, sizeof buf, f) : 0;
    if (n > 4 && buf[4] == 0xFF)
        raise(SIGSEGV);
    return n >= 4 && memcmp(buf, "MINI", 4) == 0 ? 0 : 1;
}
"""


def _fuzz_warnings(capfd, target: str, out: Path, jobs: int = 1) -> tuple[dict, int]:
    rc = run_cli("fuzz", "--template", "mini", "--target", target, "--count", 30,
                 "--rng-seed", 4, "--jobs", jobs, "--timeout-ms", 5000, "--out", out)
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    return stats, capfd.readouterr().err.count("fork server unavailable")


def test_static_target_falls_back_with_one_warning(tmp_path, capfd):
    source = tmp_path / "validator.c"
    source.write_text(VALIDATOR_C)
    static, dynamic = tmp_path / "static", tmp_path / "dynamic"
    if subprocess.run(["cc", "-static", "-O2", "-o", static, source],
                      capture_output=True).returncode != 0:
        pytest.skip("cc cannot link a static binary here")
    subprocess.run(["cc", "-O2", "-o", dynamic, source], check=True)
    forked, warned = _fuzz_warnings(capfd, f"{dynamic} {{}}", tmp_path / "d")
    assert forked["delivery"] == ["fork-server"] and warned == 0
    spawned, warned = _fuzz_warnings(capfd, f"{static} {{}}", tmp_path / "s")
    assert spawned["delivery"] == ["spawn"] and warned == 1
    for key in (*harness.OUTCOME_KINDS, "findings"):
        assert spawned[key] == forked[key]
    assert forked["crash"] > 0 and forked["valid"] > 0


@pytest.mark.parametrize("cc", ["missing", "failing"])
def test_no_cc_falls_back_with_one_warning_per_worker(tmp_path, capfd, no_fork_server, cc):
    if cc == "failing":
        fake = Path(os.environ["PATH"]) / "cc"
        fake.write_text("#!/bin/sh\nexit 1\n")
        fake.chmod(0o755)
    for jobs in (1, 2):
        stats, warned = _fuzz_warnings(capfd, f"{PY} {STUB}", tmp_path / f"j{jobs}", jobs)
        assert stats["delivery"] == ["spawn"] * jobs and warned == jobs
        assert sum(stats[k] for k in harness.OUTCOME_KINDS) == 30


def test_fork_server_source_ships_as_package_data():
    from importlib import resources
    source = resources.files("btfuzz").joinpath("forkserver.c")
    assert "PR_SET_PDEATHSIG" in source.read_text()
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    package_data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
    assert "forkserver.c" in package_data["btfuzz"]
