"""Pins of what the CLI commands print and write over fixed rng seeds.

Each command's output is compared with a digest or text taken from a
known-good build, so a refactor of the commands cannot change a file, a
seed or a report line unnoticed.  Timings and paths are left out of what
is pinned.
"""

import hashlib
from pathlib import Path

import pytest

from btfuzz import cli


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one btfuzz command."""
    rc = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def digest(paths) -> str:
    """sha256 over the names, lengths and bytes of `paths`, in name order."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def corpus(tmp_path, capsys, template: str, count: int, rng_seed: int) -> Path:
    """A corpus of generated files plus one file no template parses."""
    root = tmp_path / "corpus"
    rc, _, _ = run(capsys, "generate", "--template", template, "--count", count,
                   "--rng-seed", rng_seed, "--out", root)
    assert rc == 0
    for seed in root.glob("*.seed"):
        seed.unlink()
    (root / "junk.bin").write_bytes(b"JUNK")
    return root


GENERATE_PNGLITE = "d8e6602fef08412a73d61373b92ace8a28a1a4b22965ed4100949b81f02ea748"


def test_generate_files(tmp_path, capsys):
    out = tmp_path / "out"
    rc, stdout, _ = run(capsys, "generate", "--template", "pnglite", "--count", 30,
                        "--rng-seed", 7, "--out", out)
    assert rc == 0
    assert stdout.startswith("generated 30/30 files (0 failed) in ")
    files = [*out.glob("*.bin"), *out.glob("*.seed")]
    assert len(files) == 60
    assert digest(files) == GENERATE_PNGLITE
    # the rate counts the files written, not the attempts that failed
    rc, stdout, _ = run(capsys, "generate", "--template", "mini", "--count", 2,
                        "--max-size", 0, "--out", tmp_path / "none")
    assert rc == 0
    assert stdout.startswith("generated 0/2 files (2 failed) in ") and " 0 files/s " in stdout


ROUNDTRIP = {
    "mini": "random seeds: 200/200 round-tripped (0 generation failures skipped)\n",
    "pnglite": "random seeds: 200/200 round-tripped (0 generation failures skipped)\n",
}


@pytest.mark.parametrize("template", sorted(ROUNDTRIP))
def test_roundtrip_stdout(capsys, template):
    rc, stdout, _ = run(capsys, "roundtrip", "--template", template, "--count", 200,
                        "--rng-seed", 3)
    assert rc == 0
    assert stdout == ROUNDTRIP[template]


ROUNDTRIP_CORPUS = "".join(
    [f"gen_{i:06d}.bin: pass\n" for i in range(6)]
    + ["junk.bin: parse-rejected (BudgetExceeded: array btPngSignature[4] does not fit "
       "the remaining 4 byte(s))\n",
       "random seeds: 20/20 round-tripped (0 generation failures skipped)\n"])


def test_roundtrip_corpus_stdout(tmp_path, capsys):
    root = corpus(tmp_path, capsys, "pnglite", 6, 2)
    rc, stdout, _ = run(capsys, "roundtrip", "--template", "pnglite", "--corpus", root,
                        "--count", 20, "--rng-seed", 3)
    assert rc == 0
    assert stdout == ROUNDTRIP_CORPUS


COVERAGE_MINI = "d8e1d5141177cbe26c32551930b383a60cd12bc4a6af0963727504a7ccf52b2d"


def test_coverage_report(tmp_path, capsys):
    report = tmp_path / "cov.json"
    rc, stdout, _ = run(capsys, "coverage", "--template", "mini", "--count", 500,
                        "--rng-seed", 5, "--out", report)
    assert rc == 0
    assert stdout.startswith("declaration coverage: 8/8 (100.0%) over 500 generations")
    assert digest([report]) == COVERAGE_MINI


MUTATE_PNGLITE = "c5e1460539ab294a1ace9af280fc0a28d9bc347a89dcf7afb21e4e3cce38bf65"
MUTATE_OPS = (
    '{"mutations": {"abstract": {"attempts": 5, "accepts": 5, "rejects": {}}, '
    '"delete": {"attempts": 4, "accepts": 4, "rejects": {}}, '
    '"insert": {"attempts": 3, "accepts": 3, "rejects": {}}, '
    '"replace": {"attempts": 8, "accepts": 8, "rejects": {}}}}')


def test_mutate_output(tmp_path, capsys):
    root = corpus(tmp_path, capsys, "pnglite", 8, 2)
    out = tmp_path / "mut"
    rc, stdout, stderr = run(capsys, "mutate", "--template", "pnglite", "--corpus", root,
                             "--count", 20, "--rng-seed", 1, "--out", out)
    assert rc == 0
    assert stderr.startswith("skipping junk.bin: ")
    assert stdout.splitlines()[1] == MUTATE_OPS
    assert digest(out.iterdir()) == MUTATE_PNGLITE
