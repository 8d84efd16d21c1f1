"""Golden fuzz campaigns: fixed-seed `btfuzz fuzz` runs against the crash stub.

A campaign is black-box and draws every input from its iteration's RNG, so
how the loop schedules target runs must not change what it counts or
persists.  Each campaign pins the outcome counts in stats.json, the finding
names, and one sha256 over every persisted .bin/.seed (name, then bytes).
The generation campaign feeds the stub on stdin; the mutation campaign
hands it a `{}` file path through the shell.  Both campaigns run under the
fork server and under the spawn path, and must pin the same figures.
"""

import hashlib
import json
import shlex
import sys
from pathlib import Path

import pytest

from btfuzz import cli
from btfuzz.harness import OUTCOME_KINDS

STUB = Path(__file__).with_name("crash_stub.py")
PY = f"{shlex.quote(sys.executable)} -S -E"
CORPUS = {
    "a.mini": b"MINI\x01\x01\x00AA\xff",
    "b.mini": b"MINI\x01\x02\x00hi\xd3\x01\x01\x00BB\xff",
}

CAMPAIGNS = {
    "generation": dict(
        target=f"{PY} {shlex.quote(str(STUB))}", rng_seed=5, count=24, corpus=False,
        counts={"valid": 7, "invalid": 0, "crash": 17, "timeout": 0, "gen_failed": 0},
        findings=[f"crash_00_{i:06d}" for i in (0, 1, 2, 3, 4, 8, 9, 10, 11, 13, 14, 15,
                                                 16, 17, 18, 19, 20)],
        sha256="862004cfbc7220a210c68e628b8e1931c27f5410d259a3ee65bc94c0f9b4b8a2"),
    "mutation": dict(
        target="sh -c " + shlex.quote(f"exec {PY} {shlex.quote(str(STUB))} < {{}}"),
        rng_seed=7, count=32, corpus=True,
        counts={"valid": 28, "invalid": 0, "crash": 4, "timeout": 0, "gen_failed": 0},
        findings=["crash_00_000015", "crash_00_000019", "crash_00_000021", "crash_00_000026"],
        sha256="9838ad8ce4a10de42f0fdf51868f85dae97fd465a8a45042680c7dca2097b0d0"),
}


def run_campaign(tmp_path: Path, spec: dict) -> tuple[dict, list, str, list]:
    out = tmp_path / "findings"
    argv = ["fuzz", "--template", "mini", "--target", spec["target"],
            "--count", str(spec["count"]), "--rng-seed", str(spec["rng_seed"]),
            "--timeout-ms", "10000", "--out", str(out)]
    if spec["corpus"]:
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, data in CORPUS.items():
            (corpus / name).write_bytes(data)
        argv += ["--corpus", str(corpus)]
    assert cli.main(argv) == 0
    stats = json.loads((out / "stats.json").read_text())
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.suffix in (".bin", ".seed"):
            h.update(f"{path.name}:{path.stat().st_size}:".encode() + path.read_bytes())
    counts = {k: stats[k] for k in OUTCOME_KINDS}
    return counts, stats["findings"], h.hexdigest(), stats["delivery"]


def check_campaign(tmp_path: Path, name: str, delivery: str) -> None:
    spec = CAMPAIGNS[name]
    counts, findings, digest, used = run_campaign(tmp_path, spec)
    assert used == [delivery]
    assert counts == spec["counts"]
    assert findings == spec["findings"]
    assert digest == spec["sha256"]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_golden(tmp_path, name):
    check_campaign(tmp_path, name, "fork-server")


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_golden_spawn_fallback(tmp_path, name, no_fork_server):
    check_campaign(tmp_path, name, "spawn")
