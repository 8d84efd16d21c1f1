import shutil

import pytest

from btfuzz import formats


@pytest.fixture(scope="session")
def shim_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


@pytest.fixture(autouse=True)
def private_shim_cache(shim_cache, monkeypatch):
    """Build the fork-server shim once per session, outside the user's cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(shim_cache))


def force_spawn(monkeypatch, where) -> None:
    """Leave the fuzz loop no fork server, as a host without a C compiler
    does: an empty shim cache and no cc on PATH (`where` is a new directory)."""
    no_cc = where / "no-cc"
    no_cc.mkdir(parents=True)
    for tool in ("sh", "true"):
        (no_cc / tool).symlink_to(shutil.which(tool))
    monkeypatch.setenv("PATH", str(no_cc))
    monkeypatch.setenv("XDG_CACHE_HOME", str(where / "empty-cache"))


@pytest.fixture
def no_fork_server(tmp_path, monkeypatch):
    force_spawn(monkeypatch, tmp_path / "spawn-only")


@pytest.fixture(scope="session")
def mini():
    return formats.load_template("mini")


@pytest.fixture(scope="session")
def pnglite():
    return formats.load_template("pnglite")


@pytest.fixture(scope="session")
def magic16():
    return formats.load_template("magic16")


def build_mini_file(payloads: list[bytes]) -> bytes:
    """Build a valid MINI file from DATA payloads, independent of the engine."""
    out = bytearray(b"MINI")
    for p in payloads:
        out += b"\x01" + len(p).to_bytes(2, "little") + p
        out.append(sum(p) % 256)
    out += b"\xff"
    return bytes(out)


@pytest.fixture(scope="session")
def mini_file():
    return build_mini_file


def trees_agree(a, b, compare_seed_spans: bool = True) -> bool:
    """Structural identity of two parse trees.

    Seed spans are encoding dependent: a tree generated from a hand-made
    seed can differ in span widths from the canonical parse of the same
    file, so callers comparing across encodings pass compare_seed_spans
    False.
    """
    if (a.name != b.name or a.type_name != b.type_name
            or a.file_span != b.file_span or a.optional != b.optional
            or len(a.children) != len(b.children)):
        return False
    if compare_seed_spans and a.seed_span != b.seed_span:
        return False
    return all(
        trees_agree(ca, cb, compare_seed_spans)
        for ca, cb in zip(a.children, b.children))
