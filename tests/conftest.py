import pytest

from btfuzz import formats


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
    False.  The rewritten flag never participates (only the generator
    observes fix-ups).
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
