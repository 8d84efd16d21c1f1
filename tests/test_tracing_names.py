"""The bench tracer patches btfuzz functions by name; every name must exist.

`bench/tracing.py` looks each patched name up with `vars(owner)[attr]`, so
a rename in `src/` would otherwise surface only in a `--trace 1` bench run.
"""

import importlib.util
from pathlib import Path

import btfuzz.cli
import btfuzz.engine
import btfuzz.formats
import btfuzz.harness
import btfuzz.mutation
from btfuzz.decisionstream import DecisionStream
from btfuzz.formats.zstream import StoredZlibCodec
from btfuzz.runtime import FileBuffer

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_listed_stream_and_buffer_ops_exist():
    for owner, names in ((DecisionStream, tracing.DECISION_OPS),
                         (FileBuffer, tracing.BUFFER_OPS)):
        missing = [name for name in names if name not in vars(owner)]
        assert not missing, f"{owner.__name__} has no {missing}"


def test_tracer_finds_and_restores_every_patched_name():
    originals = {}
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises KeyError on a name its owner lacks
        for owner, attr, raw in tracer._patches:
            originals[owner, attr] = raw
    finally:
        tracer.uninstall()
    owners = {owner for owner, _ in originals}
    assert owners == {btfuzz.engine, btfuzz.mutation, btfuzz.harness, btfuzz.cli,
                      btfuzz.formats, DecisionStream, FileBuffer, StoredZlibCodec}
    assert {attr for owner, attr in originals if owner is StoredZlibCodec} == {
        "encode", "decode"}
    for (owner, attr), raw in originals.items():
        assert vars(owner)[attr] is raw
