"""Format-aware fuzzing toolkit built on executable binary templates.

A template is a C-like program whose input declarations map onto bytes
of a file.  Run forward it generates files from decision seeds; run
backward it parses files into the seeds that regenerate them.  Seeds are
the substrate for smart mutations, and a black-box harness drives
targets with the results.
"""

from .decisionstream import ChoiceSpec, DecisionStream, StreamMode
from .engine import (
    ChoiceEvent,
    GenResult,
    ParseOutcome,
    generate,
    generate_from_seed,
    generate_random,
    parse,
    register_codec,
    run_with_splice,
)
from .errors import (
    Error,
    GenerationFailed,
    MutationError,
    ParseRejected,
    SpliceMisaligned,
    TemplateError,
    TrailingBytes,
)
from .mutation import (
    ChunkPool,
    ChunkRecord,
    index_corpus,
    random_smart_mutation,
    smart_abstract,
    smart_delete,
    smart_insert,
    smart_replace,
)
from .runtime import DEFAULT_BUDGET, ParseNode
from .templatelang import parse_template

from . import formats  # noqa: E402  (registers the bundled codec)

__version__ = "0.1.0"

__all__ = [
    "ChoiceEvent",
    "ChoiceSpec",
    "ChunkPool",
    "ChunkRecord",
    "DEFAULT_BUDGET",
    "DecisionStream",
    "Error",
    "GenResult",
    "GenerationFailed",
    "MutationError",
    "ParseNode",
    "ParseOutcome",
    "ParseRejected",
    "SpliceMisaligned",
    "StreamMode",
    "TemplateError",
    "TrailingBytes",
    "formats",
    "generate",
    "generate_from_seed",
    "generate_random",
    "index_corpus",
    "parse",
    "parse_template",
    "random_smart_mutation",
    "register_codec",
    "run_with_splice",
    "smart_abstract",
    "smart_delete",
    "smart_insert",
    "smart_replace",
]
