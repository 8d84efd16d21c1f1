"""No definition in src/btfuzz/ that nothing names.

A function, class or method whose name appears nowhere in the package
except on its own `def` or `class` lines is code that nothing calls.  The
scan is by name, so a name used anywhere (a call, an attribute, a string
or a comment) keeps every definition of that name.
"""

import ast
import re
from pathlib import Path

import btfuzz

PACKAGE = Path(btfuzz.__file__).parent

# FileBuffer.tell and DecisionStream.evil_gate are used only by tests and
# the bench's lists of buffer and decision operations; they go with the next
# change to the bench.
ALLOWED = {"FileBuffer.tell", "DecisionStream.evil_gate"}


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, name, line) of each def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name, node.lineno
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def test_every_definition_is_named_somewhere_else():
    lines, defined = [], {}  # defined: name -> [(qualified name, index into lines)]
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        offset = len(lines)
        lines += text.splitlines()
        for qualname, name, lineno in _definitions(ast.parse(text)):
            defined.setdefault(name, []).append((qualname, offset + lineno - 1))
    unused = set()
    for name, sites in defined.items():
        if name.startswith("__") and name.endswith("__"):
            continue
        own = {i for _, i in sites}
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for i, line in enumerate(lines) if i not in own):
            unused.update(qualname for qualname, _ in sites)
    assert unused == ALLOWED
