"""Pins of the template front end: what the lexer, parser and analysis hand
the engine, and the typed errors they raise.

Each case pins three digests: the token stream as (kind, value, line,
col); the repr() of the typedefs, functions and top level, spans
included; and the analysis results (declarations, magic table in order,
bound names, warnings).  A change to the front end that keeps these keeps
every template's meaning, declaration ids and magic order.  The sources
of the four compiled programs, tree and lean, generate and parse, are
pinned apart: a change to the AST's shapes that keeps them keeps what
every template runs.  Templates without input declarations compile to the
same source all four ways.
"""

import hashlib
import re

import pytest

from btfuzz import formats
from btfuzz.engine import _Compiler
from btfuzz.errors import ArityError, ResolveError, TemplateSyntaxError
from btfuzz.templatelang import DYNAMIC_ARRAY, bound_names, parse_template, tokenize


def _digest(*parts) -> str:
    text = repr(parts).replace(repr(DYNAMIC_ARRAY), "DYNAMIC_ARRAY")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def front_end_digests(source: str) -> tuple[str, str, str]:
    tokens = [(t.kind.name, t.value, t.line, t.col) for t in tokenize(source)]
    unit = parse_template(source)
    return (_digest(tokens),
            _digest(unit.typedefs, unit.functions, unit.toplevel),
            _digest(unit.declarations, list(unit.magic.items()), sorted(bound_names(unit)),
                    unit.warnings))


SNIPPETS = {
    "hex": "local int a = 0x1F + 0XaB - 0x0; local int b = 0xFFFFFFFFFFFFFFFF;",
    "float": "local int f = 3.25 > 1.0; local int g = 10.5 + 007; local int h = 1.x;",
    "char": r"""local int c = 'A' + '\n' + '\x41' + '\\' + '\'' + '"' + '\0' + '\t' + 'é';""",
    "string": r"""local string s = "a\tb\r\n\x7F\xff\"\'\\\0é" ; local string e = "";""",
    "comments": "// c\n/* multi\nline */ ubyte a; // tail\n/**/ubyte b;/* x */\n//",
    "positions": "ubyte\ta;\r\n  \tubyte  b;\n\n\n      ubyte c ;",
    "operators": "local int a; local int b; local int c; local int d;\n"
                 "local int x = -a * b + c << 2 == 3 && !d || ~a ? 1 : b ? 2 : (3);\n"
                 "x = a % b / c - +d >> 1 <= 2 != 3 >= 4 > 5 < 6 & 7 ^ 8 | 9;\n"
                 "x++; x--; ++x; --x; a = true + false;",
    "statements": """
        typedef ubyte BYTE;
        typedef enum <uint16> { A, B = 5, C, D = -2, E = 'x' } KIND;
        typedef enum { P } PLAIN;
        struct PAIR { BYTE lo; BYTE hi; };
        typedef struct (int n, KIND k) { ubyte body[n]; PAIR p; } CHUNK;
        void nothing() { return; }
        int twice(int v) { local int w = v * 2; return w; }
        local int i = 0;
        local int list[] = { 1, 2, 3 };
        local string names[2];
        names += "a";
        names -= ("b", "c");
        list += 4;
        CHUNK c(2, B);
        while (i < 2) { i++; if (i == 1) nothing(); else { break; } }
        { ubyte inner; }
        if (c.p.lo != 0x50) return -1;
        nothing();
        twice(3);
    """,
    "switch": """
        ubyte tag;
        switch (tag) {
            case 1:
            case 2: ubyte two; break;
            case 'A': { ubyte a; }
            default: ubyte other;
            case 9:
        }
        switch (tag) { }
    """,
    "for": """
        local int i;
        for (;;) break;
        for (i = 0; i < 3; i++) ubyte x;
        for (i++; ; ) { break; }
        for (; i; i = i - 1) { }
        while (0) { }
    """,
    "attributes": """
        uint16 len <min=1, max=16>;
        ubyte b = { 1, 2, 4 } <min=0, max=1 << 3>;
        ubyte u <color=2>;
        ubyte v <>;
        uint32 w[len] <max=7>;
    """,
    "magic": """
        ubyte sig[4];
        struct H { char tag[2]; uint16 v; };
        H h;
        if (sig[0] != 0x89 || sig[1] == 'P' && 1 == sig[0]) return -1;
        if (h.tag == "hi" || "yo" == h.tag || h.tag[1] != 7) return 1;
        if (h.v == -1 || h.v != 3 || sig[h.v] == 2 || h.v == h.v) return 2;
        ReadBytes(tok, FTell(), 1, sig, sig, 0.5);
    """,
}

EXPECTED = {
    'mini': ('e5f8e9be46a0ea66', '6192b2ddb8c4a9af', '7301604e27021cf5'),
    'pnglite': ('f541a1631accdd13', '34dee949c61ab889', '6abcea25eb68fe97'),
    'magic16': ('a2f4aac7bc0d7e50', '981687cb4775ea93', 'b0431b18e47f5d92'),
    'hex': ('d023614365569a32', '64c19bbe4be43442', '95d05f4a7b5a2ede'),
    'float': ('8cca962e124523c1', '38f4e6d572e3aeef', '6d5ffe397e3d429c'),
    'char': ('02327639b853dd2d', '8b8df7ef8724bceb', '3e4bf4ae5b3ca9d7'),
    'string': ('1a2d70024f5f089e', '0e3a932d4505f9b3', '0f711e079a7f6cab'),
    'comments': ('6b6ea4439051bee6', '9d69dcfd40e8deb9', '6796377fa59451d6'),
    'positions': ('ec6b8e30ad7f8bae', '0843709757393402', 'e03395afbd618aef'),
    'operators': ('b24bb3bb5b38135b', 'b38f79014ff53558', '26b5b37ad532e4d9'),
    'statements': ('183d7403c4883d6d', '6e25b4edf930a158', 'f89a63df3afd1295'),
    'switch': ('082100e1062c74f2', 'd0b762f18ec834e0', '51d1902205bfd092'),
    'for': ('ce074c9d50dc257b', '6deac3ae72d7bcfe', '8550be732d5e0efe'),
    'attributes': ('8332d8986deafae6', 'cb63f3b0c187732c', '9d12927e8cca1d28'),
    'magic': ('529d207de8f1dbca', '398d0d556c518af7', '9dddd40297cf2d0f'),
}


@pytest.mark.parametrize("name", formats.BUNDLED)
def test_bundled_template_front_end_is_pinned(name):
    assert front_end_digests(formats.template_text(name)) == EXPECTED[name]


@pytest.mark.parametrize("name", SNIPPETS)
def test_snippet_front_end_is_pinned(name):
    assert front_end_digests(SNIPPETS[name]) == EXPECTED[name]


TREE_GEN_SOURCE = {
    'mini': 'b4e73be555ecd2f1',
    'pnglite': '89c524e26ae4af2c',
    'magic16': 'a6d12d55b7f2737e',
    'hex': 'df1d7f463ee07975',
    'float': '1dacc02786906b05',
    'char': '96733810bc293671',
    'string': '9fe62e3ca666abc2',
    'comments': '693b904f4a35ca71',
    'positions': '07041b0007237645',
    'operators': '693d9c9cf85c4f24',
    'statements': 'fe2ce64640bf1274',
    'switch': '80ddf503f2460940',
    'for': '8d1b8e56b7b2e924',
    'attributes': '48981c0bdc5d5dd2',
    'magic': '389ecbc87bbac36b',
}


@pytest.mark.parametrize("name", TREE_GEN_SOURCE)
def test_program_source_is_pinned(name):
    source = formats.template_text(name) if name in formats.BUNDLED else SNIPPETS[name]
    program = _Compiler(parse_template(source), gen=True, tree=True).source
    assert hashlib.sha256(program.encode()).hexdigest()[:16] == TREE_GEN_SOURCE[name]


TREE_PARSE_SOURCE = {
    'mini': '859ff71aea3a92e9',
    'pnglite': '17397311a17c542c',
    'magic16': '31e07b83bfa1214d',
    'hex': 'df1d7f463ee07975',
    'float': '1dacc02786906b05',
    'char': '96733810bc293671',
    'string': '9fe62e3ca666abc2',
    'comments': '91901f95d5eabb27',
    'positions': '49e818dd27890892',
    'operators': '693d9c9cf85c4f24',
    'statements': '9a875140bf6cc7f5',
    'switch': '17919c0b76133308',
    'for': '1ddcc7b87ec1e2ee',
    'attributes': '0cc57f9b2b99005e',
    'magic': 'bae344ec3674f56c',
}


@pytest.mark.parametrize("name", TREE_PARSE_SOURCE)
def test_tree_parse_program_source_is_pinned(name):
    source = formats.template_text(name) if name in formats.BUNDLED else SNIPPETS[name]
    program = _Compiler(parse_template(source), gen=False, tree=True).source
    assert hashlib.sha256(program.encode()).hexdigest()[:16] == TREE_PARSE_SOURCE[name]


LEAN_SOURCE = {
    'mini': '0612c2a84941db00',
    'pnglite': '840f093904ad3df5',
    'magic16': 'd85231e58dc55e23',
    'hex': 'df1d7f463ee07975',
    'float': '1dacc02786906b05',
    'char': '96733810bc293671',
    'string': '9fe62e3ca666abc2',
    'comments': 'bb7f4d8edcdd6c3e',
    'positions': '6c279a5f4be5a08b',
    'operators': '693d9c9cf85c4f24',
    'statements': '54928cb28032b4fe',
    'switch': 'de257b9a92e58f29',
    'for': 'd8e181988c6a1ad9',
    'attributes': '507b4beaa23eac18',
    'magic': 'fdfe42879a820a0f',
}


@pytest.mark.parametrize("name", LEAN_SOURCE)
def test_lean_program_source_is_pinned(name):
    source = formats.template_text(name) if name in formats.BUNDLED else SNIPPETS[name]
    program = _Compiler(parse_template(source), gen=True, tree=False).source
    assert hashlib.sha256(program.encode()).hexdigest()[:16] == LEAN_SOURCE[name]


LEAN_PARSE_SOURCE = {
    'mini': '6bc3953946262eed',
    'pnglite': '29a56f1f45a3a0af',
    'magic16': 'd21f19843ba0ab40',
    'hex': 'df1d7f463ee07975',
    'float': '1dacc02786906b05',
    'char': '96733810bc293671',
    'string': '9fe62e3ca666abc2',
    'comments': 'e10053c8dc32c302',
    'positions': '8d05674e1ab6d4cf',
    'operators': '693d9c9cf85c4f24',
    'statements': '24428777486a6988',
    'switch': 'a60745ec06999be6',
    'for': 'edb22b572d77a99a',
    'attributes': '62be63bf4b3129a8',
    'magic': '473dd95a08614e72',
}


@pytest.mark.parametrize("name", LEAN_PARSE_SOURCE)
def test_lean_parse_program_source_is_pinned(name):
    source = formats.template_text(name) if name in formats.BUNDLED else SNIPPETS[name]
    program = _Compiler(parse_template(source), gen=False, tree=False).source
    assert hashlib.sha256(program.encode()).hexdigest()[:16] == LEAN_PARSE_SOURCE[name]


# What each bundled template leaves in a frame dict (fr[...]) rather than a
# Python local, in all four programs: nothing, so none of them reads or
# stores a template name by string, or sets up the frame local fr.
IN_FRAME = {"mini": set(), "pnglite": set(), "magic16": set()}


@pytest.mark.parametrize("name", formats.BUNDLED)
def test_only_what_dynamic_scope_reaches_stays_in_the_frame(name):
    unit = parse_template(formats.template_text(name))
    for gen in (True, False):
        for tree in (True, False):
            source = _Compiler(unit, gen=gen, tree=tree).source
            assert set(re.findall(r"fr\['(\w+)'\] = ", source)) == IN_FRAME[name]
            assert not [by for by in ("fr[", "_read_var(", "_assign_var(") if by in source]
            for function in source.split("\ndef "):  # a frame local only where it stores
                assert "fr[" in function or not re.search(r"\bfr\b", function)


ERRORS = {
    "unterminated comment": ("ubyte a;\n /* x", TemplateSyntaxError),
    "unterminated string at end": ('local string s = "ab', TemplateSyntaxError),
    "unterminated string at newline": ('local string s = "ab\n";', TemplateSyntaxError),
    "unterminated string escape": ('local string s = "ab\\', TemplateSyntaxError),
    "unterminated char": ("local int c = '", TemplateSyntaxError),
    "char of two characters": ("local int c = 'ab';", TemplateSyntaxError),
    "char without its close": ("local int c = 'a", TemplateSyntaxError),
    "malformed hex": ("local int a = 0x;", TemplateSyntaxError),
    "malformed hex letter": ("local int a = 0xg1;", TemplateSyntaxError),
    "short string hex escape": ('local string s = "\\x1";', TemplateSyntaxError),
    "bad string hex escape": ('local string s = "\\xg1";', TemplateSyntaxError),
    "unknown string escape": ('local string s = "\\q";', TemplateSyntaxError),
    "unknown char escape": ("local int c = '\\q';", TemplateSyntaxError),
    "string character out of range": ('local string s = "ā";', TemplateSyntaxError),
    "char out of range": ("local int c = 'ā';", TemplateSyntaxError),
    "unexpected character": ("ubyte a;\n  @", TemplateSyntaxError),
    "unexpected dollar": ("local int $a;", TemplateSyntaxError),
    "expected semicolon": ("ubyte x\nubyte y;", TemplateSyntaxError),
    "expected name at end": ("ubyte", TemplateSyntaxError),
    "expected paren": ("if x", TemplateSyntaxError),
    "duplicate type": ("typedef ubyte A;\ntypedef uint16 A;", TemplateSyntaxError),
    "duplicate struct": ("struct S { ubyte a; };\n  typedef struct { } S;", TemplateSyntaxError),
    "duplicate function": ("void f() { }\n void f() { }", TemplateSyntaxError),
    "local in for header": ("for (local int i = 0; ; ) break;", TemplateSyntaxError),
    "empty enum": ("typedef enum { } E;", TemplateSyntaxError),
    "enum value not constant": ("typedef enum { A = B } E;", TemplateSyntaxError),
    "unexpected keyword": ("local int a;\n else a = 1;", TemplateSyntaxError),
    "assignment target": ("local int a; 1 = a;", TemplateSyntaxError),
    "call of non-name": ("local int a; a.b(1);", TemplateSyntaxError),
    "unexpected token": ("local int a = );", TemplateSyntaxError),
    "input init without braces": ("ubyte a = 1;", TemplateSyntaxError),
    "switch without case": ("switch (1) { ubyte a; }", TemplateSyntaxError),
    "unknown type": ("frob x;", ResolveError),
    "unknown function": ("local int a = frob(1);", ResolveError),
    "record arity": ("typedef struct (int n) { } R;\nR r;", ArityError),
    "builtin arity": ("FTell(1);", ArityError),
    "type shadows a native type": ("typedef ubyte int;", ResolveError),
    "type and function": ("typedef ubyte f;\nint f() { return 1; }", ResolveError),
    "alias cycle": ("typedef A B;\ntypedef B A;\nB x;", ResolveError),
    "native type with arguments": ("ubyte x(3);", ArityError),
    "function arity": ("int f(int a) { return a; }\nlocal int v = f();", ArityError),
}

EXPECTED_ERRORS = {
    'unterminated comment': ('TemplateSyntaxError', '2:6: unterminated block comment'),
    'unterminated string at end': ('TemplateSyntaxError', '1:21: unterminated string literal'),
    'unterminated string at newline': ('TemplateSyntaxError', '1:21: unterminated string literal'),
    'unterminated string escape': ('TemplateSyntaxError', '1:22: unterminated string escape'),
    'unterminated char': ('TemplateSyntaxError', '1:16: unterminated char literal'),
    'char of two characters': ('TemplateSyntaxError', '1:17: unterminated char literal'),
    'char without its close': ('TemplateSyntaxError', '1:17: unterminated char literal'),
    'malformed hex': ('TemplateSyntaxError', '1:15: malformed hex literal'),
    'malformed hex letter': ('TemplateSyntaxError', '1:15: malformed hex literal'),
    'short string hex escape': ('TemplateSyntaxError', '1:21: malformed \\x escape'),
    'bad string hex escape': ('TemplateSyntaxError', '1:21: malformed \\x escape'),
    'unknown string escape': ('TemplateSyntaxError', '1:20: unknown escape \\q'),
    'unknown char escape': ('TemplateSyntaxError', '1:17: unknown escape \\q'),
    'string character out of range':
        ('TemplateSyntaxError', '1:19: string literals are byte strings; character out of range'),
    'char out of range': ('TemplateSyntaxError', '1:16: char literal out of byte range'),
    'unexpected character': ('TemplateSyntaxError', "2:3: unexpected character '@'"),
    'unexpected dollar': ('TemplateSyntaxError', "1:11: unexpected character '$'"),
    'expected semicolon': ('TemplateSyntaxError', "2:1: expected ';', found 'ubyte'"),
    'expected name at end': ('TemplateSyntaxError', "1:6: expected ';', found None"),
    'expected paren': ('TemplateSyntaxError', "1:4: expected '(', found 'x'"),
    'duplicate type': ('TemplateSyntaxError', "2:1: duplicate type 'A'"),
    'duplicate struct': ('TemplateSyntaxError', "2:3: duplicate type 'S'"),
    'duplicate function': ('TemplateSyntaxError', "2:2: duplicate function 'f'"),
    'local in for header':
        ('TemplateSyntaxError', '1:6: local declarations are not allowed in for-headers'),
    'empty enum': ('TemplateSyntaxError', '1:18: enum value list must be non-empty'),
    'enum value not constant': ('TemplateSyntaxError', '1:20: expected integer constant'),
    'unexpected keyword': ('TemplateSyntaxError', "2:2: unexpected keyword 'else'"),
    'assignment target':
        ('TemplateSyntaxError', '1:16: assignment target must be a variable, field, or element'),
    'call of non-name': ('TemplateSyntaxError', '1:17: only named functions can be called'),
    'unexpected token': ('TemplateSyntaxError', "1:15: unexpected token ')'"),
    'input init without braces':
        ('TemplateSyntaxError', '1:11: input declarations take brace-enclosed init lists'),
    'switch without case': ('TemplateSyntaxError', "1:14: expected 'case' or 'default'"),
    'unknown type': ('ResolveError', "1:1: unknown type 'frob'"),
    'unknown function': ('ResolveError', "unknown function 'frob'"),
    'record arity': ('ArityError', "2:1: record 'R' takes 1 argument(s), got 0"),
    'builtin arity': ('ArityError', 'FTell takes 0 argument(s), got 1'),
    'type shadows a native type': ('ResolveError', "type 'int' shadows a native type"),
    'type and function': ('ResolveError', "'f' defined as both type and function"),
    'alias cycle': ('ResolveError', "1:1: alias cycle through 'A'"),
    'native type with arguments': ('ArityError', "1:1: type 'ubyte' takes no arguments"),
    'function arity': ('ArityError', 'f takes 1 argument(s), got 0'),
}


@pytest.mark.parametrize("name", ERRORS)
def test_front_end_error_is_pinned(name):
    source, error = ERRORS[name]
    with pytest.raises(error) as info:
        parse_template(source)
    assert (type(info.value).__name__, str(info.value)) == EXPECTED_ERRORS[name]
