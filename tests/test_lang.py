"""Template language: lexer, parser, static analysis."""

import pytest

from btfuzz.errors import ResolveError, TemplateSyntaxError
from btfuzz.templatelang import (
    Binary,
    Ident,
    If,
    IntLit,
    StrLit,
    TokenKind,
    parse_template,
    tokenize,
)


def test_tokenize_literals():
    toks = tokenize('0x1A 42 "ab\\n" \'A\' foo')
    kinds = [t.kind for t in toks]
    assert kinds == [TokenKind.INT, TokenKind.INT, TokenKind.STRING,
                     TokenKind.CHAR, TokenKind.IDENT, TokenKind.EOF]
    assert toks[0].value == 0x1A
    assert toks[2].value == b"ab\n"
    assert toks[3].value == 0x41


def test_tokenize_tracks_position():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_comments_ignored():
    unit = parse_template("// line\n/* block\nstill */ ubyte x;")
    assert len(unit.toplevel) == 1


def test_parse_record_typedef_with_params():
    unit = parse_template("""
        typedef struct (int32 n) {
            ubyte body[n];
        } CHUNK;
        CHUNK c(4);
    """)
    td = unit.typedefs["CHUNK"]
    assert td.kind == "record"
    assert td.params == [("n", "int32")]


def test_parse_enum_with_underlying_type():
    unit = parse_template("""
        typedef enum <ubyte> { Red = 1, Blue = 4 } COLOR;
        COLOR c;
    """)
    td = unit.typedefs["COLOR"]
    assert td.kind == "enum"
    assert td.underlying == "ubyte"
    assert [(m.name, m.value) for m in td.members] == [("Red", 1), ("Blue", 4)]


def test_attr_bounds_close_without_consuming_gt():
    # the closing '>' of an attribute list must not parse as a comparison
    unit = parse_template("uint16 length <min=1, max=16>;")
    decl = unit.toplevel[0]
    assert decl.attrs["min"].value == 1
    assert decl.attrs["max"].value == 16


def test_comparison_still_parses_in_expressions():
    unit = parse_template("local int x = 3; if (x < 4) { x = 5; }")
    cond = unit.toplevel[1].cond
    assert isinstance(cond, Binary) and cond.op == "<"


def test_init_list_and_attrs_together():
    unit = parse_template("ubyte b = { 1, 2, 3 } <min=0, max=9>;")
    decl = unit.toplevel[0]
    assert [e.value for e in decl.init_list] == [1, 2, 3]
    assert set(decl.attrs) == {"min", "max"}


def test_braceless_if_body_may_declare():
    unit = parse_template("""
        local int flag = 1;
        if (flag)
            ubyte data[2];
        else
            ubyte other;
    """)
    stmt = unit.toplevel[1]
    assert isinstance(stmt, If)
    assert stmt.then[0].name == "data"
    assert stmt.other[0].name == "other"


def test_magic_mining_both_operand_orders():
    unit = parse_template("""
        uint16 x;
        char tag[2];
        if (x != 0xABCD) { return -1; }
        if ("hi" == tag) { return 1; }
    """)
    assert unit.magic[("x", None)] == [0xABCD]
    assert unit.magic[("tag", None)] == [b"hi"]


def test_magic_mining_indexed_element():
    unit = parse_template("ubyte sig[2]; if (sig[0] != 0x89) { return -1; }")
    assert unit.magic[("sig", 0)] == [0x89]


def test_declarations_numbered_in_order():
    unit = parse_template("""
        typedef struct { ubyte a; ubyte b; } P;
        P p;
        uint32 tail;
    """)
    ids = [d.decl_id for d in unit.declarations]
    assert ids == list(range(len(ids)))
    assert {d.name for d in unit.declarations} == {"a", "b", "p", "tail"}


def test_syntax_error_reports_position():
    with pytest.raises(TemplateSyntaxError) as err:
        parse_template("ubyte x\nubyte y;")
    assert "2:" in str(err.value)


def test_unknown_type_rejected():
    with pytest.raises(ResolveError):
        parse_template("frob x;")


def test_local_string_array_redeclaration_parses():
    unit = parse_template("""
        local string names[1];
        names += "a";
        names -= "a";
        local string names[0];
    """)
    assert len(unit.toplevel) == 4
