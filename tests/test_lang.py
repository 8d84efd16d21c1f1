"""Template language: lexer, parser, static analysis."""

import pytest

from btfuzz.errors import ResolveError, TemplateSyntaxError
from btfuzz.templatelang import (
    Assign,
    Binary,
    Break,
    ExprStmt,
    Ident,
    If,
    InputDecl,
    IntLit,
    Postfix,
    StrLit,
    TokenKind,
    While,
    parse_template,
    tokenize,
)
from btfuzz.templatelang.parser import Parser


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
    cond = unit.toplevel[1].arms[0].match
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
    assert [arm.body[0].name for arm in stmt.arms] == ["data", "other"]
    assert stmt.arms[1].match is None


def test_for_and_bare_blocks_lower_to_their_statements():
    # for is its init, then a While whose body ends in the step; a bare
    # block's statements join the list around it
    unit = parse_template("""
        local int i;
        for (i = 0; i < 2; i++) { ubyte a; }
        { ubyte b; { ubyte c; } }
        for (;;) break;
    """)
    _, init, loop, b, c, forever = unit.toplevel
    assert isinstance(init, Assign) and init.target == Ident("i")
    assert isinstance(loop, While) and loop.cond == Binary("<", Ident("i"), IntLit(2))
    assert [type(s) for s in loop.body] == [InputDecl, ExprStmt]
    assert loop.body[1].expr == Postfix("++", Ident("i"))
    assert [b.name, c.name] == ["b", "c"]
    assert isinstance(forever, While) and forever.cond is None
    assert [type(s) for s in forever.body] == [Break]


def test_else_if_chain_is_one_if():
    parser = Parser("ubyte a; if (a == 1) ubyte b; else if (a == 2) ubyte c; else ubyte d;")
    unit = parser.parse_unit()
    (stmt,) = unit.toplevel[1:]
    assert [arm.match for arm in stmt.arms] == [Binary("==", Ident("a"), IntLit(1)),
                                                Binary("==", Ident("a"), IntLit(2)), None]
    assert [arm.body[0].name for arm in stmt.arms] == ["b", "c", "d"]
    assert parser.arms == 0


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


@pytest.mark.parametrize("source, where", [
    ("local int c = '\\xzz';", (1, 18)),  # not hex digits
    ("local int c = '\\", (1, 17)),  # the input ends inside the escape
    ("local int a = \u00b2;", (1, 15)),  # a digit to str.isdigit, not to int()
], ids=["char-hex-escape", "char-escape-at-end", "superscript-two"])
def test_malformed_literals_are_syntax_errors(source, where):
    with pytest.raises(TemplateSyntaxError) as info:
        parse_template(source)
    assert (info.value.line, info.value.col) == where


def test_identifiers_and_numbers_are_ascii():
    with pytest.raises(TemplateSyntaxError, match="1:11: unexpected character 'é'"):
        parse_template("local int é = 1;")
    with pytest.raises(TemplateSyntaxError, match="integer literal too long"):
        parse_template("local int a = " + "9" * 5000 + ";")
