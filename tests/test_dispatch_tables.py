"""The compiler's rule tables agree with the analyzer and the AST.

The analyzer resolves builtin calls against `analysis.BUILTINS` and the
engine runs them with `engine._BUILTINS`; a name in one table only
would either be rejected at load time or fail mid-run.  Likewise every
statement and expression node the parser can build needs a compile rule,
and every statement that holds statements needs a block in scoping()'s
walk.
"""

from btfuzz import engine
from btfuzz.templatelang import analysis
from btfuzz.templatelang import nodes as ast


def _concrete(base: type) -> set[type]:
    found = set()
    pending = [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            found.add(sub)
            pending.append(sub)
    return {cls for cls in found if not cls.__subclasses__()}


def test_builtin_tables_agree():
    assert set(analysis.BUILTINS) == set(engine._BUILTINS)


def test_every_statement_node_has_a_handler():
    stmts = _concrete(ast.Stmt)
    assert stmts and stmts == set(engine._STMT_RULES)


def test_every_expression_node_has_a_handler():
    exprs = _concrete(ast.Expr)
    assert exprs and exprs == set(engine._EXPR_RULES)


def test_scoping_opens_a_block_for_every_statement_that_holds_statements():
    # any other would take the walk's generic branch, which misses the uses in it
    holders = {cls for cls in _concrete(ast.Stmt) if analysis._STMT_FIELDS[cls]}
    assert holders == {ast.If, ast.While, ast.Switch}
