import ast
import inspect
import textwrap

from g2cubics import verify
from g2cubics.packets import Derived
from g2cubics.sheaves import TABLES, SimpleObject

TAMPERED = Derived(TABLES.with_flipped_evs(SimpleObject.IC1_C1, 1))


def _failed(scope):
    return {r.name for r in verify.run_checks(scope, TAMPERED) if not r.passed}


def test_tampered_evs_fail_the_nevs_checks():
    assert _failed("sheaves") == {"nevs-derivation", "nevs-diagonal"}


def test_tampered_evs_fail_every_packet_check_that_reads_the_tables():
    scope = {name for name, s, _ in verify.CHECKS if s == "packets"}
    assert _failed("packets") == scope - {"aubert-involution", "character-orthogonality"}


def test_tampered_evs_reach_wrapped_checks():
    # a tracer may swap each check for a *args wrapper; the derived facts
    # must still reach the checks that declare them
    def wrap(fn):
        return lambda *args, **kwargs: fn(*args, **kwargs)

    plain = list(verify.CHECKS)
    verify.CHECKS[:] = [(name, s, wrap(fn)) for name, s, fn in plain]
    try:
        assert _failed("sheaves") == {"nevs-derivation", "nevs-diagonal"}
    finally:
        verify.CHECKS[:] = plain


def test_every_table_check_reads_its_tables():
    # a check that declares `derived` but never reads it runs under the table
    # checks although no change to the tables can reach it
    def reads_tables(fn):
        body = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0].body
        return any(
            isinstance(node, ast.Name) and node.id == "derived"
            for statement in body
            for node in ast.walk(statement)
        )

    plain = {name: fn for name, _, fn in verify.CHECKS}
    assert sorted(n for n in verify._TABLE_CHECKS if not reads_tables(plain[n])) == []
    assert len(verify._TABLE_CHECKS) == 19
