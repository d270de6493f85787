import pytest

from qgrass.harness import CHECKS, InfeasibleScopeError, run_check


def test_every_check_id_has_metadata():
    for cid, (fn, statement, envelope) in CHECKS.items():
        assert callable(fn) and statement and envelope


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        run_check("no-such-id", 2, 4, 2)


def test_infeasible_scope_reports_envelope():
    with pytest.raises(InfeasibleScopeError) as exc:
        run_check("thm-1.3.1", 2, 4, 1)
    assert "(q, n) = (2, 3)" in str(exc.value)


def test_seeded_checks_deterministic():
    a = run_check("prop-3.2.1", 2, 4, 2, seed=5)
    b = run_check("prop-3.2.1", 2, 4, 2, seed=5)
    assert (a.passed, a.scope, a.details) == (b.passed, b.scope, b.details)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_line_degree_check_envelope(n):
    # G_1 of F_2^0 is empty and G_1 of F_2^1 has one system, so the
    # statement only has content from n = 2
    with pytest.raises(InfeasibleScopeError) as exc:
        run_check("thm-2.2.2", 2, n, 1)
    assert "2 <= n <= 4" in str(exc.value)
