"""Release gate: one test per registered acceptance criterion.

The criteria live in ``suites.CRITERIA``, the same registry the CLI gate runs;
this module adds the wall-clock budgets of the slow criteria, a sweep of
the tolerance, and the check that the sample rows of criteria 03, 04 and 10
are the draws of their seeds.
"""

import time

import pytest
from oracles import draw_samples

from crosscontact import compactform, suites

TIME_BOUNDS_S = {
    suites.criterion_01_table1_reproduction: 30.0,
    suites.criterion_02_algebra_integrity: 60.0,
    suites.criterion_06_main_theorem_matrix: 120.0,
}


def _criterion_test(criterion):
    def test():
        start = time.perf_counter()
        check = criterion(compactform.DEFAULT_TOL, 5)
        elapsed = time.perf_counter() - start
        assert check.passed, check
        assert elapsed < TIME_BOUNDS_S.get(criterion, float("inf"))

    test.__doc__ = criterion.__doc__
    return test


# one named test per criterion, e.g. test_criterion_03_u_closed_forms
for _criterion in suites.CRITERIA:
    globals()[f"test_{_criterion.__name__}"] = _criterion_test(_criterion)


def test_acceptance_gate_report_all_pass():
    """The packaged release gate reports 10/10 criteria passing."""
    rep = suites.acceptance_report(compactform.DEFAULT_TOL)
    assert rep.passed, rep.to_text()
    assert rep.summary() == {"total": 10, "passed": 10, "failed": 0}


@pytest.mark.parametrize("threshold", [1e-11, 1e-9, 1e-7])
def test_gate_holds_across_tolerances(threshold):
    """Every gate verdict holds for any --tol from 1e-11 to 1e-7."""
    rep = suites.acceptance_report(compactform.ToleranceConfig(threshold))
    assert rep.config["tol"] == threshold
    assert rep.summary() == {"total": 10, "passed": 10, "failed": 0}, rep.to_text()


def test_samples_file_equals_the_seeded_draws():
    """samples.json holds exactly the rows that seeds 7, 21 and 30 draw: the
    same row counts and lengths, every float equal and every flag a bool."""
    frozen, drawn = suites.samples(), draw_samples()
    assert set(frozen) == {"about", *drawn}
    assert [len(drawn[k]) for k in ("criterion_03", "criterion_04", "criterion_10")] == [
        100, 60, 30]
    for key, rows in drawn.items():
        assert len(frozen[key]) == len(rows), key
        for got, want in zip(frozen[key], rows):
            assert got == want, key
            assert [type(v) for v in got] == [type(v) for v in want], key
