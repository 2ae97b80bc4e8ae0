"""Command-line interface: exit codes, report formats, the benchmark's child process."""

import functools
import importlib.util
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from oracles import CAYLEY_PARAMS

from crosscontact import cli
from crosscontact.report import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "run", "--space", "cp", "--n", "2",
                           "--suite", "table1")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "checks passed" in out


def test_run_all_suites_sphere(capsys):
    code, out, _ = run_cli(capsys, "run", "--space", "sphere", "--n", "3",
                           "--radius", "0.5", "--kappa", "2.0", "--grid", "3")
    assert code == 0
    assert "[FAIL]" not in out


def test_json_output_schema_keys(capsys):
    code, out, _ = run_cli(capsys, "run", "--space", "hp", "--n", "1",
                           "--suite", "tashiro", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"config", "checks", "summary", "wall_time"}
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == len(data["checks"])
    for check in data["checks"]:
        assert set(check) == {"name", "claim_ref", "passed", "residual", "details"}
        assert check["passed"] is True
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)


def test_json_output_deterministic(capsys):
    argv = ("run", "--space", "cp", "--n", "2", "--suite", "metrics",
            "--format", "json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time"), d2.pop("wall_time")
    assert d1 == d2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "--space", "cayley",
                           "--suite", "table1", "--format", "json",
                           "--output", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["summary"]["failed"] == 0


def test_unwritable_output_exits_two(tmp_path, capsys):
    """A report that cannot be written is a usage error, not a failed check."""
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "run", "--space", "sphere", "--n", "2",
                             "--suite", "table1", "--output", str(path))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert not path.exists()


def test_acceptance_gate(capsys):
    code, out, _ = run_cli(capsys, "acceptance", "--grid", "3")
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "10/10 checks passed" in out


def test_usage_errors(capsys):
    assert run_cli(capsys, "run")[0] == 2  # missing --space
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2
    code, _, err = run_cli(capsys, "run", "--space", "cp", "--n", "1")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "run", "--space", "cp", "--radius", "-1")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "run", "--space", "cp", "--tol", "-1e-9")
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--tol", "inf"), ("--tol", "nan"),
                                        ("--radius", "nan"), ("--radius", "inf"),
                                        ("--kappa", "nan"), ("--kappa", "inf")])
def test_non_finite_inputs_rejected(capsys, flag, value):
    """inf and nan are usage errors, never a vacuous pass or a failed check."""
    code, out, err = run_cli(capsys, "run", "--space", "cp", "--suite", "sasakian",
                             flag, value)
    assert code == 2 and "error:" in err and out == ""


def test_failing_check_exits_one(capsys, monkeypatch):
    """A report containing a failed check drives exit status 1."""
    def fake_acceptance(tol, grid=5):
        report = VerificationReport(config={})
        report.add("forced-failure", "synthetic", False, residual=1.0)
        return report.finalize()
    monkeypatch.setattr(cli, "acceptance_report", fake_acceptance)
    code, out, _ = run_cli(capsys, "acceptance")
    assert code == 1
    assert "[FAIL] forced-failure" in out


def test_space_too_large_exits_two(capsys, monkeypatch):
    """A space whose arrays do not fit in memory is a usage error, not a failed check."""
    from crosscontact import crossmodel

    def out_of_memory(space):
        raise MemoryError(f"Unable to allocate the frame of {space.label()}")

    monkeypatch.setattr(crossmodel, "build_frame", out_of_memory)
    code, out, err = run_cli(capsys, "run", "--space", "cp", "--n", "1000000",
                             "--suite", "table1")
    assert code == 2 and out == ""
    assert err.startswith("error: too large") and "cp1000000" in err
    assert "Traceback" not in err


def test_refresh_fixtures_up_to_date(capsys):
    code, out, _ = run_cli(capsys, "run", "--space", "cp", "--n", "2",
                           "--refresh-fixtures")
    assert code == 0
    assert "fixtures up to date" in out


def test_refresh_fixtures_reports_a_nan(capsys, monkeypatch):
    """A recomputed NaN is a diff, not "up to date"."""
    from crosscontact import fixtures
    fresh = fixtures.compute_fixtures()
    key = sorted(fresh)[0]
    monkeypatch.setattr(fixtures, "compute_fixtures", lambda: {**fresh, key: float("nan")})
    code, out, _ = run_cli(capsys, "run", "--space", "cp", "--refresh-fixtures")
    assert code == 1
    assert out.startswith(f"{key}: frozen=") and "recomputed=nan" in out
    assert "up to date" not in out


def test_report_text_format():
    report = VerificationReport(config={})
    report.add("b-check", "ref", True, residual=1e-12)
    report.add("a-check", "ref", False)
    report.finalize()
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("[FAIL] a-check")
    assert lines[1].startswith("[PASS] b-check")
    assert "1/2 checks passed" in lines[-1]
    assert not report.passed


def test_report_roundtrip():
    report = VerificationReport(config={"x": 1})
    report.add("only", "ref", True, residual=0.5, details="d")
    report.finalize()
    data = json.loads(report.to_json())
    assert data["checks"][0]["residual"] == 0.5
    assert data["config"] == {"x": 1}


def test_reports_match_the_schema(tmp_path):
    """The gate, a run of every suite and a report with a failing check all
    validate against the packaged report schema."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(resources.files("crosscontact").joinpath("report.schema.json")
                        .read_text())
    failing = VerificationReport(config={"command": "run"})
    failing.add("forced-failure", "synthetic", False, residual=1.0)
    failing.add("no-residual", "synthetic", True)
    reports = [json.loads(failing.finalize().to_json())]
    for argv in (["acceptance", "--grid", "3"],
                 ["run", "--space", "hp", "--n", "1", "--suite", "all"]):
        out = tmp_path / "report.json"
        assert cli.main(argv + ["--format", "json", "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["summary"]["failed"] == 1
    for report in reports:
        jsonschema.validate(report, schema)


def test_gate_and_cayley_leave_numpy_ma_unimported():
    """np.unique imports numpy.ma, about 1 MB of peak RSS; no verdict needs it.
    Neither command draws random numbers (the metrics suite samples a fixed
    tuple of metrics, and the gate reads its sample rows from samples.json),
    so both also skip the numpy.random import."""
    code = ("import contextlib, io, sys\n"
            "from crosscontact import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['run', '--space', 'cayley', '--suite', 'all']) == 0\n"
            "    assert 'numpy.random' not in sys.modules\n"
            "    assert cli.main(['acceptance', '--grid', '5']) == 0\n"
            "    assert 'numpy.random' not in sys.modules\n"
            "print('numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_commands_match_reference(tmp_path, capsys):
    """Every command keyed in perfbench/reference.json exits 0 with the sorted
    [name, passed, details] it pins, so an added, renamed or dropped check fails here."""
    reference = json.loads((Path(__file__).resolve().parent.parent
                            / "perfbench" / "reference.json").read_text())
    assert len(reference) == 32
    out = tmp_path / "report.json"
    for key, want in reference.items():
        assert cli.main(key.split() + ["--format", "json", "--output", str(out)]) == 0, key
        checks = json.loads(out.read_text())["checks"]
        assert sorted([c["name"], c["passed"], c["details"]] for c in checks) == want, key
    capsys.readouterr()


@pytest.mark.parametrize("space", [("cp", "2"), ("hp", "1"), ("cayley", "2")],
                         ids=lambda s: s[0])
def test_reports_do_not_depend_on_radius(tmp_path, capsys, space):
    """At every (r, kappa) of the benchmark's cayley workload, run --suite all
    reports what it reports at (1, kappa), apart from the r= in check names,
    config.radius and wall_time: no verdict, residual or detail reads r."""
    out = tmp_path / "report.json"

    def report(r, kappa):
        argv = ["run", "--space", space[0], "--n", space[1], "--suite", "all",
                "--radius", repr(r), "--kappa", repr(kappa),
                "--format", "json", "--output", str(out)]
        assert cli.main(argv) == 0, argv
        data = json.loads(out.read_text())
        del data["wall_time"], data["config"]["radius"]
        for check in data["checks"]:
            check["name"] = check["name"].replace(f"/r={r}/", "/r=*/")
        return data

    for r, kappa in CAYLEY_PARAMS:
        assert report(r, kappa) == report(1.0, kappa), (r, kappa)
    capsys.readouterr()


def test_traced_runs_report_as_untraced(tmp_path, monkeypatch):
    """The benchmark's tracer (perfbench/tracer.py) wraps every layer function and
    puts each back; a traced run reports what an untraced one does, apart from
    wall_time, and its span self-times add up to its wall time within 1 %. The
    traced CaP2 run gives the checks of perfbench/reference.json, the
    uniqueness details string among them."""
    from crosscontact import crossmodel
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    cayley = ["run", "--space", "cayley", "--suite", "all", "--radius", "0.45", "--kappa", "1.2"]
    argvs = [["run", "--space", "hp", "--n", "2", "--suite", "brackets"],
             ["run", "--space", "cp", "--n", "2", "--suite", "all"], cayley]

    def run_all():
        """Reports without wall_time and the seconds spent in cli.main."""
        # an empty frame cache, so that each pass builds its frames
        monkeypatch.setattr(crossmodel, "build_frame",
                            functools.cache(crossmodel.build_frame.__wrapped__))
        reports, seconds = [], 0.0
        for argv in argvs:
            out = tmp_path / "report.json"
            t0 = time.perf_counter()
            code = cli.main(argv + ["--format", "json", "--output", str(out)])
            seconds += time.perf_counter() - t0
            assert code == 0, argv
            reports.append({k: v for k, v in json.loads(out.read_text()).items()
                            if k != "wall_time"})
        return reports, seconds

    plain, _ = run_all()
    tracer = tracer_module.Tracer()
    assert tracer.install() > 0
    try:
        traced, seconds = run_all()
    finally:
        restored = tracer.uninstall()
    assert restored
    spans = tracer.summary()["spans"]
    assert spans["crossmodel.restricted_frame"]["calls"] == 3  # hp2, cp2 and CaP2
    # perfbench's rootsys.build_ms sums these three spans: none may call another
    # traced function, or its time would count twice
    for stage in ("generate_positive_roots", "killing_gram", "assign_structure_constants"):
        span = spans[f"rootsys.{stage}"]
        assert span["calls"] == 3 and span["incl_s"] == span["self_s"], stage
    self_s = sum(span["self_s"] for span in spans.values())
    assert abs(self_s - seconds) <= 0.01 * seconds
    assert traced == plain
    reference = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                            / "reference.json").read_text())
    assert sorted([c["name"], c["passed"], c["details"]] for c in traced[2]["checks"]) == \
        reference[" ".join(cayley)]


def test_benchmark_child_process_runs(tmp_path):
    """perfbench/child.py, the process the benchmark starts, run from the repo root
    as the benchmark runs it: the probe builds the pair of its space without a
    raise, and a traced run exits 0, puts every wrapped function back and
    writes its report."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    run_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_module)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cpu = str(sorted(os.sched_getaffinity(0))[0])
    report = tmp_path / "report.json"
    argv = ["run", "--space", "cp", "--n", "2", "--suite", "table1",
            "--format", "json", "--output", str(report)]
    results = []
    for k, child_spec in enumerate(({"probe": run_module.PROBE},
                                    {"argvs": [argv], "trace": True})):
        spec_path, result_path = tmp_path / f"spec{k}.json", tmp_path / f"result{k}.json"
        spec_path.write_text(json.dumps(child_spec))
        proc = subprocess.run([sys.executable, "perfbench/child.py", str(spec_path),
                               str(result_path), cpu],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(result_path.read_text()))
    probe, traced = results
    assert probe["rc"] == 0 and probe["exception"] is None
    assert [(c["rc"], c["raised"]) for c in traced["calls"]] == [(0, None)]
    assert traced["trace"]["restored"]
    assert json.loads(report.read_text())["checks"]
