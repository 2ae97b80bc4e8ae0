"""Benchmark of the crosscontact CLI: cold verdicts end to end, per-layer spans traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gate|cayley|ladder --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Every timed run starts fresh child processes that call the public entry
``crosscontact.cli.main`` the way the ``crosscontact`` command does, in rounds
of one child per CPU, for about ``--seconds`` seconds, and reports medians
over the children. With ``--trace 1`` each round pairs an untraced child with
a traced one, and the run reports the per-layer metrics of the traced ones.
Each child's report is checked against ``reference.json``. The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

BLAS_THREADS = 1  # at most nproc; one thread was both faster and steadier here
# One child per CPU, each pinned, at most two at once. The speed of each vCPU
# of a shared 2-CPU VM drifts by up to 40 % on its own, for seconds to
# minutes; sampling both in every round halves that drift in the medians.
CPUS = sorted(os.sched_getaffinity(0))[:2]
MIN_ROUNDS = 2
DEADLINE_S = 170.0  # a run must end within 180 s
HEADROOM_CAP = 16.0  # decades reported for a residual of exactly zero

# Seeds pick cayley's (radius, kappa); each pair has its own reference report.
CAYLEY_PARAMS = ((0.37, 2.3), (1.7, 0.6), (0.8, 1.9), (1.25, 0.75),
                 (0.6, 0.45), (2.0, 3.0), (1.0, 1.5), (0.45, 1.2))
LADDER_RUNGS = ([("sphere", n) for n in range(2, 10)]
                + [("rp", n) for n in range(2, 7)]
                + [("cp", n) for n in range(2, 7)]
                + [("hp", n) for n in range(1, 5)]
                + [("cayley", 2)])
# build_pair picks m by label prefix "A1", which also matches A1011 in so(11)
PROBE = ["run", "--space", "sphere", "--n", "10", "--suite", "brackets"]
PROBE_EXPECTED = (2, "ModelError: dim m = 11, expected 10")

SEED_USE = {
    "gate": "none: the gate's inputs and its internal RNG seeds are fixed "
            "points of the release gate",
    "ladder": "none: the rungs are the fixed construction ladder S^2..CaP2",
}


def workload_argvs(workload: str, seed: int) -> list[list[str]]:
    if workload == "gate":
        return [["acceptance", "--grid", "5"]]
    if workload == "cayley":
        r, kappa = CAYLEY_PARAMS[seed % len(CAYLEY_PARAMS)]
        return [["run", "--space", "cayley", "--suite", "all",
                 "--radius", str(r), "--kappa", str(kappa)]]
    if workload == "ladder":
        return [["run", "--space", fam, "--n", str(n), "--suite", "brackets"]
                for fam, n in LADDER_RUNGS]
    raise SystemExit(f"unknown workload {workload!r}")


def seed_use(workload: str, seed: int) -> str:
    if workload == "cayley":
        r, kappa = CAYLEY_PARAMS[seed % len(CAYLEY_PARAMS)]
        return f"picks (radius, kappa) = ({r}, {kappa})"
    return SEED_USE[workload]


# --- child processes -------------------------------------------------------

class Children:
    """Starts child processes, each pinned to one CPU, inside a scratch directory."""

    def __init__(self, scratch: Path, deadline: float) -> None:
        self.scratch = scratch
        self.deadline = deadline
        self._ids = itertools.count(1)
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))
        self.env.pop("CROSS_TOL", None)

    def run(self, spec: dict, cpu: int) -> dict:
        """Run one child pinned to ``cpu``; return its result with set-up time."""
        tag = self.scratch / f"child{next(self._ids)}"
        spec = dict(spec)
        if "argvs" in spec:
            spec["outputs"] = [f"{tag}-{i}.json" for i in range(len(spec["argvs"]))]
            spec["argvs"] = [argv + ["--format", "json", "--output", out]
                             for argv, out in zip(spec["argvs"], spec["outputs"])]
        Path(f"{tag}-spec.json").write_text(json.dumps(spec))
        result_path = Path(f"{tag}-result.json")
        timeout = max(1.0, self.deadline - time.monotonic())
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), f"{tag}-spec.json",
                 str(result_path), str(cpu)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
            error = None if proc.returncode == 0 else \
                f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        except subprocess.TimeoutExpired:  # run() kills and reaps the child
            error = f"child timed out after {timeout:.0f} s"
        if error is not None or not result_path.is_file():
            return {"error": error or "child wrote no result", "spec": spec}
        out = json.loads(result_path.read_text())
        out.update(spec=spec, setup_s=out["setup_done"] - started)
        return out


def load_report(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def report_checks(report: dict) -> dict[str, list]:
    return {c["name"]: [c["name"], c["passed"], c["details"]] for c in report["checks"]}


def child_outcome(child: dict, reference: dict) -> dict:
    """Checks attempted, failed and mismatched against the reference for one child."""
    attempted = failed = mismatched = 0
    headrooms, reports = [], []
    errors = [child["error"]] if "error" in child else []
    for i, argv in enumerate(child["spec"]["argvs"]):
        key = " ".join(argv[:-4])  # without --format json --output PATH
        want = {c[0]: c for c in reference.get(key, [])}
        if not want:
            errors.append(f"no reference for {key!r}")
        call = child["calls"][i] if "calls" in child else {"rc": None, "raised": None}
        report = load_report(child["spec"]["outputs"][i]) if "calls" in child else None
        reports.append(report)
        attempted += max(1, len(want))
        if call["rc"] != 0 or call["raised"] or report is None:
            failed += 1
            errors.append(f"{key}: exit {call['rc']}, {call['raised'] or 'no raise'}")
        if report is None:
            mismatched += max(1, len(want))
            continue
        got = report_checks(report)
        failed += sum(1 for c in got.values() if not c[1])
        mismatched += sum(1 for name in set(got) | set(want)
                          if got.get(name) != want.get(name))
        tol = report["config"]["tol"]
        for c in report["checks"]:
            if c["residual"] is not None:
                headrooms.append(HEADROOM_CAP if c["residual"] == 0 else
                                 min(HEADROOM_CAP, math.log10(tol / c["residual"])))
    return {"attempted": attempted, "failed": min(failed, attempted),
            "mismatched": mismatched, "headrooms": headrooms, "reports": reports,
            "errors": errors}


def verdict_s(child: dict) -> float | None:
    return sum(c["seconds"] for c in child["calls"]) if "calls" in child else None


# --- per-layer metrics -----------------------------------------------------

def layer_metrics(trace: dict, traced_verdict: float) -> dict[str, float]:
    spans = trace["spans"]

    def ms(*names):
        return 1e3 * sum(spans[n]["incl_s"] for n in names if n in spans)

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def self_ms(layer):
        return 1e3 * sum(v["self_s"] for k, v in spans.items()
                         if k.split(".", 1)[0] == layer)

    dims = trace["algebra_dims"]
    out = {
        "rootsys.build_ms": ms("rootsys.generate_positive_roots",
                               "rootsys.killing_gram",
                               "rootsys.assign_structure_constants"),
        "compactform.build_ms": ms("compactform.build_compact_from_roots",
                                   "compactform.build_so_matrix_model"),
        "compactform.verify_algebra_ms": ms("compactform.verify_algebra"),
        "compactform.verify_algebra_calls": calls("compactform.verify_algebra"),
        # computed, not measured: the dense dim^4 float64 Jacobi intermediate
        "compactform.jacobi_mb": max((d ** 4 * 8 / 1e6 for d in dims), default=0.0),
        "compactform.bracket_calls": calls("compactform.CompactLieAlgebra.bracket"),
        "compactform.bracket_ms": ms("compactform.CompactLieAlgebra.bracket"),
        "crossmodel.frames_built": calls("crossmodel.restricted_frame"),
        "crossmodel.build_pair_ms": ms("crossmodel.build_pair"),
        "crossmodel.restricted_frame_ms": ms("crossmodel.restricted_frame"),
        "crossmodel.bracket_laws_ms": ms("crossmodel.verify_bracket_laws"),
        "homgeo.u_tensor_calls": calls("homgeo.u_tensor"),
        "homgeo.u_tensor_ms": ms("homgeo.u_tensor"),
        "homgeo.u_map_calls": calls("homgeo.u_map"),
        "homgeo.u_map_ms": ms("homgeo.u_map"),
        "homgeo.killing_residual_ms": ms("homgeo.killing_residual"),
        "contact.classify_calls": calls("contact.classify"),
        "contact.classify_ms": ms("contact.classify"),
        "contact.nijenhuis_ms": ms("contact.nijenhuis_tensor"),
        "contact.nabla_phi_ms": ms("contact.nabla_phi_residual"),
        "contact.uniqueness_points": sum(trace["scan_points"]),
        "contact.uniqueness_ms": ms("contact.uniqueness_scan"),
        "tanbundle.ms": 1e3 * trace["layer_incl_s"].get("tanbundle", 0.0),
        "suites.self_ms": self_ms("suites"),
        "report.emit_ms": 1e3 * trace["layer_incl_s"].get("report", 0.0),
        "numpy.einsum_calls": calls("numpy.einsum"),
        "numpy.einsum_ms": self_ms("numpy"),
        "numpy.einsum_flops": trace["einsum_flops"],
        "trace.verdict_s": traced_verdict,
    }
    for layer in ("rootsys", "compactform", "crossmodel", "homgeo", "contact", "cli"):
        out[f"{layer}.self_ms"] = self_ms(layer)
    return out


def trace_consistency(child: dict) -> list[str]:
    """Self times must sum to the traced verdict, and every attribute be restored."""
    trace, errors = child["trace"], []
    total = sum(v["self_s"] for v in trace["spans"].values())
    verdict = verdict_s(child)
    if abs(total - verdict) > 0.01 * verdict:
        errors.append(f"span self times sum to {total:.4f} s, traced verdict "
                      f"{verdict:.4f} s")
    if not trace["restored"]:
        errors.append("a wrapped attribute was not restored")
    return errors


def strip_wall_time(report: dict | None) -> dict | None:
    return None if report is None else {k: v for k, v in report.items()
                                        if k != "wall_time"}


# --- provenance ------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "crosscontact").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(args, probe: dict) -> dict:
    return dict(
        probe.get("environment", {}), workload=args.workload, seed=args.seed,
        seed_use=seed_use(args.workload, args.seed), trace=args.trace,
        cpu_count=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
        blas_threads_pinned=BLAS_THREADS, commit=commit(),
        src_sha256=source_digest(), cpus_pinned=CPUS)


# --- runs ------------------------------------------------------------------

def timed_children(children: Children, argvs, seconds: float, trace: bool):
    """Rounds of concurrent children until the next round would overrun ``seconds``.

    A round is one untraced child per CPU, or with ``trace`` one untraced and
    one traced child; the CPUs swap roles from round to round.
    """
    rounds, start, last = [], time.monotonic(), 0.0
    specs = [{"argvs": argvs, "trace": False}]
    specs = specs + [{"argvs": argvs, "trace": True}] if trace else specs * len(CPUS)
    with ThreadPoolExecutor(len(CPUS)) as pool:
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start + last <= seconds:
            if time.monotonic() + last > children.deadline:
                break
            t0 = time.monotonic()
            cpus = [CPUS[(i + len(rounds)) % len(CPUS)] for i in range(len(specs))]
            rounds.append(list(pool.map(children.run, specs, cpus)))
            last = time.monotonic() - t0
    return rounds


def median(values):
    return statistics.median(values) if values else float("nan")


def run_probe(children: Children) -> dict:
    probe = children.run({"probe": PROBE}, CPUS[0])
    got = (probe.get("rc"), probe.get("exception"))
    if got == PROBE_EXPECTED:
        status = "known defect still present"
    elif got[0] == 0:
        status = "defect fixed: add S^10 to the ladder in a benchmark change"
    else:
        status = "unexpected outcome"
    print(f"probe crosscontact {' '.join(PROBE)}: exit {got[0]}, "
          f"{got[1] or probe.get('error')} ({status})")
    return probe


def print_shares(values: dict) -> None:
    """Each layer's share of the traced verdict: the most a faster layer can save."""
    verdict_ms = 1e3 * values["trace.verdict_s"]
    selfs = {k: v for k, v in values.items() if k.endswith(".self_ms")}
    selfs["numpy.einsum_ms"] = values["numpy.einsum_ms"]
    print("self-time shares of traced verdict_s: " + ", ".join(
        f"{k} {v / verdict_ms:.1%}" for k, v in sorted(selfs.items(),
                                                       key=lambda kv: -kv[1])))
    incl = sorted(((v, k) for k, v in values.items() if k.endswith("_ms")
                   and not k.endswith("self_ms") and not k.startswith("numpy.")),
                  reverse=True)[:4]
    print("largest inclusive layer spans: " + ", ".join(
        f"{k} {v / verdict_ms:.1%}" for v, k in incl))


def run_workload(args, declared: dict) -> dict:
    reference = json.loads(REFERENCE.read_text())
    argvs = workload_argvs(args.workload, args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        children = Children(scratch, time.monotonic() + DEADLINE_S)
        probe = run_probe(children)
        print("provenance " + json.dumps(provenance(args, probe), sort_keys=True))
        rounds = timed_children(children, argvs, args.seconds, bool(args.trace))
        outcomes = [[child_outcome(c, reference) for c in group] for group in rounds]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    flat = [(c, o) for group, ogroup in zip(rounds, outcomes)
            for c, o in zip(group, ogroup)]
    attempted = sum(o["attempted"] for _, o in flat)
    failed = sum(o["failed"] for _, o in flat)
    mismatched = sum(o["mismatched"] for _, o in flat)
    errors = [e for _, o in flat for e in o["errors"]]
    plain = [c for c, _ in flat if "calls" in c and not c["spec"]["trace"]]
    print(f"children {len(flat)}; checks attempted {attempted}, failed {failed}; "
          f"failed_frac {failed / attempted:.6g} ratio; "
          f"ref_mismatch {mismatched} count")

    if args.trace:
        traced = []
        for (_, child), (plain_out, traced_out) in zip(rounds, outcomes):
            if "trace" not in child:
                continue
            errors += trace_consistency(child)
            wrapped = child["trace"]["wrapped"]
            if [strip_wall_time(r) for r in plain_out["reports"]] != \
                    [strip_wall_time(r) for r in traced_out["reports"]]:
                errors.append("traced report differs from the untraced one")
            traced.append(layer_metrics(child["trace"], verdict_s(child)))
        if not traced:
            errors.append("no traced child completed")
        values = {k: median([m[k] for m in traced if k in m]) for k in declared}
        values["trace.overhead_s"] = median([m["trace.verdict_s"] for m in traced]) \
            - median([verdict_s(c) for c in plain])
        if traced:
            print(f"tracing wrapped {wrapped} attributes per traced child; span "
                  "sums, restoration and reports checked")
            print_shares(values)
    else:
        headrooms = [h for _, o in flat for h in o["headrooms"]]
        values = {
            "verdict_s": median([verdict_s(c) for c in plain]),
            "setup_s": median([c["setup_s"] for c in plain]),
            "cpu_s": median([c["cpu_s"] for c in plain]),
            "peak_rss_mb": median([c["maxrss_kb"] / 1024 for c in plain]),
            "pass_frac": 1.0 - failed / attempted,
            "ref_match_frac": 1.0 - min(mismatched, attempted) / attempted,
            "min_headroom": min(headrooms, default=float("nan")),
        }
        spread = [verdict_s(c) for c in plain]
        if spread:
            print(f"verdict_s over {len(spread)} children: median "
                  f"{median(spread):.4f} s, min {min(spread):.4f} s, "
                  f"max {max(spread):.4f} s")

    if set(values) != set(declared):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(declared))} do not "
                         "match BENCHMARK.json")
    values = {k: v if math.isfinite(v) else None for k, v in values.items()}
    for name, value in values.items():
        print(f"  {name} = {value if value is None else f'{value:.6g}'} {declared[name]}")
    for e in errors:
        print(f"error: {e}")
    correct = not errors and failed == 0 and mismatched == 0 \
        and None not in values.values()
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": declared[k]} for k, v in values.items()}}


def write_reference() -> None:
    """Record (name, passed, details) of every check of every workload command."""
    argvs = workload_argvs("gate", 0) + workload_argvs("ladder", 0) + [
        workload_argvs("cayley", i)[0] for i in range(len(CAYLEY_PARAMS))]
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        child = Children(scratch, time.monotonic() + 600).run(
            {"argvs": argvs, "trace": False}, CPUS[0])
        reports = [load_report(p) for p in child.get("spec", {}).get("outputs", [])]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if "error" in child or any(c["rc"] != 0 for c in child["calls"]):
        raise SystemExit(f"a reference command failed: {child}")
    reference = {" ".join(argv): sorted(report_checks(r).values())
                 for argv, r in zip(argvs, reports)}
    entries = [f" {json.dumps(key)}: [\n"
               + ",\n".join(f"  {json.dumps(check)}" for check in checks) + "\n ]"
               for key, checks in sorted(reference.items())]
    REFERENCE.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"wrote {len(reference)} reference reports to {REFERENCE}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["gate", "cayley", "ladder"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference reports from the current code")
    args = parser.parse_args()
    if not (SRC / "crosscontact" / "cli.py").is_file():
        print(f"error: no crosscontact sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    result = run_workload(args, declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
