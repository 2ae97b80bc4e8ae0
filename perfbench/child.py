"""One cold CLI process of the benchmark: import, optionally trace, run, report.

Usage: python3 perfbench/child.py SPEC.json RESULT.json CPU

SPEC holds ``{"argvs": [[...], ...], "trace": bool}`` or ``{"probe": [...]}``.
The child pins itself to CPU, then imports the CLI entry, so the parent can
time set-up from process start to the moment ``import crosscontact.cli``
returns.
"""

import os
import sys
import time

os.sched_setaffinity(0, {int(sys.argv[3])})

import crosscontact.cli  # noqa: E402

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def run_cli(argvs: list, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        wrapped = tracer.install()
    calls = []
    for argv in argvs:
        raised = None
        t0 = time.perf_counter()
        try:
            rc = crosscontact.cli.main(argv)
        except Exception as exc:  # a raised run counts as failed, never dropped
            rc, raised = None, f"{type(exc).__name__}: {exc}"
        calls.append({"seconds": time.perf_counter() - t0, "rc": rc, "raised": raised})
    out = {"calls": calls}
    if tracer is not None:
        restored = tracer.uninstall()
        out["trace"] = dict(tracer.summary(), wrapped=wrapped, restored=restored)
    return out


def probe(argv: list) -> dict:
    """Run a known-defect case through the CLI, then name the exception it hides."""
    from crosscontact import crossmodel, suites
    rc = crosscontact.cli.main(argv)
    space = suites.space_from_flags(argv[argv.index("--space") + 1],
                                    int(argv[argv.index("--n") + 1]))
    try:
        crossmodel.build_pair(space)
        exception = None
    except ValueError as exc:
        exception = f"{type(exc).__name__}: {exc}"
    return {"rc": rc, "exception": exception, "environment": environment()}


def environment() -> dict:
    """numpy and BLAS provenance as this process sees them."""
    import ctypes
    import glob
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_reported": threads}


def main() -> None:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    out = probe(spec["probe"]) if "probe" in spec else run_cli(spec["argvs"],
                                                               spec["trace"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(setup_done=SETUP_DONE, cpu_s=usage.ru_utime + usage.ru_stime,
               maxrss_kb=usage.ru_maxrss)
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
