"""One pass of CLI runs in a fresh process, as the benchmark measures it.

    python3 bench/child.py REPORT.json SRC_DIR MODE [PLAN.json]

Imports amrbeam.cli from SRC_DIR and notes the CLOCK_MONOTONIC time at which
the import finished; the parent took the same clock before spawning, so the
difference is the set-up time. PLAN.json is a list of CLI argument lists; each
is run once with ``amrbeam.cli.run(args)``, in order. MODE is "0" (untraced),
"1" (traced: per-layer metrics and spans for every run) or "probe" (stop after
the import; no plan). The JSON report holds the wall and CPU time of every
run, exit codes, the peak resident set of the process and provenance.
"""

import json
import os
import resource
import sys
import time


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(cli, src_dir):
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "amrbeam_file": os.path.relpath(cli.__file__, src_dir),
    }


def run_one(cli, args, traced):
    out = {}
    run = cli.run
    if traced:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        run = tracer.wrap("cli.run", run)
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        out["rc"] = run(args)
    finally:
        out["run_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - c0
        if traced:
            tracer.restore()
    if traced:
        out["layers"] = layers.metrics(tracer)
        out["self_s"] = {name: a["self_s"] for name, a in tracer.layers().items()}
        out["absent"] = tracer.absent()
        out["spans"] = tracer.to_json()
    return out


def main() -> int:
    report_path, src_dir, mode, *plan = sys.argv[1:]
    import amrbeam.cli as cli  # the import is what set-up time measures

    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    src = os.path.realpath(src_dir)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"amrbeam imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    report = {"imported_at": imported_at, "runs": []}
    if mode != "probe":
        with open(plan[0]) as fh:
            for args in json.load(fh):
                report["runs"].append(run_one(cli, args, traced=mode == "1"))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["provenance"] = provenance(cli, src_dir)  # after the runs: it loads modules
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
