"""One benchmark worker process: a single caller in a closed loop.

Started by ``run.py`` with the source tree's ``src`` directory and the BLAS
thread limits in its environment.  It imports ``hkindex``, initialises
BLAS, prints ``ready`` (the launcher times set-up up to that line), then
runs whole passes over the workload's items, as many as the time budget
holds by ``NOMINAL_PASS_S``.  Each item is one in-process
``hkindex.cli.main`` call; its output is checked after the timed call.
The result is written as JSON to the path given by ``--result``.

With ``--probe`` it exits right after ``ready``; with ``--traced`` every
public layer function is wrapped in a span first (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))


def set_up():
    """Import the package under test and start BLAS; refuse any copy of
    hkindex that is not this checkout's."""
    import numpy as np
    import scipy.linalg

    import hkindex
    import hkindex.cli
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(hkindex.__file__).startswith(src):
        raise SystemExit(f"hkindex imported from {hkindex.__file__}, not {src}")
    a = np.random.default_rng(0).standard_normal((64, 64))
    scipy.linalg.eigh(a + a.T)   # loads LAPACK and starts the BLAS threads
    return hkindex.cli


def machine() -> dict:
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "?"),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def run_item(cli, item, out_dir):
    """Time one command; return (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(item.argv(out_dir))
        except Exception:  # an uncaught exception is a recorded failure
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    cli = set_up()
    print("ready", flush=True)
    if args.probe:
        return 0

    import tracer
    from workloads import NOMINAL_PASS_S, WORKLOADS, check

    items = WORKLOADS[args.workload]
    tr = None
    if args.traced:
        tr = tracer.Tracer()
        tr.install()
    work = os.path.join(os.path.dirname(args.result), f"work-{os.getpid()}")
    rng = random.Random(args.seed)
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    records = []
    try:
        for p in range(passes):
            order = rng.sample(range(len(items)), len(items))
            for k in order:
                item = items[k]
                out_dir = os.path.join(work, f"{p}-{k}")
                if tr is not None:
                    tr.item = f"{p}.{k}"
                seconds, code, out, err = run_item(cli, item, out_dir)
                outcome, detail = check(item, code, out, err, out_dir)
                records.append({"pass": p, "item": k, "key": item.key,
                                "seconds": seconds, "exit": code,
                                "outcome": outcome, "detail": detail})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": args.workload, "seed": args.seed, "traced": args.traced,
        "passes": passes, "items": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    if tr is not None:
        result["layers"] = tracer.layer_metrics(tr.spans, passes)
        result["stages"] = tracer.stage_rows(tr.spans)
        result["spans"] = len(tr.spans)
        result["wrapper_cost_s"] = tracer.wrapper_cost() * len(tr.spans) / passes
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["label", "start", "end", "parent", "item",
                                      "value"], "spans": tr.spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
