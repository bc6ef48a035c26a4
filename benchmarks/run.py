"""hkindex benchmark: end-to-end and per-layer cost of stability verdicts.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload gkdv-index --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``: ``gkdv-index``, ``bbm-index``
and ``wave-table``.  One worker process (``worker.py``) runs the workload as
a single caller in a closed loop: whole passes over the items, each item an
in-process ``hkindex.cli.main`` call exactly as the ``hkindex`` command
would make it.  The budget fixes the number of passes (``NOMINAL_PASS_S``
in ``workloads.py``), so a run does the same work on every commit.  The
seed permutes the item order of each pass.  BLAS is pinned to one thread
in the worker's environment.  Every written output is checked.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: time of one pass (sum of its item times), median over passes;
* ``item_p50_s``: median item time, pooled over the run's passes.  It is
  the lower median (the middle sample, never a mean of two): the wave
  table's item times have two modes of 24 items each (fKdV at c = 1 skips
  the rescale), and the mean of the two middle samples would fall in the
  gap between them and swing with single samples;
* ``item_tail_s``: the highest percentile of the item times with at least
  ten samples above it (the maximum when there are ten or fewer);
* ``peak_rss_mb``: peak resident memory of the worker process;
* ``setup_s``: launch of a fresh process until ``hkindex`` is imported and
  BLAS is initialised, median of five launches.

``failed_frac`` (items that raised, exited 1, 3 or 64, or wrote a wrong
answer, over items attempted) is printed as well.  The result line's
``failed`` counts only unexpected outcomes: the wave table's four fBBM
points that the seed already rejects with ``ConvergenceError`` are counted
in ``failed_frac`` but are not failures of the benchmark.

``--trace 1`` runs the same loop twice, in two fresh workers with half the
budget each: untraced, then with spans around every public layer function
(``tracer.py``).  It reports the per-layer metrics of the traced worker,
the ROADMAP stage table per item, computed flop counts of the dense
kernels, and the tracing overhead.  The spans are written to
``.bench_out/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output checked out, 1 when one did not, and 2 when the run
could not be made (for example, no ``src/hkindex`` next to this directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_LAUNCHES = 5
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, BENCH_DIR)
from tracer import STAGE_COLUMNS  # noqa: E402
from workloads import KNOWN_FAILURE, OK, WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def child_env() -> dict:
    """The caller's environment with BLAS pinned to one thread.

    One thread is steadier than one per core on a small shared machine,
    where a second BLAS thread waits on whichever core is contended."""
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    return env


def launch(argv: list, env: dict, deadline: float) -> float:
    """Run a worker to its end; return the seconds until it printed 'ready'."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    # kill a worker that outlives the run's deadline, wherever it hangs
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline().strip()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if line != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} failed (exit {code})")
    return ready


def run_worker(workload, seed, seconds, traced, env, deadline) -> dict:
    tag = f"{workload}-seed{seed}-{os.getpid()}-{'traced' if traced else 'untraced'}"
    result_path = os.path.join(OUT, tag + ".json")
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--result", result_path]
    if traced:
        argv += ["--traced", "--spans",
                 os.path.join(OUT, f"spans-{workload}-seed{seed}.json")]
    try:
        ready = launch(argv, env, deadline)
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        if os.path.exists(result_path):
            os.unlink(result_path)
    result["ready_s"] = ready
    return result


def commit() -> str:
    """Commit of the checkout when it is a git work tree, plus a digest of
    the package sources (a checkout made without git has only the latter)."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hkindex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            rev = "unknown"
    return f"commit {rev}, src sha256 {digest.hexdigest()[:16]}"


def tail(samples: list) -> tuple:
    """Highest percentile with at least ten samples above it, and its label."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], f"max of {len(xs)} items (fewer than 11 samples)"
    n = len(xs)
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} items"


def pass_times(result: dict) -> list:
    walls = [0.0] * result["passes"]
    for rec in result["items"]:
        walls[rec["pass"]] += rec["seconds"]
    return walls


def exit_codes(result: dict) -> dict:
    return dict(sorted(Counter(str(rec["exit"]) for rec in result["items"]).items()))


def print_items(result: dict) -> None:
    recs = result["items"]
    show_all = len(recs) <= 6
    for rec in recs:
        if show_all or rec["outcome"] != OK:
            print(f"  pass {rec['pass']} {rec['key']:<24} {rec['seconds']:9.4f} s  "
                  f"exit {rec['exit']}  {rec['outcome']}: {rec['detail']}")
    if not show_all:
        print(f"  ({sum(r['outcome'] == OK for r in recs)} further items ok)")


def end_to_end(result: dict, setup: list) -> dict:
    walls = pass_times(result)
    items = [rec["seconds"] for rec in result["items"]]
    tail_value, tail_label = tail(items)
    return {
        "wall_s": (statistics.median(walls), "s",
                   f"median of {len(walls)} pass(es) of "
                   f"{len(WORKLOADS[result['workload']])} items"),
        "item_p50_s": (statistics.median_low(items), "s",
                       f"lower median of {len(items)} items"),
        "item_tail_s": (tail_value, "s", tail_label),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "worker ru_maxrss"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} launches "
                    f"({min(setup):.3f} .. {max(setup):.3f})"),
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<32} {value:14.6g} {unit:<8} {note}")


def trace_report(untraced: dict, traced: dict) -> dict:
    layers = {name: (value, unit, "per pass")
              for name, (value, unit) in traced["layers"].items()}
    wall_u = statistics.median(pass_times(untraced))
    wall_t = statistics.median(pass_times(traced))
    stages = traced["stages"]
    uncovered = sum(rec["seconds"] - stages[f"{rec['pass']}.{rec['item']}"][-1]
                    for rec in traced["items"]) / traced["passes"]
    layers.update({
        "trace.untraced_wall_s": (wall_u, "s", "wall_s of the untraced worker"),
        "trace.traced_wall_s": (wall_t, "s", "wall_s of the traced worker"),
        "trace.overhead_s": (wall_t - wall_u, "s",
                             "traced minus untraced wall_s (includes noise)"),
        "trace.wrapper_s": (traced["wrapper_cost_s"], "s",
                            "spans x calibrated cost of one wrapper call"),
        "trace.uncovered_s": (uncovered, "s",
                              "item time outside the cli.main span, per pass"),
        "trace.spans": (traced["spans"] / traced["passes"], "count", "per pass"),
    })
    return layers


def print_stage_table(result: dict) -> None:
    stages = result["stages"]
    keys = {f"{rec['pass']}.{rec['item']}": rec["key"] for rec in result["items"]}
    rows = []
    if len(WORKLOADS[result["workload"]]) <= 6:
        rows = [(keys[item], row) for item, row in stages.items()]
    totals = [sum(col) / result["passes"] for col in zip(*stages.values())]
    if len(rows) != 1:
        rows.append((f"all items, per pass ({result['passes']} pass(es))", totals))
    print("| case | " + " | ".join(STAGE_COLUMNS) + " |")
    print("|---" * (len(STAGE_COLUMNS) + 1) + "|")
    for case, (gs, basis, asm, eigh, ham, krein, e2e) in rows:
        print(f"| {case} | {gs:.3f} s | {basis:.3f} + {asm:.3f} s | {eigh:.3f} s"
              f" | {ham:.3f} s | {krein:.3f} s | {e2e:.3f} s |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "hkindex", "__init__.py")):
        print(f"benchmark: no hkindex sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    try:
        if args.trace:
            half = args.seconds / 2.0
            results = [run_worker(args.workload, args.seed, half, traced, env,
                                  deadline) for traced in (False, True)]
        else:
            setup = [launch(["--probe"], env, deadline)
                     for _ in range(SETUP_LAUNCHES)]
            results = [run_worker(args.workload, args.seed, args.seconds, False,
                                  env, deadline)]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    m = results[0]["machine"]
    print(f"hkindex benchmark: workload {args.workload}, seed {args.seed}, "
          f"budget {args.seconds:g} s, trace {args.trace}")
    print(f"machine: {m['cores']} cores, BLAS {m['blas']} "
          f"({m['blas_threads']} threads), numpy {m['numpy']}, "
          f"scipy {m['scipy']}, python {m['python']}; {commit()}")
    print("load: 1 worker process, 1 caller, closed loop")
    recs = [rec for result in results for rec in result["items"]]
    known = sum(rec["outcome"] == KNOWN_FAILURE for rec in recs)
    wrong = sum(rec["outcome"] not in (OK, KNOWN_FAILURE) for rec in recs)
    for result in results:
        kind = "traced" if result["traced"] else "untraced"
        walls = ", ".join(f"{w:.3f}" for w in pass_times(result))
        print(f"{kind} worker: {result['passes']} pass(es) of [{walls}] s, "
              f"ready after {result['ready_s']:.3f} s, exit codes "
              f"{exit_codes(result)}")
        print_items(result)

    if args.trace:
        metrics = trace_report(results[0], results[1])
        print("per-layer metrics of the traced worker:")
        print_metrics(metrics)
        print("dense kernel flops are computed, not counted: eigh 9 n^3 per "
              "call, Hamiltonian eig 25 n^3 per call (n = matrix order)")
        covered = sum(value for name, (value, _, _) in metrics.items()
                      if name.endswith(".self_s"))
        print(f"coverage, per pass: layer self times {covered:.4f} s + item "
              f"time outside any span {metrics['trace.uncovered_s'][0]:.6f} s"
              f" = item time {statistics.mean(pass_times(results[1])):.4f} s")
        print("stage times of the traced worker (ROADMAP baseline columns):")
        print_stage_table(results[1])
    else:
        metrics = end_to_end(results[0], setup)
        print("end-to-end metrics:")
        print_metrics(metrics)
    print(f"  {'failed_frac':<32} {(known + wrong) / len(recs):14.6g} {'1':<8} "
          f"{known + wrong}/{len(recs)} items ({known} known seed "
          f"ConvergenceErrors, {wrong} unexpected)")

    print(json.dumps({
        "correct": wrong == 0, "attempted": len(recs), "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
