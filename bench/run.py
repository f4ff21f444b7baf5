"""hatlab benchmark: one workload per run, in a fresh process.

    python3 bench/run.py --workload pairsearch --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

Load model: one process, one caller, a closed loop.  Each task starts when
the previous one returns; there are no threads or worker pools.

With ``--trace 0`` the run times whole passes over the workload's tasks,
as many as fit in ``--seconds`` (at least one), and reports the end-to-end
metrics.  Task costs are measured in thousands of reference loops (kref):
wall time counted in units of a fixed loop that speed.py times alongside
the tasks, in the same process.  Each task counts with its median over the
passes.
With ``--trace 1`` it makes one pass with every layer traced (see
tracer.py) and reports the per-layer metrics.  Both print a
readable summary and then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every task's output
is checked after it returns, outside the timing; the run exits with code 1
when any check fails, and with code 2 when the library cannot be loaded
from ``src/`` next to this directory.

``setup_s`` is the time from the start of this script to the point where
the inputs are ready: importing the library, warming the signature
reference cache (filled on the first ``group_name`` call) and parsing or
drawing the inputs.  It is measured in this process and in
``SETUP_REPEATS - 1`` short-lived probe processes, and the median is
reported.  A per-run report goes to ``.bench_out/`` in the checkout.
"""

import os
import sys
import time

# String hashing is seeded per process; fix the seed so that every run of
# one input takes the same path through set and dict iteration.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))

_T0 = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("pairsearch", "examples", "properties")
DEFAULT_SEEDS = {"pairsearch": 0, "examples": 0, "properties": 20260808}
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 60


class LibraryMissing(Exception):
    pass


def load_library():
    """Import hatlab from this checkout's src/ and fill the reference cache."""
    if not os.path.isfile(os.path.join(SRC, "hatlab", "__init__.py")):
        raise LibraryMissing("no hatlab package under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import hatlab
    from hatlab import group, perm, signatures

    if os.path.dirname(os.path.abspath(hatlab.__file__)) != os.path.join(SRC, "hatlab"):
        raise LibraryMissing("hatlab was imported from %s" % hatlab.__file__)
    signatures.group_name(group.PermutationGroup([perm.Permutation([1, 0])]))


def set_up(workload, seed):
    """Load the library and build the workload; seconds since script start."""
    load_library()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, ROOT)
    return wl, time.perf_counter() - _T0


def probe_setup(workload, seed):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(tasks, tracer=None):
    """Run every task once; returns each task's (start, end) perf_counter
    readings and the failure messages."""
    intervals, failures = [], []
    for task in tasks:
        if tracer is not None:
            tracer.start_task(task.key)
            tracer.on = True
        t0 = time.perf_counter()
        try:
            result = task.run()
        except Exception as exc:  # a raising task is a failed task, not a crash
            result, error = None, "%s raised %s: %s" % (task.name, type(exc).__name__, exc)
        else:
            error = None
        intervals.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.on = False
        if error is None:
            try:
                task.check(result)
            except Exception as exc:
                error = "%s: %s: %s" % (task.name, type(exc).__name__, exc)
        if error is not None:
            failures.append(error)
    return intervals, failures


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def source_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "hatlab", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def measure(tasks, seconds, setup_s, probe):
    from speed import TABLE_BYTES, SpeedMeter  # after set-up, which it is not part of

    # set-up probes go half before and half after the passes, so that they
    # sample the machine at both ends of the run
    setup_times = [setup_s] + [probe() for _ in range(SETUP_REPEATS // 2)]
    passes, failures = [], []
    meter = SpeedMeter()
    meter.start()
    try:
        start = time.perf_counter()
        # start another pass only if one more of average length still fits
        while not passes or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
            intervals, fails = run_pass(tasks)
            passes.append(intervals)
            failures += fails
    finally:
        meter.stop()
    setup_times += [probe() for _ in range(SETUP_REPEATS - len(setup_times))]
    # Each task's cost is the work it did in thousands of reference loops
    # (see speed.py), the median over the passes.  wall_kref is their sum.
    # Tasks sharing a key (one search under several input orders, or one
    # family of small property checks) count as one in task_geomean_kref,
    # with the mean of their costs.
    costs = [[meter.cost(t0, t1) / 1000.0 for t0, t1 in p] for p in passes]
    task_cost = [statistics.median(c) for c in zip(*costs)]
    by_key = {}
    for task, c in zip(tasks, task_cost):
        by_key.setdefault(task.key, []).append(c)
    key_cost = {key: statistics.fmean(cs) for key, cs in by_key.items()}
    metrics = {
        "wall_kref": (sum(task_cost), "kref"),
        "task_geomean_kref": (geomean(key_cost.values()), "kref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": ((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - TABLE_BYTES)
                         / 2**20, "MiB"),
    }
    pass_walls = [p[-1][1] - p[0][0] for p in passes]
    detail = {
        "passes": len(passes),
        "pass_wall_s": pass_walls,
        "pass_kref": [sum(c) for c in costs],
        "reference_loop_s": statistics.median(meter.lengths),
        "speed_samples": meter.samples(),
        "setup_s_samples": setup_times,
        "task_kref": key_cost,
    }
    return metrics, len(tasks) * len(passes), failures, detail


def trace(tasks):
    from tracer import Tracer, calibrate_overhead

    tr = Tracer()
    tr.install()
    try:
        intervals, failures = run_pass(tasks, tr)
    finally:
        tr.uninstall()
    times = [t1 - t0 for t0, t1 in intervals]
    wall = sum(times)
    per_span, per_count = calibrate_overhead()
    counts = tr.counts
    defined, tried = counts["fpgroups.cosets_defined"], counts["pairsearch.h_tried"]
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in tr.layer_metrics().items()}
    metrics.update({
        "perm.mul_calls": (tr.perm_counts["mul_calls"], "count"),
        "perm.inverse_calls": (tr.perm_counts["inverse_calls"], "count"),
        "fpgroups.cosets_defined": (defined, "count"),
        "fpgroups.cosets_live": (counts["fpgroups.cosets_live"], "count"),
        "fpgroups.live_ratio": (counts["fpgroups.cosets_live"] / defined if defined else 0.0, "ratio"),
        "cosets.block_system_calls": (tr.fn_calls["cosets.block_system"], "count"),
        "normalizers.sym_automorphisms": (counts["normalizers.sym_automorphisms"], "count"),
        "signatures.signature_calls": (tr.fn_calls["signatures.signature"], "count"),
        "pairsearch.candidates": (counts["pairsearch.candidates"], "count"),
        "pairsearch.h_tried": (tried, "count"),
        "pairsearch.h_accepted": (counts["pairsearch.h_accepted"], "count"),
        "pairsearch.accept_ratio": (counts["pairsearch.h_accepted"] / tried if tried else 0.0, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - tr.top_level_s, "s"),
        "trace.overhead_s": (per_span * tr.span_count + per_count * sum(tr.perm_counts.values()), "s"),
        "trace.spans": (tr.span_count, "count"),
    })
    task_s = {}
    for task, t in zip(tasks, times):
        task_s[task.key] = task_s.get(task.key, 0.0) + t
    detail = {"task_s": task_s, "task_layer_share": tr.task_shares(task_s)}
    return metrics, len(tasks), failures, detail, tr


def _shares(pct):
    return ", ".join("%s %.1f%%" % kv for kv in pct.items() if kv[1] >= 0.05)


def print_summary(workload, metrics, attempted, failures, info):
    print("== %s: %s" % (workload, info["seed_note"]))
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    print("  %-32s %14.6g ratio (%d failed of %d attempted)"
          % ("failed_ratio", len(failures) / attempted, len(failures), attempted))
    print("  info: src/hatlab lines=%d passes=%s seed=%d"
          % (info["src_hatlab_lines"], info.get("passes", 1), info["seed"]))
    if "pass_wall_s" in info:
        print("  info: pass wall %s s, reference loop %.3g ms (median of %d samples)"
              % (" ".join("%.2f" % w for w in info["pass_wall_s"]),
                 1000 * info["reference_loop_s"], info["speed_samples"]))
    if "layer_share" in info:
        print("  layer share of traced wall: %s" % _shares(info["layer_share"]))
        if len(info["task_layer_share"]) <= 10:
            for task, shares in info["task_layer_share"].items():
                print("    %-12s %s" % (task, _shares(shares)))
    for msg in failures[:20]:
        print("  FAILED %s" % msg)


def run_one(args, wl, setup_s):
    tasks = wl.tasks()
    info = {"workload": args.workload, "seed": args.seed, "seed_note": wl.seed_note,
            "src_hatlab_lines": source_lines(), "tasks": len(tasks)}
    if args.trace:
        metrics, attempted, failures, detail, tr = trace(tasks)
        wall = metrics["trace.wall_s"][0]
        info["layer_share"] = {
            layer: 100.0 * metrics[layer + ".self_s"][0] / wall for layer in tr.layer_ids
        }
        info["layer_share"]["(unattributed)"] = 100.0 * metrics["trace.unattributed_s"][0] / wall
    else:
        metrics, attempted, failures, detail = measure(
            tasks, args.seconds, setup_s, lambda: probe_setup(args.workload, args.seed))
        tr = None
    info.update(detail)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    report = dict(info, metrics={k: v for k, (v, _) in metrics.items()}, failures=failures)
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if tr is not None:
        tr.write(stem + "-spans.json", {"workload": args.workload, "seed": args.seed})
    print_summary(args.workload, metrics, attempted, failures, info)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


def run_all(args):
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: 0, or 20260808 for properties)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    try:
        wl, setup_s = set_up(args.workload, args.seed)
    except LibraryMissing as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    return run_one(args, wl, setup_s)


if __name__ == "__main__":
    sys.exit(main())
