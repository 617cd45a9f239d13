"""detsched benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_coverage --seed 1 --seconds 15 --trace 0

The harness pins BLAS/OpenMP to one thread before numpy loads, imports
detsched from ``src/`` of this checkout, generates the workload's inputs
from ``--seed`` (several times, to time set-up), then runs rounds of
library calls for ``--seconds``.  Outputs are checked after timing ends.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the run is split: the first half untraced, the second half
with shims recording spans, and the last line carries the per-layer
metrics; the spans are written to ``perfbench/out/``.  Every line before
the last is a ``#`` comment: provenance, the instance table, per-task
times, the workload's named throughput and a digest of its results.

``--tiny`` shrinks every instance; the smoke tests use it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

ROOT_SPAN = {"mc_coverage": "montecarlo.simulate", "mc_delay": "montecarlo.simulate",
             "closed_forms": "cli.main", "exact_enum": "dpp.enum"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, detsched; "
                "print(time.perf_counter() - t)")
LAYERS = ("rng", "dpp", "propagation", "coverage", "montecarlo", "kernels", "cli")


def note(text=""):
    print(f"# {text}" if text else "#", flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ROOT_SPAN))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny instances (smoke tests)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_library():
    """Compile detsched from this checkout and import it."""
    if not (SRC / "detsched" / "__init__.py").is_file():
        raise SystemExit(f"detsched sources not found under {SRC}")
    import compileall

    compileall.compile_dir(str(SRC / "detsched"), quiet=1)
    sys.path.insert(0, str(SRC))
    import detsched

    if Path(detsched.__file__).resolve().parent != (SRC / "detsched").resolve():
        raise SystemExit(f"imported detsched from {detsched.__file__}, not {SRC}")


def import_seconds():
    """Median time to import numpy and detsched in a fresh interpreter; an
    import happens once per process, so fresh processes repeat it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def run_rounds(wl, seconds, tracer=None, root_span=None):
    """Repeat the workload's tasks until ``seconds`` of timed work.

    Returns the first round's results, every round's duration, each
    task's durations, and per-task result digests of every round.
    """
    tasks = wl.tasks()
    first, round_times, digests = None, [], []
    task_times = [[] for _ in tasks]
    op = 0
    while not round_times or sum(round_times) < seconds:
        results = []
        t_round = time.perf_counter()
        for i, (_, fn) in enumerate(tasks):
            t0 = time.perf_counter()
            res = fn() if tracer is None else tracer.operation(op, root_span, fn)
            task_times[i].append(time.perf_counter() - t0)
            results.append(res)
            op += 1
        round_times.append(time.perf_counter() - t_round)
        digests.append([hashlib.sha256(wl.result_bytes(r)).hexdigest() for r in results])
        if first is None:
            first = results
    return first, round_times, task_times, digests


def judge(wl, first, digests):
    """(attempted, failed): round one checked in full, later rounds
    against round one bit for bit."""
    ok = wl.check(first)
    failed = ok.count(False)
    for later in digests[1:]:
        failed += sum(a != b for a, b in zip(later, digests[0]))
    return len(ok) * len(digests), failed


def results_digest(wl, results):
    h = hashlib.sha256()
    for r in results:
        h.update(wl.result_bytes(r))
    return h.hexdigest()


def install_shims(tracer):
    from detsched import _sampling, cli, coverage, montecarlo

    # id(eigenvalues) -> (eigenvalues, trace(K)); holding the array keeps
    # its id from being reused
    trace_of = {}

    def count_draw(args, mask):
        lvals = args[0]
        if id(lvals) not in trace_of:
            trace_of[id(lvals)] = (lvals, float((lvals / (1.0 + lvals)).sum()))
        k = int(mask.sum())
        c = tracer.counts
        c["draw_points"] += k
        c["draw_empty"] += k == 0
        c["draw_trace_k"] += trace_of[id(lvals)][1]

    def count_palm(args, _):
        tracer.palm_tx.add((tracer.op_id, args[1]))

    def count_semi(args, out):
        count_palm(args, out)
        tracer.counts["semi_reduced"] += 1

    tracer.wrap(montecarlo, "substream", "rng.substream")
    tracer.wrap(_sampling, "draw_mask", "dpp.draw", count_draw)
    tracer.wrap(coverage, "palm_reduced", "dpp.palm", count_palm)
    tracer.wrap(coverage, "palm_semi_reduced", "dpp.palm", count_semi)
    tracer.wrap(coverage, "scale_kernel", "dpp.scale")
    tracer.wrap(coverage, "interferer_factor", "propagation.factor")
    tracer.wrap(coverage, "noise_factor", "propagation.factor")
    tracer.wrap(coverage, "full_report", "coverage.report")
    tracer.wrap(cli, "build_K", "kernels.build")
    tracer.wrap(cli, "parse_config", "cli.parse")


def per_layer_metrics(wl, tracer, first, round_times, untraced_rate, traced_rate):
    """Per-layer metrics of a traced run; counts are per round."""
    import numpy as np

    rounds = len(round_times)
    summ = tracer.summary()
    counts = tracer.counts
    tasks = wl.tasks()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def calls(span):
        return summ.get(span, (0, 0.0, 0.0))[0]

    def total_us(span):
        return summ.get(span, (0, 0.0, 0.0))[1] / 1e3

    def self_us(span):
        return summ.get(span, (0, 0.0, 0.0))[2] / 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    extra = wl.layer_counts(first)
    put("rng.substream_calls", calls("rng.substream") / rounds, "count")
    put("rng.substream_us", ratio(total_us("rng.substream"), calls("rng.substream")), "us")
    draws = calls("dpp.draw")
    put("dpp.draw_calls", draws / rounds, "count")
    put("dpp.draw_us", ratio(total_us("dpp.draw"), draws), "us")
    put("dpp.draw_points", counts["draw_points"] / rounds, "count")
    put("dpp.draw_size_ratio", ratio(counts["draw_points"], counts["draw_trace_k"]), "ratio")

    # slots per task, from the operation id of each draw span
    arr = tracer.arrays()
    draw_ops = arr["op"][arr["name"] == tracer.code("dpp.draw")]
    task_slots = np.bincount(draw_ops % len(tasks), minlength=len(tasks)) / rounds
    put("montecarlo.slots", draws / rounds, "count")
    put("montecarlo.self_us_per_slot", ratio(self_us("montecarlo.simulate"), draws), "us")
    put("montecarlo.slots_per_rep", ratio(draws / rounds, extra.get("reps", 0)), "ratio")
    put("montecarlo.censored", extra.get("censored", 0), "count")
    put("montecarlo.empty_slot_frac", ratio(counts["draw_empty"], draws), "ratio")
    evaluated = sum(s * links for s, links in zip(task_slots, extra.get("task_links", [])))
    put("montecarlo.tracked_link_frac", ratio(sum(extra.get("tracked", [])), evaluated), "ratio")

    palm = calls("dpp.palm")
    put("dpp.palm_calls", palm / rounds, "count")
    put("dpp.palm_us", ratio(total_us("dpp.palm"), palm), "us")
    put("dpp.palm_distinct_frac", ratio(len(tracer.palm_tx), palm), "ratio")
    put("dpp.scale_calls", calls("dpp.scale") / rounds, "count")
    put("dpp.scale_us", ratio(total_us("dpp.scale"), calls("dpp.scale")), "us")
    put("propagation.factor_calls", calls("propagation.factor") / rounds, "count")
    put("propagation.factor_us",
        ratio(total_us("propagation.factor"), calls("propagation.factor")), "us")
    links = extra.get("links", 0)
    put("coverage.links", links, "count")
    put("coverage.self_us_per_link", ratio(self_us("coverage.report"), links * rounds), "us")
    put("coverage.semi_reduced_frac", ratio(counts["semi_reduced"], links * rounds), "ratio")
    put("coverage.clamped_links", extra.get("clamped_links", 0), "count")
    put("coverage.error_links", extra.get("error_links", 0), "count")

    invocations = calls("cli.main")
    put("kernels.build_ms", ratio(total_us("kernels.build"), invocations) / 1e3, "ms")
    put("cli.parse_ms", ratio(self_us("cli.parse"), invocations) / 1e3, "ms")
    put("cli.emit_ms", ratio(self_us("cli.main"), invocations) / 1e3, "ms")

    subsets = extra.get("subsets", 0)
    put("dpp.enum_subsets", subsets, "count")
    put("dpp.enum_us_per_subset", ratio(total_us("dpp.enum"), subsets * rounds), "us")

    wall_us = sum(round_times) * 1e6
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, s) in summ.items():
        layer_self[name.split(".")[0]] += s / 1e3
    for layer in LAYERS:
        put(f"{layer}.self_frac", layer_self[layer] / wall_us, "ratio")
    put("trace_unattributed_frac", 1.0 - sum(layer_self.values()) / wall_us, "ratio")
    put("trace_overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio")
    return out


def main(argv=None):
    args = parse_args(argv)
    load_library()
    import_s = import_seconds()

    import numpy as np
    import detsched
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    note(f"detsched benchmark: workload={args.workload} seed={args.seed} "
         f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
    provenance = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "detsched": detsched.__version__,
        "seed": args.seed,
        "sampler_backend": "numba" if detsched._sampling.njit is not None else "python",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS[:2]},
    }
    note("provenance: " + json.dumps(provenance, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    failed_setup = 0
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_times, fingerprints = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fingerprints.append(wl.setup(workdir))
            setup_times.append(time.perf_counter() - t0)
        # every set-up must regenerate the same inputs from the seed
        failed_setup = len(set(fingerprints)) - 1
        setup_s = import_s + statistics.median(setup_times)

        note("instances:")
        note(f"  {'mode':<6} {'n':>4} {'trace(K)':>9} {'pathloss':<10} {'links':>6}  work")
        for mode, n, tr, loss, links, work in wl.table():
            note(f"  {mode:<6} {n:>4} {tr:>9.3f} {loss:<10} {links:>6}  {work}")
        seconds = args.seconds / 2 if args.trace else args.seconds
        first, round_times, task_times, digests = run_rounds(wl, seconds)
        attempted, failed = judge(wl, first, digests)
        digest = results_digest(wl, first)
        task_items = wl.items(first)
        items = sum(task_items)
        rate = items / statistics.median(round_times)
        alias_rate = wl.alias_count(first) / statistics.median(round_times)
        if args.trace:
            tracer = Tracer()
            install_shims(tracer)
            try:
                t_first, t_rounds, _, t_digests = run_rounds(
                    wl, seconds, tracer, ROOT_SPAN[args.workload])
            finally:
                failed += tracer.restore()
            t_attempted, t_failed = judge(wl, t_first, t_digests)
            attempted += t_attempted
            # tracing must not change a single result
            failed += t_failed + (results_digest(wl, t_first) != digest)
            traced_rate = items / statistics.median(t_rounds)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            tracer.save(trace_path)
            metrics = per_layer_metrics(wl, tracer, t_first, t_rounds, rate, traced_rate)
            note(f"spans: {len(tracer.name)} written to {trace_path.relative_to(ROOT)}")
            note(f"traced: {len(t_rounds)} rounds, {traced_rate:.6g} {wl.item}s/s")
    failed += failed_setup

    note(f"round: {len(task_items)} operations, {items} {wl.item}s")
    note("per task, median of rounds:")
    for (label, _), k, times in zip(wl.tasks(), task_items, task_times):
        med = statistics.median(times)
        note(f"  {label:<24} {med * 1e3:10.3f} ms  {med / k * 1e6:10.3f} us/{wl.item}")
    q1, q3 = quartiles(round_times)
    note(f"rounds: {len(round_times)}, median {statistics.median(round_times):.4f} s "
         f"(quartiles {q1:.4f}, {q3:.4f})")
    note(f"setup: import {import_s:.4f} s, generation {statistics.median(setup_times):.4f} s "
         f"(medians of {SETUP_REPEATS})")
    note(f"items_per_s = {rate:.6g} {wl.item}s/s")
    note(f"{wl.alias} = {alias_rate:.6g} {wl.alias_item or wl.item}s/s")
    note(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} operations)")
    note(f"digest: {digest}")

    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "items_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
