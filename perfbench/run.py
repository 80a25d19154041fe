"""popdmp benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run alternates set-up and timed passes of the workload
until the next set-up and pass would end after ``--seconds`` (at least one
pass).  Before each pass the inputs are set up anew, repeatedly for half a
second (at least once); ``setup_s`` is the median of all those set-ups and
``wall_s`` the mean pass.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` does the same for half of ``--seconds``, then runs as many
passes traced, on the last input, and prints the per-layer metrics (per
pass) and the tracing overhead.  Every operation's
output is checked; the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, run
metadata and the recorded spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

# single process, no extra threads: fixed before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up runs before every pass, so that its samples span the run as the
# passes do: a set-up of a few milliseconds sampled in one stretch reads
# whatever speed a shared host has in that stretch.
SETUP_BLOCK_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# A name ending in "_self_s" is the self time of the spans of that name
# (their time minus their child spans), one ending in "_s" their total
# time; any other name is a count.
LAYER_METRICS = [
    "grid.barycentric_s", "grid.barycentric_calls", "grid.beliefs_located",
    "grid.nearest_vertex_s", "solver.assembly_s", "solver.assembly_self_s",
    "solver.operator_nnz", "solver.bellman_s", "solver.bellman_calls", "solver.vi_iterations",
    "solver.policy_lookup_s", "solver.policy_lookup_rows", "solver.fixed_point_s",
    "solver.apply_assignment_calls", "mdp.build_tables_s", "mdp.build_tables_calls",
    "mdp.smoothed_dmat_s", "mdp.smoothed_dmat_calls", "sim.mc_s", "sim.mc_self_s",
    "sim.trajectories", "sim.stream_setup_s", "sim.streams", "sim.tables_s",
    "sim.tables_calls", "model.hazard_calls", "model.hazard_rows", "model.kernel_calls",
    "model.kernel_rows", "model.flow_path_s", "model.lambda_path_s", "filtering.update_s",
    "filtering.update_calls", "filtering.update_regularized_s",
    "filtering.update_regularized_calls",
]


def prepare() -> None:
    """Pin thread counts and put the checkout's ``src`` first on the path.
    Exits with code 2 when the checkout holds no library source."""
    if not (SRC / "popdmp" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'popdmp'}", file=sys.stderr)
        sys.exit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import popdmp
    if Path(popdmp.__file__).resolve().parent != SRC / "popdmp":
        print(f"perfbench: popdmp imported from {popdmp.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metadata


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "popdmp").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_popdmp_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# running


def _setup_block(wl, size, seed: int, times: list):
    """Set up repeatedly for ``SETUP_BLOCK_S`` seconds, at least once;
    append each set-up's time to ``times`` and return the last input."""
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        inp = wl.setup(size, seed)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 - began >= SETUP_BLOCK_S:
            return inp


def _passes(wl, seconds: float, new_input, count: int | None = None, tracer=None):
    """Run whole passes, each on the input ``new_input()`` returns: ``count``
    of them, or until the next set-up and pass would end after ``seconds``.
    Returns (duration, output, error) per pass and the last input."""
    out = []
    start = time.perf_counter()
    while True:
        s0 = time.perf_counter()
        inp = new_input()
        if tracer is not None:
            tracer.run_id = len(out)
        t0 = time.perf_counter()
        try:
            result, err = wl.run(inp), None
        except Exception as exc:  # a failing pass is counted, not fatal
            traceback.print_exc()
            result, err = None, exc
        t1 = time.perf_counter()
        out.append((t1 - t0, result, err))
        if err is not None:
            break
        if count is not None:
            if len(out) >= count:
                break
        elif (t1 - start) + (t1 - s0) > seconds:
            break
    return out, inp


def _check(wl, inp, passes, ref) -> tuple[int, int, list]:
    attempted, failures = 0, []
    for _, result, err in passes:
        n = wl.ops(inp)
        attempted += n
        if err is not None:
            failures += [f"raised {err!r}"] * n
            continue
        try:
            verdicts = wl.check(inp, result, ref)
        except Exception as exc:
            traceback.print_exc()
            verdicts = [f"check raised {exc!r}"] * n
        failures += [v for v in verdicts if v is not None]
    return attempted, len(failures), failures


def _layer_metrics(tracer, root_index: int, n: int, untraced_total: float) -> dict:
    import spans
    recs = tracer.records()
    totals, selfs = spans.layer_totals(recs)
    root = recs[root_index]
    traced_total = root[2] - root[1]
    metrics = {}
    for metric in LAYER_METRICS:
        if metric.endswith("_self_s"):
            value, unit = selfs.get(metric[:-len("_self_s")], 0.0), "s"
        elif metric.endswith("_s"):
            value, unit = totals.get(metric[:-len("_s")], 0.0), "s"
        else:
            value, unit = tracer.counts.get(metric, 0), "count"
        metrics[metric] = {"value": value / n, "unit": unit}
    own_root = selfs[root[0]]  # the benchmark's own span is the only one of its name
    for metric, value in (("trace.wall_s", traced_total / n),
                          ("trace.untraced_wall_s", untraced_total / n),
                          ("trace.overhead_s", (traced_total - untraced_total) / n),
                          ("trace.unattributed_s", own_root / n)):
        metrics[metric] = {"value": value, "unit": "s"}
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "bench",
        reference: dict | None = None, spans_path: Path | None = None) -> dict:
    """Set up, time and check one workload; returns the result object."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    sz = workloads.SIZES[size]
    ref = (reference if reference is not None else load_reference())[size]

    # a traced run measures for the same time in all: half untraced, half
    # traced; set-up is deterministic in the seed, so every pass's input
    # equals the last one, which the traced passes and the checks use
    setup_times = []
    untraced, inp = _passes(wl, seconds / 2 if trace else seconds,
                            lambda: _setup_block(wl, sz, seed, setup_times))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_passes = list(untraced)
    result = {"workload": name, "seed": seed, "size": size, "trace": int(trace),
              "setup_times_s": setup_times, "pass_times_s": [d for d, _, _ in untraced]}

    if trace:
        tracer = spans.Tracer()
        handle = spans.install(tracer, [part.model for part in inp])
        try:
            traced, _ = tracer.call(f"bench.{name}", _passes, wl, seconds, lambda: inp,
                                    len(untraced), tracer)
        finally:
            handle.remove()
        all_passes += traced
        metrics = _layer_metrics(tracer, 0, len(traced), sum(d for d, _, _ in untraced))
        result["traced_pass_times_s"] = [d for d, _, _ in traced]
        if spans_path is not None:
            tracer.write(spans_path, {"workload": name, "seed": seed, "size": size})
    else:
        # the mean, not the median, of the passes: the host's speed drifts
        # over tens of seconds, and the mean averages over that drift
        values = {"setup_s": statistics.median(setup_times),
                  "wall_s": statistics.fmean(d for d, _, _ in untraced),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    attempted, failed, failures = _check(wl, inp, all_passes, ref)
    result.update(correct=failed == 0, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, failures=failures[:20],
                  extras=wl.extras(inp, [(d, r) for d, r, e in untraced if e is None]),
                  metrics=metrics)
    return result


def _print_summary(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  size {res['size']}  "
          f"trace {res['trace']}  passes {len(res['pass_times_s'])}")
    print("  " + "  ".join(f"{k} {v}" for k, v in res["meta"].items()))
    print(f"  operations {res['attempted']}  failed {res['failed']}  "
          f"fail_frac {res['fail_frac']:.6g}")
    for why in res["failures"]:
        print(f"  FAILED: {why}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in res["extras"].items():
        unit = ("1/s" if name.endswith("_per_s") else "ms" if name.endswith("_ms")
                else "s" if name.endswith("_s") else "count")
        print(f"  {name:36s} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-sweep", "mc-filter"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    prepare()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    res = run(args.workload, args.seed, args.seconds, bool(args.trace),
              spans_path=OUT_DIR / f"{stem}-spans.json" if args.trace else None)
    res["meta"] = metadata()
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(res, fh, indent=1)
    _print_summary(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
