"""Self-tests of the benchmark itself; a few seconds.

    python3 perfbench/selftest.py

Checks the self-time calculation on synthetic spans, runs every workload at
the tiny size untraced and traced (outputs correct, metric names as in
BENCHMARK.json, every wrapper removed afterwards), shows that a corrupted
reference makes operations fail, and that the command refuses to run in a
directory without the library source.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run


def check_self_times() -> None:
    import spans
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # [1, 4] has a child [2, 3]
    recs = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0), ("b", 3.0, 6.0, 0, 0),
            ("c", 8.0, 9.0, 0, 0), ("d", 2.0, 3.0, 1, 0)]
    assert list(spans.self_times(recs)) == [4.0, 2.0, 3.0, 1.0, 1.0], spans.self_times(recs)
    # a span nested in a span of its own name adds to that name's total once
    nested = [("f", 0.0, 5.0, -1, 0), ("f", 1.0, 4.0, 0, 0), ("g", 2.0, 3.0, 1, 0)]
    total, own = spans.layer_totals(nested)
    assert total == {"f": 5.0, "g": 1.0} and own == {"f": 4.0, "g": 1.0}, (total, own)


def _bindings() -> dict:
    """Every popdmp module, class and model-callable binding the tracer
    may replace, by identity."""
    import spans
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "popdmp" or name.startswith("popdmp."):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
    for mod_name, cls_name, attr, _, _ in spans.METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        snap[(cls_name, attr)] = vars(cls)[attr]
    return snap


def check_tiny_runs(bench: dict) -> None:
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        for trace in (False, True):
            before = _bindings()
            res = run.run(w["name"], seed=7, seconds=0.5, trace=trace, size="tiny")
            after = _bindings()
            assert after.keys() == before.keys() and all(
                after[k] is v for k, v in before.items()), "a wrapper was left installed"
            assert res["correct"] and res["failed"] == 0, res["failures"]
            want = per_layer if trace else end_to_end
            assert set(res["metrics"]) == want, set(res["metrics"]) ^ want
            print(f"ok  tiny {w['name']} trace={int(trace)}")


def _corrupt_solve(ref):
    ref["values"][3][1] *= 1.0 + 1e-6


def _corrupt_sweep(ref):
    ref["rows"][0][1] *= 1.0 + 1e-6


def _corrupt_mc(ref):
    ref["mdp_values"][0] += 1e-6


def check_corrupted_reference() -> None:
    """Each part's reference, corrupted alone, fails its workload."""
    for workload, part, corrupt in (("solve-sweep", "solve-k40", _corrupt_solve),
                                    ("solve-sweep", "sigma-sweep", _corrupt_sweep),
                                    ("mc-filter", "mc-crosscheck", _corrupt_mc)):
        bad = copy.deepcopy(run.load_reference())
        corrupt(bad["tiny"][part])
        res = run.run(workload, seed=7, seconds=0.0, trace=False, size="tiny", reference=bad)
        assert not res["correct"] and res["fail_frac"] > 0, res
        print(f"ok  corrupted {part} reference fails {workload}: "
              f"fail_frac {res['fail_frac']:.3g}")


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "solve-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok  refuses to run without the library source")


def main() -> None:
    run.prepare()
    run.OUT_DIR.mkdir(exist_ok=True)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_self_times()
    print("ok  self times on synthetic spans")
    check_tiny_runs(bench)
    check_corrupted_reference()
    check_bare_directory()
    print("all benchmark self-tests passed")


if __name__ == "__main__":
    main()
