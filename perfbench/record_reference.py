"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [--sizes tiny bench]

Run once at the commit that defines the benchmark and commit the resulting
``perfbench/reference.json``.  Re-recording at a later commit would hide a
change of results, so it is only done together with a change of workloads.
The filter workload is checked against an independent closed form instead.
"""

from __future__ import annotations

import argparse
import json

import run


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", nargs="+", default=["tiny", "bench"])
    args = parser.parse_args()
    run.prepare()
    import workloads

    path = run.HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.is_file() else {}
    for size in args.sizes:
        ref[size] = {}
        for name in ("solve-k40", "sigma-sweep", "mc-crosscheck"):
            wl = workloads.PARTS[name]
            inp = wl.setup(workloads.SIZES[size], 0)
            ref[size][name] = wl.summary(inp, wl.run(inp))
            print(size, name, "recorded", flush=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
