"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares
against byte for byte.

    PYTHONPATH=src python tests/golden/make_golden.py

writes ``config.yaml`` and ``events.csv`` (a short event log sampled from the
steering model) beside this script, then runs every case of ``CASES`` and
stores each one's output files and stdout in a directory named after it.
Regenerate only on a change that moves an answer on purpose, and say so in
CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import yaml
from click.testing import CliRunner

HERE = Path(__file__).resolve().parent

# small enough to run in seconds; no machine-specific path, since --out
# names the output directory and resolved_config.yaml echoes the default
CONFIG = {
    "solver": {"grid_k": 4, "family": {"taus": {"start": 0.5, "stop": 1.5, "step": 0.5}}},
    "sim": {"n_traj": 300, "seed": 7, "x0": -2.0, "record_trajectories": 3},
    "crosscheck": {"observations": [-2.0, 0.0, 1.0]},
    "sweep": {"grid_k": 3},
}

# case name -> command-line arguments after the config and output flags
CASES = {
    "solve": ["solve", "--grid-k", "4"],
    "simulate": ["simulate", "--grid-k", "4"],
    "crosscheck": ["crosscheck", "--grid-k", "4"],
    "sweep": ["sweep", "--grid-k", "4"],
    "filter": ["filter", "--grid-k", "4", "--events", "{events}", "--x0", "1"],
    "filter-sigma": ["filter", "--grid-k", "4", "--events", "{events}", "--x0", "1",
                     "--sigma", "0.1"],
}


def run_case(name: str, out: Path):
    """Run one case into ``out``; returns the click result."""
    from popdmp.cli import main

    args = [a.format(events=HERE / "events.csv") for a in CASES[name]]
    return CliRunner().invoke(main, [*args, "--config", str(HERE / "config.yaml"),
                                     "--out", str(out)])


def _write_event_log(path: Path, n_events: int = 16) -> None:
    import popdmp as P
    from popdmp.cli import format_control

    model, gen, y = P.particle_steering_model(), np.random.default_rng(28), 2
    family = list(P.switching_family(taus=[0.5]))
    lines = ["r_piece_spec,s,x"]
    for _ in range(n_events):
        control = family[int(gen.integers(len(family)))]
        s, y, x = P.sample_jump(model, y, control, gen)
        lines.append(f"{format_control(control)},{s!r},{float(x[0])!r}")
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    (HERE / "config.yaml").write_text(yaml.safe_dump(CONFIG, sort_keys=True))
    _write_event_log(HERE / "events.csv")
    for name in CASES:
        out = HERE / name
        shutil.rmtree(out, ignore_errors=True)
        result = run_case(name, out)
        if result.exit_code != 0:
            sys.exit(f"{name} exited {result.exit_code}: {result.output}")
        (out / "stdout.txt").write_text(result.stdout)


if __name__ == "__main__":
    main()
