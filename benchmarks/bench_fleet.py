"""Parallel fleet vs. serial grid: throughput, parity, and resilience.

Runs the (workload × simulator) benchmark grid through the sharded
simulation service pool (``repro.serve``), with the serial golden pass
doubling as the baseline wall clock.  Three claims are checked:

* **parity** — every parallel cell's simulated cycles and retired
  counts are bit-identical to its in-process serial golden (the fleet
  changes *where* a simulation runs, never *what* it computes);
* **completeness** — the report covers every cell, with failures (if
  any) marked and counted out of the harmonic mean visibly;
* **throughput** — on a host with >= 4 cores the parallel grid beats
  the serial grid by at least ``SPEEDUP_FLOOR`` wall-clock (skipped on
  smaller hosts and under ``--quick``, where the grid is too small to
  amortize worker startup).

Writes ``bench_results/fleet.txt`` (human table) and
``bench_results/BENCH_8.json`` (machine-readable per-cell record);
``--quick`` writes them to a scratch directory instead and prints it.

Run directly (not via pytest)::

    python benchmarks/bench_fleet.py          # full grid
    python benchmarks/bench_fleet.py --quick  # small grid, CI gate
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.reporting import results_dir
from repro.serve.fleet import run_fleet

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"

#: Acceptance floor: parallel grid wall clock vs. serial grid, only
#: enforced where the hardware can plausibly deliver it.
SPEEDUP_FLOOR = 2.0
SPEEDUP_MIN_CORES = 4

QUICK_WORKLOADS = ["compress", "go"]
QUICK_SIMULATORS = ["facile", "fastsim"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid (CI): 2 workloads x 2 simulators")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker shards (default: min(4, cpu count))")
    parser.add_argument("--report", default=None,
                        help="report path (default bench_results/BENCH_8.json)")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    workers = args.workers if args.workers is not None else max(2, min(4, cpus))
    workloads = QUICK_WORKLOADS if args.quick else None
    simulators = QUICK_SIMULATORS if args.quick else None

    report = run_fleet(
        workloads=workloads,
        simulators=simulators,
        workers=workers,
        verify=True,
    )

    failures: list[str] = []
    for cell in report.failed_cells:
        failures.append(
            f"cell {cell.workload}/{cell.simulator} failed: {cell.reason}"
        )
    for cell in report.cells:
        if cell.parity is False:
            failures.append(
                f"cell {cell.workload}/{cell.simulator}: {cell.reason}"
            )
    gate_speedup = not args.quick and cpus >= SPEEDUP_MIN_CORES
    report.speedup_gated = gate_speedup
    if gate_speedup and report.speedup < SPEEDUP_FLOOR:
        failures.append(
            f"parallel grid only {report.speedup:.2f}x serial on "
            f"{cpus} cores (need >= {SPEEDUP_FLOOR}x with "
            f"{workers} workers)"
        )

    text = report.render_text()
    out = results_dir(RESULTS_DIR, args.quick)
    (out / "fleet.txt").write_text(text + "\n")
    report_path = report.write(
        args.report if args.report else out / "BENCH_8.json"
    )
    print(text)
    print(f"\nresults written to {out}; report written to {report_path}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    note = (
        f"{report.speedup:.2f}x serial"
        if gate_speedup
        else f"{report.speedup:.2f}x serial (floor not enforced: "
        + ("--quick)" if args.quick else f"only {cpus} cores)")
    )
    print(
        f"OK: {len(report.ok_cells)}/{len(report.cells)} cells, "
        f"all bit-identical to serial goldens, {note}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
