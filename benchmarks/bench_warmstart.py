"""Cold vs. warm-start first-run time with persistent action caches.

A snapshot (see :mod:`repro.facile.snapshot`) makes the memoized action
cache durable: the slow-path warmup a cold process pays on every run of
the same (simulator × workload) pair is paid once, saved, and mmap-ed
back by later runs.  This benchmark measures the claimed win directly:

* **cold** — a fresh process-state run with an empty cache;
* **warm** — the same run loading the snapshot first (load time counts
  against the warm wall clock), which must replay every step on the
  fast path (zero slow steps) and produce bit-identical simulated
  cycles.

The OOO facile simulator is the headline: its slow path (record +
pipeline bookkeeping) dominates a cold run, so a warm start is where
fast-forwarding's economics change.  The functional simulator is
replay-dominated even when cold and the hand-coded FastSim's load is
meta-heavy relative to its tiny runs, so both are informational
parity checks rather than speedup gates.

Writes ``bench_results/warmstart.txt`` (human table) and
``bench_results/BENCH_6.json`` (machine-readable per-benchmark
cold/warm ksps, cycles, and cache bytes); ``--quick`` writes them to
a scratch directory instead and prints it.

Run directly (not via pytest)::

    python benchmarks/bench_warmstart.py          # full run, asserts speedup
    python benchmarks/bench_warmstart.py --quick  # small scale, CI gate
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.reporting import render_generic, results_dir
from repro.isa.simulate import run_facile_functional
from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim
from repro.workloads.suite import build_cached

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"

#: Acceptance floor: warm first-run wall time vs. cold, on the OOO
#: facile simulator, for at least one builtin workload.
SPEEDUP_FLOOR = 1.5

SCALES = {"compress": 2, "go": 1}
QUICK_SCALES = {"compress": 1, "go": 1}


def _one_run(sim_name, program, load=None, save=None):
    """One complete simulation; returns (seconds, dict of outcomes)."""
    t0 = time.perf_counter()
    if sim_name == "functional":
        r = run_facile_functional(program, cache_load=load, cache_save=save)
        elapsed = time.perf_counter() - t0
        holder = r.engine
        cstats = holder.cache.stats
        out = {
            "simulated": r.retired, "retired": r.retired,
            "slow": r.stats.steps_slow, "recovered": r.stats.steps_recovered,
            "digest": (r.retired, tuple(r.regs)),
        }
    elif sim_name == "ooo":
        r = run_facile_ooo(program, cache_load=load, cache_save=save)
        elapsed = time.perf_counter() - t0
        holder = r.engine
        cstats = holder.cache.stats
        out = {
            "simulated": r.stats.cycles, "retired": r.stats.retired,
            "slow": r.run_stats.steps_slow,
            "recovered": r.run_stats.steps_recovered,
            "digest": (r.stats.cycles, r.stats.retired, r.stats.mispredicts),
        }
    else:  # fastsim
        r = run_fastsim(program, cache_load=load, cache_save=save)
        elapsed = time.perf_counter() - t0
        holder = r
        cstats = r.mstats
        out = {
            "simulated": r.stats.cycles, "retired": r.stats.retired,
            "slow": r.mstats.cycles_slow,
            "recovered": r.mstats.cycles_recovered,
            "digest": (r.stats.cycles, r.stats.retired, r.stats.mispredicts),
        }
    out["seconds"] = elapsed
    out["bytes_shared"] = cstats.bytes_shared
    out["snapshot_load"] = holder.snapshot_load
    out["snapshot_save"] = holder.snapshot_save
    return out


def bench_pair(sim_name, program, snap_path, repeat):
    """Best-of-``repeat`` cold and warm timings for one (sim × workload).

    The snapshot is produced by a separate untimed run, so the cold
    number pays no save cost and the warm number pays the full load."""
    cold = min((_one_run(sim_name, program) for _ in range(repeat)),
               key=lambda r: r["seconds"])
    saver = _one_run(sim_name, program, save=str(snap_path))
    warm = min((_one_run(sim_name, program, load=str(snap_path))
                for _ in range(repeat)),
               key=lambda r: r["seconds"])
    return cold, saver, warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default="compress,go",
        help="comma-separated workload names (default: compress,go)",
    )
    parser.add_argument(
        "--sims", default="functional,ooo,fastsim",
        help="simulators to measure (default: functional,ooo,fastsim)",
    )
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="cold/warm passes; best wall time wins (suppresses host noise)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small scale, one pass, skip the wall-clock speedup "
        "assertion (CI gate: parity, snapshot-hit, and zero-slow-step "
        "contracts still fail hard)",
    )
    args = parser.parse_args(argv)

    scales = QUICK_SCALES if args.quick else SCALES
    repeat = 1 if args.quick else args.repeat
    sims = args.sims.split(",")
    rows = []
    results = []
    failures = []
    best_ooo_speedup = 0.0
    with tempfile.TemporaryDirectory(prefix="warmstart-") as tmp:
        for name in args.workloads.split(","):
            scale = args.scale if args.scale is not None else scales.get(name)
            program = build_cached(name, scale)
            for sim_name in sims:
                snap = pathlib.Path(tmp) / f"{name}-{sim_name}.facsnap"
                cold, saver, warm = bench_pair(sim_name, program, snap, repeat)
                speedup = cold["seconds"] / max(warm["seconds"], 1e-9)
                load = warm["snapshot_load"]
                save = saver["snapshot_save"]
                row = {
                    "workload": name,
                    "simulator": sim_name,
                    "cold_seconds": cold["seconds"],
                    "warm_seconds": warm["seconds"],
                    "speedup": speedup,
                    "cold_ksps": cold["retired"] / cold["seconds"] / 1000,
                    "warm_ksps": warm["retired"] / max(warm["seconds"], 1e-9) / 1000,
                    "cycles": warm["simulated"],
                    "cycles_equal": cold["digest"] == warm["digest"],
                    "warm_slow_steps": warm["slow"],
                    "warm_recovered": warm["recovered"],
                    "snapshot_entries": load.entries if load else 0,
                    "snapshot_file_bytes": save.file_bytes if save else 0,
                    "bytes_shared": warm["bytes_shared"],
                    "snapshot_hit": bool(load and load.hit),
                }
                rows.append(row)
                results.append(row)

                if not row["cycles_equal"]:
                    failures.append(
                        f"{name}/{sim_name}: warm simulation diverges — "
                        f"cold {cold['digest']} vs warm {warm['digest']}"
                    )
                if not row["snapshot_hit"]:
                    reason = load.reason if load else "no load info"
                    failures.append(
                        f"{name}/{sim_name}: snapshot not hit ({reason})"
                    )
                if warm["slow"] or warm["recovered"]:
                    failures.append(
                        f"{name}/{sim_name}: warm run fell off the fast path "
                        f"({warm['slow']} slow, {warm['recovered']} recovered)"
                    )
                if sim_name == "ooo":
                    best_ooo_speedup = max(best_ooo_speedup, speedup)

    if not args.quick and "ooo" in sims and best_ooo_speedup < SPEEDUP_FLOOR:
        failures.append(
            f"warm start only {best_ooo_speedup:.2f}x cold on the ooo "
            f"simulator (need >= {SPEEDUP_FLOOR}x on compress or go)"
        )

    table = render_generic(
        "Cold vs. warm-start first-run wall time (snapshot load counted "
        "against warm)",
        ["workload", "simulator", "cold s", "warm s", "speedup",
         "cold ksps", "warm ksps", "simulated", "equal", "warm slow",
         "snap KB", "shared KB"],
        [
            [
                r["workload"],
                r["simulator"],
                f"{r['cold_seconds']:.3f}",
                f"{r['warm_seconds']:.3f}",
                f"{r['speedup']:.2f}x",
                f"{r['cold_ksps']:.1f}k",
                f"{r['warm_ksps']:.1f}k",
                f"{r['cycles']:,}",
                "yes" if r["cycles_equal"] else "NO",
                f"{r['warm_slow_steps']:,}",
                f"{r['snapshot_file_bytes'] / 1024:.1f}",
                f"{r['bytes_shared'] / 1024:.1f}",
            ]
            for r in rows
        ],
    )
    out = results_dir(RESULTS_DIR, args.quick)
    (out / "warmstart.txt").write_text(table + "\n")
    (out / "BENCH_6.json").write_text(json.dumps(
        {
            "bench": "warmstart",
            "issue": 6,
            "version": 1,
            "quick": args.quick,
            "speedup_floor": SPEEDUP_FLOOR,
            "results": results,
        },
        indent=2,
    ) + "\n")
    print(table)
    print(f"results written to {out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    for r in rows:
        if r["simulator"] == "ooo":
            print(
                f"OK: {r['workload']} warm start {r['speedup']:.2f}x cold "
                f"({r['snapshot_entries']} entries mapped, identical "
                f"simulation, 0 slow steps)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
