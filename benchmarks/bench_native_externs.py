"""Native uarch externs: in-kernel timing models vs. Python callbacks.

The pipeline simulators spend their replay steady state crossing the
C-kernel/Python boundary once per cache access and branch resolution
(the ``xcache``/``xbpred``/``xbind``/``xbcall`` externs).  The native
extern registry (:mod:`repro.facile.cbackend`) compiles the shipped
timing models into the kernel and resolves matching externs to
in-kernel dispatches, so a warm replay of the shipped configurations
makes **zero** Python extern callbacks.  This benchmark measures that
win and pins the contracts:

* **parity** — cycles, retired, and every predictor/cache statistic are
  bit-identical between the Python and C backends (the native models
  mutate the same ``array('q')`` state the Python spec classes own);
* **zero callbacks** — warm C-backend replays of inorder/ooo report no
  Python extern exits for the shipped models;
* **fastsim native** — the hand-coded twin runs its per-cycle walker
  in-kernel (``c_backend_active: "c"``), no blanket degradation;
* **speedup** — warm replay beats the Python backend by at least
  ``INORDER_FLOOR``x on inorder and ``OOO_FLOOR``x on ooo for both
  compress and go (skipped under ``--quick`` and without a compiler).

Protocol per (workload × simulator): one untimed python-backend run
saves a snapshot; best-of-``repeat`` warm runs per backend load it.

Writes ``bench_results/native_externs.txt`` and
``bench_results/BENCH_9.json``; ``--quick`` writes them to a scratch
directory instead and prints it.

Run directly (not via pytest)::

    python benchmarks/bench_native_externs.py          # asserts floors
    python benchmarks/bench_native_externs.py --quick  # CI gate
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time
from dataclasses import asdict

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.reporting import render_generic, results_dir
from repro.facile.cbackend import load_kernel
from repro.facile.snapshot import engine_fingerprint, warm_start
from repro.ooo.facile_inorder import FacileInOrderSim
from repro.ooo.facile_ooo import FacileOooSim
from repro.ooo.fastsim import FastSimOoo
from repro.workloads.suite import build_cached

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"

#: Acceptance floors (ISSUE 9): warm C-backend replay vs. the Python
#: backend.  The pipeline models formerly paid a Python transition per
#: timing-model call; with native externs the whole steady state runs
#: in-kernel, so the floors sit well above the extern-callback era.
INORDER_FLOOR = 4.5
OOO_FLOOR = 3.0

SIMS = ("inorder", "ooo", "fastsim")
SCALES = {"compress": 2, "go": 1}
QUICK_SCALES = {"compress": 1, "go": 1}


def _uarch_digest(cache, predictor) -> tuple:
    """Every predictor/cache statistic, flattened for bit-compare."""
    return (
        tuple(sorted(asdict(predictor.stats).items())),
        tuple(
            (level, tuple(sorted(asdict(stats).items())))
            for level, stats in sorted(cache.stats.items())
        ),
    )


def _one_run(sim_name, program, backend, load=None, save=None):
    """One complete simulation; returns a dict of outcomes.

    The timed region is :meth:`run` alone: simulator construction and
    the snapshot load are identical Python-side work under either
    backend, and the claim under test is replay throughput."""
    if sim_name in ("inorder", "ooo"):
        cls = FacileInOrderSim if sim_name == "inorder" else FacileOooSim
        sim = cls(program, replay_backend=backend)
        warm = warm_start(
            sim.engine, engine_fingerprint(sim.compiled, program),
            cache_load=load, cache_save=save,
        )
        t0 = time.perf_counter()
        r = sim.run()
        elapsed = time.perf_counter() - t0
        if warm is not None:
            warm.finish()
        native = getattr(sim.engine, "_cnative", None)
        out = {
            "retired": r.stats.retired,
            "slow": r.run_stats.steps_slow,
            "digest": (
                r.stats.cycles, r.stats.retired, r.stats.branches,
                r.stats.mispredicts, r.stats.loads, r.stats.stores,
                _uarch_digest(sim.dcache, sim.predictor),
            ),
            "backend_status": sim.engine.backend_status,
        }
    else:  # fastsim
        sim = FastSimOoo(program, replay_backend=backend)
        warm = warm_start(
            sim, sim.snapshot_fingerprint, cache_load=load, cache_save=save,
        )
        t0 = time.perf_counter()
        stats = sim.run()
        elapsed = time.perf_counter() - t0
        if warm is not None:
            warm.finish()
        native = sim._cnative
        out = {
            "retired": stats.retired,
            "slow": sim.mstats.cycles_slow,
            "digest": (
                stats.cycles, stats.retired, stats.branches,
                stats.mispredicts, stats.loads, stats.stores,
                _uarch_digest(sim.cache, sim.predictor),
            ),
            "backend_status": sim.backend_status,
        }
    out["seconds"] = elapsed
    counts = native.extern_counts() if hasattr(native, "extern_counts") else {}
    out["externs_native"] = sum(c["native"] for c in counts.values())
    out["externs_python"] = sum(c["python"] for c in counts.values())
    out["externs"] = counts
    return out


def bench_pair(sim_name, program, snap_path, repeat):
    """Best-of-``repeat`` warm timings per backend, from one
    python-saved snapshot (the C runs load cross-backend)."""
    _one_run(sim_name, program, "python", save=str(snap_path))
    py = min((_one_run(sim_name, program, "python", load=str(snap_path))
              for _ in range(repeat)), key=lambda r: r["seconds"])
    cc = min((_one_run(sim_name, program, "c", load=str(snap_path))
              for _ in range(repeat)), key=lambda r: r["seconds"])
    return py, cc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default="compress,go",
        help="comma-separated workload names (default: compress,go)",
    )
    parser.add_argument(
        "--sims", default=",".join(SIMS),
        help=f"simulators to measure (default: {','.join(SIMS)})",
    )
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="timed passes per backend; best wall time wins",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small scale, one pass, skip the speedup floors (CI gate: "
        "parity, zero-callback, and fastsim-native contracts still "
        "fail hard)",
    )
    args = parser.parse_args(argv)

    kernel = load_kernel()
    if not kernel.status.available:
        print(f"note: C kernel unavailable ({kernel.status.reason}); "
              "measuring the degradation path", file=sys.stderr)

    scales = QUICK_SCALES if args.quick else SCALES
    repeat = 1 if args.quick else args.repeat
    sims = args.sims.split(",")
    rows = []
    failures = []
    floors = {"inorder": INORDER_FLOOR, "ooo": OOO_FLOOR}
    with tempfile.TemporaryDirectory(prefix="native-externs-") as tmp:
        for name in args.workloads.split(","):
            scale = args.scale if args.scale is not None else scales.get(name)
            program = build_cached(name, scale)
            for sim_name in sims:
                snap = pathlib.Path(tmp) / f"{name}-{sim_name}.facsnap"
                py, cc = bench_pair(sim_name, program, snap, repeat)
                speedup = py["seconds"] / max(cc["seconds"], 1e-9)
                bstat = cc["backend_status"]
                row = {
                    "workload": name,
                    "simulator": sim_name,
                    "python_seconds": py["seconds"],
                    "c_seconds": cc["seconds"],
                    "speedup": speedup,
                    "python_ksps": py["retired"] / max(py["seconds"], 1e-9) / 1000,
                    "c_ksps": cc["retired"] / max(cc["seconds"], 1e-9) / 1000,
                    "stats_equal": py["digest"] == cc["digest"],
                    "c_backend_active": bstat["active"],
                    "c_backend_reason": bstat["reason"],
                    "externs_native": cc["externs_native"],
                    "externs_python": cc["externs_python"],
                    "externs": cc["externs"],
                    "slow_steps": py["slow"] + cc["slow"],
                }
                rows.append(row)

                if not row["stats_equal"]:
                    failures.append(
                        f"{name}/{sim_name}: native externs diverge — "
                        f"python {py['digest']} vs c {cc['digest']}"
                    )
                if row["slow_steps"]:
                    failures.append(
                        f"{name}/{sim_name}: warm run fell off the fast "
                        f"path ({row['slow_steps']} slow steps)"
                    )
                if kernel.status.available:
                    if bstat["active"] != "c":
                        failures.append(
                            f"{name}/{sim_name}: C backend inactive "
                            f"({bstat['reason']})"
                        )
                    elif row["externs_python"]:
                        failures.append(
                            f"{name}/{sim_name}: {row['externs_python']} "
                            "Python extern callbacks on steady-state "
                            "replay (want 0)"
                        )
                    floor = floors.get(sim_name)
                    if not args.quick and floor and speedup < floor:
                        failures.append(
                            f"{name}/{sim_name}: native externs only "
                            f"{speedup:.2f}x python backend "
                            f"(need >= {floor}x)"
                        )

    table = render_generic(
        "Native uarch externs: warm replay, python vs. C backend "
        "(in-kernel timing models)",
        ["workload", "simulator", "python s", "c s", "speedup",
         "c ksps", "equal", "backend", "externs (nat/py)"],
        [
            [
                r["workload"],
                r["simulator"],
                f"{r['python_seconds']:.3f}",
                f"{r['c_seconds']:.3f}",
                f"{r['speedup']:.2f}x",
                f"{r['c_ksps']:.1f}k",
                "yes" if r["stats_equal"] else "NO",
                r["c_backend_active"],
                f"{r['externs_native']:,}/{r['externs_python']:,}",
            ]
            for r in rows
        ],
    )
    out = results_dir(RESULTS_DIR, args.quick)
    (out / "native_externs.txt").write_text(table + "\n")
    (out / "BENCH_9.json").write_text(json.dumps(
        {
            "bench": "native_externs",
            "issue": 9,
            "version": 1,
            "quick": args.quick,
            "floors": floors,
            "ckernel": {
                "available": kernel.status.available,
                "reason": kernel.status.reason,
                "cc": kernel.status.cc,
            },
            "results": rows,
        },
        indent=2,
    ) + "\n")
    print(table)
    print(f"results written to {out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    total_native = sum(r["externs_native"] for r in rows)
    print(
        f"OK: {len(rows)} cells bit-identical (stats included), "
        f"{total_native:,} native extern dispatches, 0 python callbacks "
        "on steady-state replay"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
