"""Python vs. C replay-backend steady-state throughput.

The C backend (:mod:`repro.facile.cbackend`) lowers packed action
chains to a kernel compiled once per process and drives whole
fast-forward stretches without re-entering Python.  This benchmark
measures the claimed win on the paper's steady state: a warm run that
replays everything from a snapshot, timed under each backend.

Protocol per (simulator × workload):

* one untimed run saves a ``.facsnap`` snapshot (under the *python*
  backend, so every timed C run also exercises the cross-backend
  snapshot-load path);
* best-of-``repeat`` timed warm runs load that snapshot under each
  backend; simulated results must be bit-identical and warm runs must
  stay entirely on the fast path.

The fastsim rows run the per-cycle kernel walker: checks hit the
native uarch models in-kernel and only EV_EXEC/EV_ANNUL events call
back into the functional simulator, so its speedup sits between the
pure-replay functional rows and 1.0x.

Writes ``bench_results/cbackend.txt`` (human table) and
``bench_results/BENCH_7.json`` (machine-readable trajectory record);
``--quick`` writes them to a scratch directory instead and prints it.

Run directly (not via pytest)::

    python benchmarks/bench_cbackend.py          # full run, asserts speedup
    python benchmarks/bench_cbackend.py --quick  # small scale, CI gate
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
from repro.facile.cbackend import load_kernel
from repro.isa.simulate import run_facile_functional
from repro.ooo.facile_inorder import run_facile_inorder
from repro.ooo.facile_ooo import run_facile_ooo
from repro.ooo.fastsim import run_fastsim
from repro.workloads.suite import build_cached

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"

#: Acceptance floor (ISSUE 7): C steady-state replay vs. the Python
#: packed loop on compress, on the replay-dominated functional
#: simulator.  The pipeline models also win but spend part of each
#: step in host-Python timing externs, so they are reported, not gated.
SPEEDUP_FLOOR = 2.0

SIMS = ("functional", "inorder", "ooo", "fastsim")
SCALES = {"compress": 2, "go": 1}
QUICK_SCALES = {"compress": 1, "go": 1}


def _one_run(sim_name, program, backend, load=None, save=None):
    """One complete simulation; returns a dict of outcomes."""
    t0 = time.perf_counter()
    if sim_name == "functional":
        r = run_facile_functional(
            program, replay_backend=backend, cache_load=load, cache_save=save)
        elapsed = time.perf_counter() - t0
        holder = r.engine
        out = {
            "retired": r.retired,
            "slow": r.stats.steps_slow, "recovered": r.stats.steps_recovered,
            "simulated": r.retired,
            "digest": (r.retired, tuple(r.regs), r.halted),
        }
    elif sim_name in ("inorder", "ooo"):
        runner = run_facile_inorder if sim_name == "inorder" else run_facile_ooo
        r = runner(
            program, replay_backend=backend, cache_load=load, cache_save=save)
        elapsed = time.perf_counter() - t0
        holder = r.engine
        out = {
            "retired": r.stats.retired,
            "slow": r.run_stats.steps_slow,
            "recovered": r.run_stats.steps_recovered,
            "simulated": r.stats.cycles,
            "digest": (r.stats.cycles, r.stats.retired, r.stats.mispredicts,
                       r.stats.loads, r.stats.stores),
        }
    else:  # fastsim
        r = run_fastsim(
            program, replay_backend=backend, cache_load=load, cache_save=save)
        elapsed = time.perf_counter() - t0
        holder = r
        out = {
            "retired": r.stats.retired,
            "slow": r.mstats.cycles_slow,
            "recovered": r.mstats.cycles_recovered,
            "simulated": r.stats.cycles,
            "digest": (r.stats.cycles, r.stats.retired, r.stats.mispredicts),
        }
    out["seconds"] = elapsed
    out["snapshot_load"] = holder.snapshot_load
    bstat = getattr(holder, "backend_status", None)
    out["backend"] = bstat["active"] if bstat else "python"
    out["backend_reason"] = bstat["reason"] if bstat else ""
    return out


def bench_pair(sim_name, program, snap_path, repeat):
    """Best-of-``repeat`` warm timings for each backend, from one
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
        help="small scale, one pass, skip the wall-clock speedup "
        "assertion (CI gate: parity, fast-path, and degradation "
        "contracts still fail hard)",
    )
    args = parser.parse_args(argv)

    kernel = load_kernel()
    if not kernel.status.available:
        # Graceful-degradation environments still run the parity half.
        print(f"note: C kernel unavailable ({kernel.status.reason}); "
              "measuring the degradation path", file=sys.stderr)

    scales = QUICK_SCALES if args.quick else SCALES
    repeat = 1 if args.quick else args.repeat
    sims = args.sims.split(",")
    rows = []
    failures = []
    compress_functional_speedup = 0.0
    with tempfile.TemporaryDirectory(prefix="cbackend-") as tmp:
        for name in args.workloads.split(","):
            scale = args.scale if args.scale is not None else scales.get(name)
            program = build_cached(name, scale)
            for sim_name in sims:
                snap = pathlib.Path(tmp) / f"{name}-{sim_name}.facsnap"
                py, cc = bench_pair(sim_name, program, snap, repeat)
                speedup = py["seconds"] / max(cc["seconds"], 1e-9)
                row = {
                    "workload": name,
                    "simulator": sim_name,
                    "python_seconds": py["seconds"],
                    "c_seconds": cc["seconds"],
                    "speedup": speedup,
                    "python_ksps": py["retired"] / max(py["seconds"], 1e-9) / 1000,
                    "c_ksps": cc["retired"] / max(cc["seconds"], 1e-9) / 1000,
                    "simulated": cc["simulated"],
                    "cycles_equal": py["digest"] == cc["digest"],
                    "c_backend_active": cc["backend"],
                    "c_backend_reason": cc["backend_reason"],
                    "ckernel_available": kernel.status.available,
                    "slow_steps": cc["slow"] + py["slow"],
                }
                rows.append(row)

                if not row["cycles_equal"]:
                    failures.append(
                        f"{name}/{sim_name}: C backend diverges — "
                        f"python {py['digest']} vs c {cc['digest']}"
                    )
                if row["slow_steps"]:
                    failures.append(
                        f"{name}/{sim_name}: warm run fell off the fast "
                        f"path ({row['slow_steps']} slow steps)"
                    )
                if kernel.status.available and cc["backend"] != "c":
                    failures.append(
                        f"{name}/{sim_name}: C backend inactive "
                        f"({cc['backend_reason']})"
                    )
                if name == "compress" and sim_name == "functional":
                    compress_functional_speedup = speedup

    if (not args.quick and kernel.status.available
            and "functional" in sims
            and compress_functional_speedup < SPEEDUP_FLOOR):
        failures.append(
            f"C replay only {compress_functional_speedup:.2f}x python on "
            f"compress/functional (need >= {SPEEDUP_FLOOR}x)"
        )

    table = render_generic(
        "Steady-state replay: python vs. C packed-chain backend "
        "(warm runs from a python-saved snapshot)",
        ["workload", "simulator", "python s", "c s", "speedup",
         "python ksps", "c ksps", "simulated", "equal", "backend"],
        [
            [
                r["workload"],
                r["simulator"],
                f"{r['python_seconds']:.3f}",
                f"{r['c_seconds']:.3f}",
                f"{r['speedup']:.2f}x",
                f"{r['python_ksps']:.1f}k",
                f"{r['c_ksps']:.1f}k",
                f"{r['simulated']:,}",
                "yes" if r["cycles_equal"] else "NO",
                r["c_backend_active"],
            ]
            for r in rows
        ],
    )
    out = results_dir(RESULTS_DIR, args.quick)
    (out / "cbackend.txt").write_text(table + "\n")
    (out / "BENCH_7.json").write_text(json.dumps(
        {
            "bench": "cbackend",
            "issue": 7,
            "version": 1,
            "quick": args.quick,
            "speedup_floor": SPEEDUP_FLOOR,
            "ckernel": {
                "available": kernel.status.available,
                "reason": kernel.status.reason,
                "compile_ms": kernel.status.compile_ms,
                "cached": kernel.status.cached,
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
    for r in rows:
        if r["workload"] == "compress" and r["simulator"] == "functional":
            print(
                f"OK: compress/functional C replay {r['speedup']:.2f}x "
                "python, identical simulation, 0 slow steps"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
