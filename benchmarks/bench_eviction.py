"""Full-clear vs. generational eviction under a tight cache limit.

The paper's §6.2 policy ("clear the whole cache and start recording
over") turns the byte limit into a periodic re-record storm: every
clear throws away the hot working set along with the cold entries.
Generational partial eviction reclaims only the coldest entries, so a
long-running workload keeps replaying its working set while memory
stays bounded.

This benchmark runs one workload three ways — unlimited, limited with
``clear``, limited with ``generational`` — using a limit tight enough
to force several full clears, and reports steady-state simulation rate
and worst-chunk latency (the stall a clear inflicts) for each.  It
asserts the contract from the issue: identical simulated cycles across
all three runs, strictly fewer re-recorded steps and no full clears
under generational eviction, and leak-free byte accounting.

Writes ``bench_results/eviction.txt``; ``--smoke`` writes it to a scratch
directory instead and prints it.

Run directly (not via pytest)::

    python benchmarks/bench_eviction.py          # full run
    python benchmarks/bench_eviction.py --smoke  # quick CI gate
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.reporting import render_generic, results_dir
from repro.ooo.facile_ooo import FacileOooSim
from repro.workloads.suite import build_cached

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


def run_chunked(program, limit, evict, chunk):
    """Run to completion in fixed-step chunks, timing each chunk.

    Chunked timing exposes what an aggregate wall-clock hides: a full
    clear makes the *next* chunk slow (it re-records everything), which
    is exactly the latency spike long campaigns care about.
    """
    sim = FacileOooSim(
        program, memoized=True,
        cache_limit_bytes=limit, cache_evict=evict,
    )
    chunk_seconds = []
    run = None
    while not sim.ctx.halted:
        t0 = time.perf_counter()
        run = sim.run(max_steps=chunk)
        chunk_seconds.append(time.perf_counter() - t0)
    return run, chunk_seconds


def summarize(label, run, chunk_seconds, chunk):
    stats = run.engine.cache.stats
    total = sum(chunk_seconds)
    # Steady state: skip the first quarter of chunks (cold cache, trace
    # compilation); the median steps-per-second of the rest.
    steady = chunk_seconds[len(chunk_seconds) // 4:] or chunk_seconds
    steady_ksps = chunk / max(statistics.median(steady), 1e-9) / 1000
    return {
        "label": label,
        "cycles": run.stats.cycles,
        "retired": run.stats.retired,
        "kips": run.stats.retired / max(total, 1e-9) / 1000,
        "steady_ksps": steady_ksps,
        "worst_ms": max(steady) * 1000,
        "steps_slow": run.run_stats.steps_slow,
        "clears": stats.clears,
        "evictions": stats.evictions,
        "bytes_current": stats.bytes_current,
        "recount": run.engine.cache.recount_bytes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="compress")
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument(
        "--limit-frac", type=float, default=0.25,
        help="cache limit as a fraction of the unlimited footprint",
    )
    parser.add_argument("--chunk", type=int, default=2_000, help="steps per timed chunk")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scale, skip wall-clock assertions (CI gate: the "
        "cycle/steps_slow/accounting contracts still fail hard)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="alias for --smoke",
    )
    args = parser.parse_args(argv)
    args.smoke = args.smoke or args.quick

    scale = args.scale if args.scale is not None else (2 if args.smoke else None)
    program = build_cached(args.workload, scale)

    base_run, base_chunks = run_chunked(program, None, "clear", args.chunk)
    footprint = base_run.engine.cache.stats.bytes_current
    limit = max(int(footprint * args.limit_frac), 4_096)

    clear_run, clear_chunks = run_chunked(program, limit, "clear", args.chunk)
    gen_run, gen_chunks = run_chunked(program, limit, "generational", args.chunk)

    rows = [
        summarize("unlimited", base_run, base_chunks, args.chunk),
        summarize("clear", clear_run, clear_chunks, args.chunk),
        summarize("generational", gen_run, gen_chunks, args.chunk),
    ]

    table = render_generic(
        f"Eviction policy under a tight limit "
        f"({args.workload}, limit={limit:,}B = "
        f"{args.limit_frac:.2f}x footprint, chunk={args.chunk})",
        ["policy", "cycles", "kips", "steady ksps", "worst chunk",
         "slow steps", "clears", "evictions", "live bytes"],
        [
            [
                r["label"],
                f"{r['cycles']:,}",
                f"{r['kips']:.1f}k",
                f"{r['steady_ksps']:.1f}k",
                f"{r['worst_ms']:.1f}ms",
                f"{r['steps_slow']:,}",
                str(r["clears"]),
                str(r["evictions"]),
                f"{r['bytes_current']:,}",
            ]
            for r in rows
        ],
    )
    out = results_dir(RESULTS_DIR, args.smoke)
    (out / "eviction.txt").write_text(table + "\n")
    print(table)
    print(f"results written to {out}")

    base, clear, gen = rows
    failures = []
    if not (base["cycles"] == clear["cycles"] == gen["cycles"]):
        failures.append(
            f"simulated cycles diverge: unlimited={base['cycles']} "
            f"clear={clear['cycles']} generational={gen['cycles']}"
        )
    if clear["clears"] < 3:
        failures.append(
            f"limit too loose: only {clear['clears']} full clears (need >= 3)"
        )
    if gen["clears"] != 0:
        failures.append(f"generational run fell back to {gen['clears']} full clears")
    if gen["evictions"] == 0:
        failures.append("generational run never evicted")
    if not gen["steps_slow"] < clear["steps_slow"]:
        failures.append(
            f"generational re-recorded no fewer steps "
            f"({gen['steps_slow']} vs {clear['steps_slow']})"
        )
    for r in rows:
        if r["bytes_current"] != r["recount"]:
            failures.append(
                f"{r['label']}: accounting leak — bytes_current="
                f"{r['bytes_current']} but record-tree walk={r['recount']}"
            )
    if not args.smoke and not gen["steady_ksps"] > clear["steady_ksps"]:
        failures.append(
            f"generational steady-state rate not higher "
            f"({gen['steady_ksps']:.1f}k vs {clear['steady_ksps']:.1f}k)"
        )

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(
        f"OK: generational re-recorded "
        f"{clear['steps_slow'] - gen['steps_slow']:,} fewer steps "
        f"({clear['steps_slow']:,} -> {gen['steps_slow']:,}) "
        f"with identical simulated cycles"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
