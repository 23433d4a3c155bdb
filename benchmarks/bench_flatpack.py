"""Flat-packed vs. object-tree action cache: replay rate and footprint.

Completed cache entries are flat-packed into contiguous parallel
streams (action numbers, interned placeholder-data indices, threaded
successor indices) and replayed by an index-threaded loop that chains
steps through likely-next links without returning to the driver.  This
benchmark quantifies both claimed wins on the paper's workloads:

* **steady-state replay rate** — chunked timing of the functional
  fast-forwarding simulator with the trace JIT off (so the interpreted
  replay loop is what's measured), packed vs. unpacked, asserting an
  identical simulated instruction stream and a >= 1.2x steady-state
  speedup.  The functional engine is where the record-walk overhead
  dominates (a few actions per step); it is the paper's Figure 11
  configuration.
* **Table 2 accounted footprint** — live accounted bytes at
  completion, packed (slots + jump tables + shared intern pool) vs.
  unpacked (per-record objects), asserting a reduction on every
  simulator measured.

The OOO facile rows and the hand-coded FastSim rows are informational
ablations: their step bodies are dominated by the action/event work
itself (dozens of events per cycle), so packing is a footprint win
there rather than a rate win.

Writes ``bench_results/flatpack.txt``; ``--quick`` writes it to a scratch
directory instead and prints it.

Run directly (not via pytest)::

    python benchmarks/bench_flatpack.py          # full run
    python benchmarks/bench_flatpack.py --quick  # small scale, CI gate
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
from repro.facile.runtime import FastForwardEngine
from repro.isa.simulate import _prepare_context, compiled_functional_sim
from repro.ooo.facile_ooo import FacileOooSim
from repro.ooo.fastsim import FastSimOoo
from repro.workloads.suite import build_cached

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"

SPEEDUP_FLOOR = 1.2


def run_functional(program, flat_pack, chunk):
    """Run the functional engine to completion in fixed-step chunks.

    The trace JIT is off so the measured loop is the cache replay
    itself — with it on, hot chains leave the interpreter and the
    packed/unpacked distinction mostly disappears behind compiled
    superblocks.
    """
    compiled = compiled_functional_sim().simulator
    ctx = _prepare_context(compiled, program)
    engine = FastForwardEngine(
        compiled, ctx, trace_jit=False, flat_pack=flat_pack,
    )
    chunk_seconds = []
    while not ctx.halted:
        t0 = time.perf_counter()
        engine.run(max_steps=chunk)
        chunk_seconds.append(time.perf_counter() - t0)
    return engine, ctx, chunk_seconds


def run_facile_ooo_chunked(program, flat_pack, chunk):
    sim = FacileOooSim(
        program, memoized=True, trace_jit=False, flat_pack=flat_pack,
    )
    chunk_seconds = []
    run = None
    while not sim.ctx.halted:
        t0 = time.perf_counter()
        run = sim.run(max_steps=chunk)
        chunk_seconds.append(time.perf_counter() - t0)
    return run, chunk_seconds


def run_fastsim_chunked(program, flat_pack, chunk):
    sim = FastSimOoo(program, memoize=True, flat_pack=flat_pack)
    chunk_seconds = []
    while not sim.done:
        t0 = time.perf_counter()
        sim.run(max_cycles=sim.stats.cycles + chunk)
        chunk_seconds.append(time.perf_counter() - t0)
    return sim, chunk_seconds


def steady_ksps(chunk_seconds, chunk):
    # Steady state: skip the first quarter of chunks (cold cache,
    # recording); the median steps-per-second of the rest.
    steady = chunk_seconds[len(chunk_seconds) // 4:] or chunk_seconds
    return chunk / max(statistics.median(steady), 1e-9) / 1000


def cache_cols(cache):
    stats = cache.stats
    return {
        "kb_live": stats.bytes_current / 1024,
        "bytes_current": stats.bytes_current,
        "recount": cache.recount_bytes(),
        "packs": stats.packs,
        "pool_saved_kb": cache.pool.bytes_saved / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default="compress,go",
        help="comma-separated workload names (default: compress,go)",
    )
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument(
        "--chunk", type=int, default=2_000, help="steps per timed chunk",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="functional-engine passes per form; best steady-state "
        "rate wins (suppresses host noise)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small scale, one pass, skip wall-clock assertions (CI "
        "gate: the stream/footprint/accounting contracts still fail "
        "hard)",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (2 if args.quick else None)
    repeat = 1 if args.quick else args.repeat
    rows = []
    failures = []
    for name in args.workloads.split(","):
        program = build_cached(name, scale)

        by_form = {}
        for flat_pack in (True, False):
            best = None
            for _ in range(repeat):
                engine, ctx, chunks = run_functional(program, flat_pack, args.chunk)
                rate = steady_ksps(chunks, args.chunk)
                if best is None or rate > best["steady_ksps"]:
                    best = {
                        "workload": name,
                        "label": "functional " + ("packed" if flat_pack else "unpacked"),
                        "simulated": ctx.retired_total,
                        "steady_ksps": rate,
                        **cache_cols(engine.cache),
                    }
                    best["regs"] = list(ctx.read_global("R"))
            by_form[flat_pack] = best
        packed, plain = by_form[True], by_form[False]
        ratio = packed["steady_ksps"] / max(plain["steady_ksps"], 1e-9)
        packed["ratio"] = ratio
        plain["ratio"] = 1.0
        rows += [packed, plain]

        if (packed["simulated"], packed["regs"]) != (plain["simulated"], plain["regs"]):
            failures.append(
                f"{name}: functional simulation diverges — packed retired "
                f"{packed['simulated']} vs unpacked {plain['simulated']}"
            )
        if not args.quick and ratio < SPEEDUP_FLOOR:
            failures.append(
                f"{name}: packed steady-state replay only {ratio:.2f}x unpacked "
                f"(need >= {SPEEDUP_FLOOR}x)"
            )

        ooo_packed_run, ooo_packed_chunks = run_facile_ooo_chunked(
            program, True, args.chunk)
        ooo_plain_run, ooo_plain_chunks = run_facile_ooo_chunked(
            program, False, args.chunk)
        ooo_rows = [
            {
                "workload": name,
                "label": f"ooo facile {tag}",
                "simulated": run.stats.cycles,
                "steady_ksps": steady_ksps(chunks, args.chunk),
                **cache_cols(run.engine.cache),
            }
            for tag, run, chunks in (
                ("packed", ooo_packed_run, ooo_packed_chunks),
                ("unpacked", ooo_plain_run, ooo_plain_chunks),
            )
        ]
        rows += ooo_rows
        if ooo_packed_run.stats.cycles != ooo_plain_run.stats.cycles:
            failures.append(
                f"{name}: ooo cycles diverge — packed={ooo_packed_run.stats.cycles} "
                f"unpacked={ooo_plain_run.stats.cycles}"
            )

        fs_packed, fs_packed_chunks = run_fastsim_chunked(program, True, args.chunk)
        fs_plain, fs_plain_chunks = run_fastsim_chunked(program, False, args.chunk)
        rows += [
            {
                "workload": name,
                "label": f"fastsim {tag}",
                "simulated": sim.stats.cycles,
                "steady_ksps": steady_ksps(chunks, args.chunk),
                "kb_live": sim.mstats.bytes_estimate / 1024,
                "bytes_current": sim.mstats.bytes_estimate,
                "recount": sim.recount_bytes(),
                "packs": sim.mstats.packs,
                "pool_saved_kb": sim.pool.bytes_saved / 1024,
            }
            for tag, sim, chunks in (
                ("packed", fs_packed, fs_packed_chunks),
                ("unpacked", fs_plain, fs_plain_chunks),
            )
        ]
        if fs_packed.stats.cycles != fs_plain.stats.cycles:
            failures.append(
                f"{name}: fastsim cycles diverge — packed={fs_packed.stats.cycles} "
                f"unpacked={fs_plain.stats.cycles}"
            )

        # Table 2 contract: the packed live footprint must be smaller
        # on every simulator, and both accountings must be exact.
        for packed_row, plain_row in (
            (packed, plain), tuple(ooo_rows), tuple(rows[-2:]),
        ):
            if not packed_row["kb_live"] < plain_row["kb_live"]:
                failures.append(
                    f"{name} {packed_row['label']}: footprint not reduced "
                    f"({packed_row['kb_live']:.1f}KB vs {plain_row['kb_live']:.1f}KB)"
                )
            for r in (packed_row, plain_row):
                if r["bytes_current"] != r["recount"]:
                    failures.append(
                        f"{name} {r['label']}: accounting leak — bytes_current="
                        f"{r['bytes_current']} but recount={r['recount']}"
                    )

    table = render_generic(
        f"Flat-packed vs. object-tree action cache "
        f"(trace JIT off, chunk={args.chunk})",
        ["workload", "simulator / cache form", "simulated", "steady ksps",
         "vs unpacked", "live KB", "packs", "pool saved KB"],
        [
            [
                r["workload"],
                r["label"],
                f"{r['simulated']:,}",
                f"{r['steady_ksps']:.1f}k",
                f"{r['ratio']:.2f}x" if "ratio" in r else "-",
                f"{r['kb_live']:.1f}",
                f"{r['packs']:,}",
                f"{r['pool_saved_kb']:.1f}",
            ]
            for r in rows
        ],
    )
    out = results_dir(RESULTS_DIR, args.quick)
    (out / "flatpack.txt").write_text(table + "\n")
    print(table)
    print(f"results written to {out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    for r in rows:
        if r["label"] == "functional packed":
            print(
                f"OK: {r['workload']} packed replay {r['ratio']:.2f}x unpacked "
                f"steady-state, footprint {r['kb_live']:.1f}KB, identical "
                f"simulation"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
