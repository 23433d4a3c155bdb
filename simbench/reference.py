"""Reference values for every benchmark job, and the check against them.

The values come from the hand-written simulators, never from the
Facile compiler under test: the ``out()`` checksum and the retired count
of a functional job from ``isa.funcsim.FunctionalSim``; the (cycles,
retired, branches, mispredicts, loads, stores) tuple from
``ooo.reference.run_reference`` (ooo) or ``ooo.inorder.run_inorder``
(inorder).

Regenerate ``reference.json`` after a deliberate timing-model change:

    python3 simbench/reference.py --write      # ~8 min on 2 cores; one process per core
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_JSON = HERE / "reference.json"
STAT_FIELDS = ("cycles", "retired", "branches", "mispredicts", "loads", "stores")


def load_table() -> dict:
    return json.loads(REFERENCE_JSON.read_text())["jobs"]


def check(key: str, result: dict, table: dict) -> str:
    """'' when the job halted and matches its reference, else why not."""
    ref = table.get(key)
    if ref is None:
        return "no reference value"
    if result.get("error"):
        return result["error"]
    if not result.get("halted"):
        return "did not halt within the step budget"
    if result.get("out") != ref["out"]:
        return f"out() {result.get('out')} != reference {ref['out']}"
    if "stats" in ref:
        if result.get("stats") != ref["stats"]:
            return f"stats {result.get('stats')} != reference {ref['stats']}"
    elif result.get("retired") != ref["retired"]:
        return f"retired {result.get('retired')} != reference {ref['retired']}"
    return ""


def _reference_for(job_json: dict) -> tuple[str, dict]:
    from jobs import CONFIG_FIELDS, Job
    from repro.isa.funcsim import FunctionalSim
    from repro.ooo.common import MachineConfig
    from repro.ooo.inorder import run_inorder
    from repro.ooo.reference import run_reference
    from repro.workloads.minic import read_out_buffer
    from repro.workloads.suite import build_cached

    job = Job.from_json(job_json)
    program = build_cached(job.program, job.scale)
    golden = FunctionalSim.for_program(program)
    golden.run(10**9)
    if not golden.halted:
        raise RuntimeError(f"{job.key}: golden model did not halt")
    ref: dict = {"out": read_out_buffer(golden.mem)}
    config = (MachineConfig(**dict(zip(CONFIG_FIELDS, job.config)))
              if job.config else None)
    if job.sim == "functional":
        ref["retired"] = golden.instret
    elif job.sim == "ooo":
        sim = run_reference(program, config, max_cycles=10**9)
        if not sim.done:
            raise RuntimeError(f"{job.key}: reference ooo did not finish")
        ref["stats"] = [getattr(sim.stats, f) for f in STAT_FIELDS]
    else:
        sim = run_inorder(program, config)
        if not sim.func.halted:
            raise RuntimeError(f"{job.key}: reference inorder did not halt")
        ref["stats"] = [getattr(sim.stats, f) for f in STAT_FIELDS]
    return job.key, ref


def _init_worker() -> None:
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def generate() -> dict:
    _init_worker()
    from jobs import all_jobs

    # Longest first, so the pool does not end on one long straggler.
    jobs = sorted(all_jobs(), key=lambda j: -j.scale)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count(), initializer=_init_worker) as pool:
        pairs = pool.map(_reference_for, [j.to_json() for j in jobs], chunksize=1)
    return dict(sorted(pairs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="write reference.json")
    args = ap.parse_args()
    table = generate()
    text = json.dumps({"jobs": table}, indent=1, sort_keys=True) + "\n"
    if args.write:
        REFERENCE_JSON.write_text(text)
        print(f"wrote {len(table)} reference entries to {REFERENCE_JSON}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
