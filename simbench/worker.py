"""Child process of the benchmark: set-up, and job execution.

    worker.py setup --store DIR WORKLOAD
        Build the C kernel (through the first C engine), build the
        workload's programs and seed its snapshot store with cold runs.
        Exits 3 when the engine's replay backend is not "c".
    worker.py jobs --store DIR --trace 0|1 JOBS_JSON
        Run the jobs one after another in this process.

Both print one JSON object on stdout.  The kernel and bytecode caches
come from the environment the parent sets (TMPDIR, FACILE_CKERNEL_DIR,
PYTHONPYCACHEPREFIX).
"""

import time

_T0 = time.perf_counter()  # start of the process's root span

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from jobs import CONFIG_FIELDS, WORKLOADS, Job  # noqa: E402

MAX_STEPS = 10**9
_NULL = contextlib.nullcontext()
# Host-speed samples.  Each kind does the work of the phase it scales
# (README.md, "Host speed") and none of the program under test.
# A fresh interpreter that loads a few standard modules, as a set-up or
# a warm-jobs job does.  -I -B: the same work whatever the environment,
# and no bytecode written anywhere.
PROCESS_PROBE_CMD = [
    sys.executable, "-I", "-B", "-c",
    "import argparse, contextlib, dataclasses, json, pathlib, statistics\n"
    "acc = 0\n"
    "for i in range(60_000):\n"
    "    acc = (acc + i * i) % 1_000_003\n"]


def process_probe() -> float:
    """Seconds PROCESS_PROBE_CMD takes."""
    t0 = time.perf_counter()
    subprocess.run(PROCESS_PROBE_CMD, check=True)
    return time.perf_counter() - t0


def loop_probe() -> float:
    """Seconds a fixed loop takes inside this process, the fastest of
    three tries: the speed of a long-lived worker.  The loop runs on
    function locals: run as module code through exec(), its global
    lookups made the samples swing by 40% from run to run."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


class Tracer:
    """Spans (name, start, end, parent, job) kept in memory; the parent
    process gets them with the job results when the process ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.job]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()


def _import_runners():
    global FastForwardEngine, MachineConfig, FacileInOrderSim, FacileOooSim
    global build_cached, read_out_buffer, engine_fingerprint, warm_start
    global compiled_functional_sim, compiled_inorder_sim, compiled_ooo_sim
    global prepare_functional_context
    from repro.facile import FastForwardEngine
    from repro.facile.snapshot import engine_fingerprint, warm_start
    from repro.isa.simulate import _prepare_context as prepare_functional_context
    from repro.isa.simulate import compiled_functional_sim
    from repro.ooo.common import MachineConfig
    from repro.ooo.facile_inorder import FacileInOrderSim, compiled_inorder_sim
    from repro.ooo.facile_ooo import FacileOooSim, compiled_ooo_sim
    from repro.workloads.minic import read_out_buffer
    from repro.workloads.suite import build_cached


def run_job(job: Job, store: str, tr: Tracer) -> dict:
    """One warm-start-capable run of ``job`` against ``store``."""
    with tr.span("workloads.build"):
        program = build_cached(job.program, job.scale)
    config = (MachineConfig(**dict(zip(CONFIG_FIELDS, job.config)))
              if job.config else None)
    with tr.span("facile.compile"):
        if job.sim == "functional":
            compiled = compiled_functional_sim().simulator
        elif job.sim == "inorder":
            compiled = compiled_inorder_sim(config).simulator
        else:
            compiled = compiled_ooo_sim(config).simulator
    with tr.span("engine.init"):
        if job.sim == "functional":
            ctx = prepare_functional_context(compiled, program)
            engine = FastForwardEngine(compiled, ctx, replay_backend="c")
        else:
            cls = FacileInOrderSim if job.sim == "inorder" else FacileOooSim
            sim = cls(program, config, replay_backend="c")
            ctx, engine = sim.ctx, sim.engine
    with tr.span("snapshot.load"):
        warm = warm_start(engine, engine_fingerprint(compiled, program),
                          cache_dir=store)
    with tr.span("runtime.run"):
        if job.sim == "functional":
            run_stats = engine.run(max_steps=MAX_STEPS)
        else:
            run = sim.run(max_steps=MAX_STEPS)
            run_stats = run.run_stats
    with tr.span("snapshot.save"):
        saved = warm.finish()

    res = {
        "halted": bool(ctx.halted),
        "out": read_out_buffer(ctx.mem),
        "retired": ctx.retired_total,
        "backend": engine.backend_status["active"],
        "kernel_ms": engine.backend_status["compile_ms"],
        "run": {k: getattr(run_stats, k) for k in
                ("steps_total", "steps_fast", "steps_slow", "steps_recovered")},
        "load_hit": bool(warm.load_info and warm.load_info.hit),
        "load_entries": warm.load_info.entries if warm.load_info else 0,
        "save_bytes": saved.file_bytes if saved else 0,
    }
    if job.sim != "functional":
        st = run.stats
        res["stats"] = [st.cycles, st.retired, st.branches, st.mispredicts,
                        st.loads, st.stores]
    native = getattr(engine, "_cnative", None)
    if native is not None:
        s = native.summary()
        res["native"] = {
            "chains_lowered": s["chains_lowered"],
            "chains_unlowerable": s["chains_unlowerable"],
            "python_fallbacks": s["python_fallbacks"],
            "kernel_runs": s["runs"],
            "extern_native": sum(c["native"] for c in s["externs"].values()),
            "extern_python": sum(c["python"] for c in s["externs"].values()),
        }
    return res


def _timed_job(job: Job, store: str, tr: Tracer, job_id: int) -> dict:
    tr.job = job_id
    t0 = time.perf_counter()
    try:
        with tr.span("job"):
            res = run_job(job, store, tr)
    except Exception as exc:  # a failed job is reported, the rest still run
        res = {"error": f"{type(exc).__name__}: {exc}"}
    res["wall_s"] = time.perf_counter() - t0
    res["key"] = job.key
    tr.job = None
    return res


def cmd_setup(workload: str, store: str) -> int:
    w = WORKLOADS[workload]
    _import_runners()
    programs = sorted({(j.program, j.scale) for j in w.jobs})
    for name, scale in programs:
        build_cached(name, scale)
    # The first C engine of the process builds the kernel.
    status = dict(FacileOooSim(build_cached(*programs[0]),
                               replay_backend="c").engine.backend_status)
    out = {"backend": status, "seeded": []}
    if status["active"] != "c":
        print(json.dumps(out))
        return 3
    if w.warm:
        tr = Tracer(False)
        out["seeded"] = [_timed_job(j, store, tr, i) for i, j in enumerate(w.jobs)]
    print(json.dumps(out))
    return 0


def cmd_jobs(store: str, trace: bool, jobs_json: str) -> int:
    tr = Tracer(trace)
    jobs = [Job.from_json(d) for d in json.loads(jobs_json)]
    with tr.span("import"):
        _import_runners()
    results, probes = [], []
    for i, job in enumerate(jobs):
        # A process that runs one job leaves host sampling to the parent,
        # which owns the job's launch-to-exit wall time.
        if len(jobs) > 1:
            probes.append(loop_probe())
        res = _timed_job(job, store, tr, i)
        if len(jobs) > 1:
            # Each job's garbage is collected right after it, on its own
            # time: left to the automatic collector, it would be paid by
            # whichever later job triggers a full collection.
            t0 = time.perf_counter()
            gc.collect()
            res["wall_s"] += time.perf_counter() - t0
        results.append(res)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "results": results,
        "spans": tr.spans,
        "root_s": time.perf_counter() - _T0,
        "maxrss_mb": maxrss_mb,
        "probes": probes,
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--store", required=True)
    s.add_argument("workload", choices=sorted(WORKLOADS))
    j = sub.add_parser("jobs")
    j.add_argument("--store", required=True)
    j.add_argument("--trace", type=int, choices=(0, 1), default=0)
    j.add_argument("jobs")
    args = ap.parse_args()
    if args.cmd == "setup":
        return cmd_setup(args.workload, args.store)
    return cmd_jobs(args.store, bool(args.trace), args.jobs)


if __name__ == "__main__":
    sys.exit(main())
