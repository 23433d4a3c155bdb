"""End-to-end benchmark of the Facile simulators (see README.md).

    python3 simbench/run.py --workload warm-jobs --seed 1 --seconds 15 --trace 0

Every run sets up three times in fresh temp roots (C kernel build,
program builds, snapshot seeding), runs the workload's jobs with the C
replay backend, checks every job against the hand-written reference
simulators and prints one JSON result as the last stdout line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Times are reported at the reference host's speed (see at_reference_speed);
the info line before the result holds them as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TMP_PARENT = ROOT / ".simbench-tmp"
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, job_list, rounds_for  # noqa: E402
from reference import check, load_table  # noqa: E402
from worker import loop_probe, process_probe  # noqa: E402

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
PROCESS_JOB_TIMEOUT_S = 60
INPROC_TIMEOUT_S = 150
# Ten jobs must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# Typical probe samples on the 2-core reference box (Intel Xeon, Python
# 3.11.7).  That box's speed swings by up to 1.6x for minutes at a time,
# whatever runs on it, so times are reported at these reference speeds:
# see slowness and at_reference_speed.
PROCESS_PROBE_REF_S = 0.11
LOOP_PROBE_REF_S = 0.0072
# Metrics timed in the set-up phase; every other time is of the timed phase.
SETUP_METRICS = ("setup_s", "cbackend.kernel_build_s")


class SetupError(RuntimeError):
    pass


def _last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def make_root(root: pathlib.Path) -> dict:
    """Directories and environment of one isolated set-up: kernel cache,
    snapshot store, bytecode cache and TMPDIR all live under ``root``."""
    dirs = {name: root / name for name in ("kernel", "store", "tmp", "pycache")}
    for d in dirs.values():
        d.mkdir(parents=True)
    env = dict(os.environ)
    # Bytecode is written to and read from the root's own cache whatever
    # the caller's environment says, so every run does the same work.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        TMPDIR=str(dirs["tmp"]),
        FACILE_CKERNEL_DIR=str(dirs["kernel"]),
        PYTHONPYCACHEPREFIX=str(dirs["pycache"]),
        PYTHONHASHSEED="0",
    )
    return {"env": env, "store": str(dirs["store"])}


def setup(workload: str, root: pathlib.Path, table: dict) -> dict:
    """One timed set-up in a fresh process and temp root."""
    iso = make_root(root)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "setup", "--store", iso["store"], workload],
            env=iso["env"], cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"set-up took longer than {SETUP_TIMEOUT_S} s") from exc
    iso["setup_s"] = time.perf_counter() - t0
    try:
        out = _last_json(proc.stdout)
    except json.JSONDecodeError:
        out = {}
    status = out.get("backend", {})
    if status.get("active") != "c":
        raise SetupError(
            f"replay backend is {status.get('active')!r}, not 'c' "
            f"({status.get('reason') or proc.stderr.strip()[-400:]})")
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr[-400:]}")
    for res in out["seeded"]:
        why = check(res["key"], res, table)
        if why:
            raise SetupError(f"seed job {res['key']} failed: {why}")
    iso["kernel_build_s"] = status["compile_ms"] / 1000.0
    return iso


def _worker(jobs, iso: dict, trace: bool, timeout: float) -> tuple[dict, float]:
    """Run ``jobs`` in one fresh worker process; returns its output and
    its wall time from launch to exit."""
    cmd = [sys.executable, str(WORKER), "jobs", "--store", iso["store"],
           "--trace", str(int(trace)), json.dumps([j.to_json() for j in jobs])]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=iso["env"], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        wall = time.perf_counter() - t0
        out = _last_json(proc.stdout) if proc.returncode == 0 else {}
        err = f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        wall, out, err = time.perf_counter() - t0, {}, "timeout"
    except json.JSONDecodeError:
        wall, out, err = time.perf_counter() - t0, {}, "unreadable worker output"
    if not out:
        out = {"results": [{"key": j.key, "error": err, "wall_s": wall / len(jobs)}
                           for j in jobs], "spans": [], "root_s": wall, "maxrss_mb": 0.0,
               "probes": []}
    return out, wall


def run_timed(workload: str, jobs, iso: dict, trace: bool) -> dict:
    """The timed phase: closed loop, one job in flight."""
    results, spans, procs, probes = [], [], [], []
    if WORKLOADS[workload].mode == "process":
        for i, job in enumerate(jobs):
            probes.append(process_probe())
            out, wall = _worker([job], iso, trace, PROCESS_JOB_TIMEOUT_S)
            # A job's wall time runs from process launch to exit.
            out["results"][0]["wall_s"] = wall
            results += out["results"]
            base = len(spans)
            spans += [[name, t0, t1, parent + base if parent >= 0 else -1, i]
                      for name, t0, t1, parent, _job in out["spans"]]
            procs.append((wall, out["root_s"], out["maxrss_mb"]))
    else:
        out, wall = _worker(jobs, iso, trace, INPROC_TIMEOUT_S)
        # A worker that failed sent no samples: take one here instead.
        results, spans, probes = out["results"], out["spans"], out["probes"] or [loop_probe()]
        procs.append((wall, out["root_s"], out["maxrss_mb"]))
    return {"results": results, "spans": spans, "procs": procs, "probes": probes}


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND jobs beyond it; the maximum when the run is too short."""
    w = sorted(walls)
    k = len(w) - 1 - TAIL_BEYOND
    if k < 0:
        return w[-1], 100.0
    return w[k], 100.0 * k / max(1, len(w) - 1)


def dir_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in pathlib.Path(path).rglob("*") if p.is_file())


def job_figures(walls: list[float], retired: int) -> dict:
    """The metrics that come from job wall times alone."""
    return {
        "sim_kips": (retired / sum(walls) / 1000.0, "kips"),
        "job_s_p50": (statistics.median(walls), "s"),
        "job_s_tail": (tail(walls)[0], "s"),
    }


def end_to_end(timed: dict, ok: int, setups: list[dict], store_bytes: int) -> dict:
    res = timed["results"]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        **job_figures([r["wall_s"] for r in res], sum(r.get("retired", 0) for r in res)),
        "peak_rss_mb": (max(p[2] for p in timed["procs"]), "MB"),
        "store_mb": (store_bytes / 1e6, "MB"),
        "ok_ratio": (ok / len(res), "ratio"),
    }


def self_times(spans: list) -> dict[str, float]:
    """Total self time per span name: a span's duration minus the time
    its children cover (children are sequential, never overlapping)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, *_) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def per_layer(timed: dict, setups: list[dict], probe_s: float) -> dict:
    """Per-layer metrics of a traced run; ``probe_s`` is the run's median
    process-probe sample, reported as measured."""
    res = timed["results"]
    n = len(res)
    ok = [r for r in res if "run" in r]
    timing = [r for r in ok if "stats" in r]
    selfs = self_times(timed["spans"])

    def total(field: str, sub: str | None = None) -> int:
        return sum((r.get(sub, {}) if sub else r).get(field, 0) for r in ok)

    def run_total(field: str) -> int:
        return sum(r["run"][field] for r in ok)

    run_s_timing = sum(
        e - s for name, s, e, _p, job in timed["spans"]
        if name == "runtime.run" and "stats" in res[job])
    cycles = sum(r["stats"][0] for r in timing)
    ext_native = total("extern_native", "native")
    ext_all = ext_native + total("extern_python", "native")
    steps = run_total("steps_total")
    figures = job_figures([r["wall_s"] for r in res], total("retired"))
    m = {
        "job.process_s": (sum(w - root for w, root, _ in timed["procs"]) / n, "s"),
        "import.s": (selfs.get("import", 0.0) / n, "s"),
        "workloads.build_s": (selfs.get("workloads.build", 0.0) / n, "s"),
        "facile.compile_s": (selfs.get("facile.compile", 0.0) / n, "s"),
        "engine.init_s": (selfs.get("engine.init", 0.0) / n, "s"),
        "snapshot.load_s": (selfs.get("snapshot.load", 0.0) / n, "s"),
        "snapshot.entries": (total("load_entries"), "count"),
        "snapshot.hit_ratio": (sum(r["load_hit"] for r in ok) / n, "ratio"),
        "runtime.run_s": (selfs.get("runtime.run", 0.0) / n, "s"),
        "runtime.host_ns_per_cycle": (run_s_timing / cycles * 1e9 if cycles else 0.0, "ns"),
        "runtime.steps_fast": (run_total("steps_fast"), "count"),
        "runtime.steps_slow": (run_total("steps_slow"), "count"),
        "runtime.steps_recovered": (run_total("steps_recovered"), "count"),
        "runtime.fast_ratio": (run_total("steps_fast") / steps if steps else 0.0, "ratio"),
        "cbackend.kernel_build_s": (
            statistics.median(s["kernel_build_s"] for s in setups), "s"),
        "cbackend.chains_lowered": (total("chains_lowered", "native"), "count"),
        "cbackend.chains_unlowerable": (total("chains_unlowerable", "native"), "count"),
        "cbackend.python_fallbacks": (total("python_fallbacks", "native"), "count"),
        "cbackend.kernel_runs": (total("kernel_runs", "native"), "count"),
        "cbackend.native_extern_ratio": (ext_native / ext_all if ext_all else 0.0, "ratio"),
        "snapshot.save_s": (selfs.get("snapshot.save", 0.0) / n, "s"),
        "snapshot.saved_mb": (total("save_bytes") / 1e6, "MB"),
        "sim.cycles": (cycles, "count"),
        "sim.retired": (total("retired"), "count"),
        "sim.mispredicts": (sum(r["stats"][3] for r in timing), "count"),
        "bench.host_probe_s": (probe_s, "s"),
        "trace.job_s_p50": figures["job_s_p50"],
        "trace.sim_kips": figures["sim_kips"],
    }
    return m


def slowness(workload: str, setup_probes: list[float], timed_probes: list[float],
             jobs: int) -> tuple[dict, list[float]]:
    """How much slower than the reference box the host ran: for each
    phase, its median probe sample over the reference sample; for each
    job, the sample taken just before it.  Set-ups and warm-jobs jobs are
    fresh processes, measured by process probes; the jobs of an
    in-process workload run in one long-lived worker, measured by that
    worker's loop probes."""
    timed_ref = (PROCESS_PROBE_REF_S if WORKLOADS[workload].mode == "process"
                 else LOOP_PROBE_REF_S)
    phases = {"setup": statistics.median(setup_probes) / PROCESS_PROBE_REF_S,
              "timed": statistics.median(timed_probes) / timed_ref}
    if len(timed_probes) != jobs:  # a failed worker: one sample for all
        return phases, [phases["timed"]] * jobs
    return phases, [p / timed_ref for p in timed_probes]


def at_reference_speed(metrics: dict, slow: dict) -> dict:
    """Each metric as the reference box reads it at its usual speed:
    times divided by their phase's slowness, rates multiplied by it.
    Counts, sizes, ratios and the probe itself are left as measured."""
    out = {}
    for name, (value, unit) in metrics.items():
        factor = slow["setup"] if name in SETUP_METRICS else slow["timed"]
        if unit in ("s", "ns") and name != "bench.host_probe_s":
            value /= factor
        elif unit == "kips":
            value *= factor
        out[name] = (value, unit)
    return out


def environment() -> dict:
    def first_line(cmd):
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
            return p.stdout.strip().splitlines()[0] if p.returncode == 0 else None
        except (OSError, subprocess.SubprocessError, IndexError):
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cc": first_line(["cc", "--version"]),
        "python": sys.version.split()[0],
        # --git-dir: outside a git checkout, report none rather than the
        # HEAD of whatever repository encloses the directory.
        "git_sha": first_line(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"]),
        "src_sha256": digest.hexdigest()[:16],
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    table = load_table()
    jobs = job_list(workload, seed, seconds)
    run_root = TMP_PARENT / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        setup_probes, setups = [], []
        for i in range(SETUP_REPEATS):
            setup_probes.append(process_probe())
            setups.append(setup(workload, run_root / f"setup-{i}", table))
            setup_probes.append(process_probe())
        iso = setups[-1]
        timed = run_timed(workload, jobs, iso, trace)
        store_bytes = dir_bytes(iso["store"])
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    failures = []
    for r in timed["results"]:
        why = check(r["key"], r, table)
        if why:
            failures.append(f"{r['key']}: {why}")
    ok = len(timed["results"]) - len(failures)
    walls = [r["wall_s"] for r in timed["results"]]
    process_probes = setup_probes + (
        timed["probes"] if WORKLOADS[workload].mode == "process" else [])
    measured = (per_layer(timed, setups, statistics.median(process_probes)) if trace
                else end_to_end(timed, ok, setups, store_bytes))
    slow, job_slow = slowness(workload, setup_probes, timed["probes"], len(jobs))
    metrics = at_reference_speed(measured, slow)
    # Job times are scaled one by one, each by the sample just before it:
    # the host can change speed within a run.
    prefix = "trace." if trace else ""
    ref_walls = [w / s for w, s in zip(walls, job_slow)]
    retired = sum(r.get("retired", 0) for r in timed["results"])
    for name, value in job_figures(ref_walls, retired).items():
        if prefix + name in metrics:
            metrics[prefix + name] = value
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "jobs": len(jobs), "rounds": rounds_for(WORKLOADS[workload], seconds),
        "tail_percentile": round(tail(walls)[1], 1),
        "setup_s": [round(s["setup_s"], 4) for s in setups],
        "probes": {phase: {"median": statistics.median(p), "min": min(p), "max": max(p),
                           "samples": len(p)}
                   for phase, p in (("setup", setup_probes), ("timed", timed["probes"]))},
        "slowness": slow,
        "measured": {k: v for k, (v, _unit) in measured.items()},
        "failures": failures[:10],
        "walls": [[r["key"], round(r["wall_s"], 5)] for r in timed["results"]],
        "timed_probes": [round(p, 6) for p in timed["probes"]],
        **environment(),
    }
    if trace:
        info["self_s_per_job"] = {
            k: round(v / len(jobs), 5) for k, v in sorted(self_times(timed["spans"]).items())}
        info["per_job"] = [
            {"key": r["key"], "wall_s": round(r["wall_s"], 4),
             **{name: round(e - s, 4) for name, s, e, _p, job in timed["spans"]
                if job == i and name in ("facile.compile", "runtime.run")},
             "steps_slow": r.get("run", {}).get("steps_slow")}
            for i, r in enumerate(timed["results"])]
    result = {
        "correct": not failures,
        "attempted": len(timed["results"]),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
