"""Workload and job definitions for the end-to-end benchmark.

A *job* is one (simulator, program, scale, machine config) run.  Each
workload holds a fixed round of jobs; a run repeats the round a number
of times fixed by ``--seconds`` alone, so the job set of a run never
depends on host speed.  The seed only shuffles the order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# MachineConfig fields the Facile compiler bakes into the generated
# simulator, in MachineConfig's positional order.
CONFIG_FIELDS = (
    "window_size", "fetch_width", "issue_width", "retire_width",
    "mispredict_penalty", "lat_ialu", "lat_mul", "lat_div", "lat_branch",
)


@dataclass(frozen=True)
class Job:
    sim: str  # "functional" | "inorder" | "ooo"
    program: str
    scale: int
    config: tuple[int, ...] | None = None  # None: the default MachineConfig

    @property
    def key(self) -> str:
        key = f"{self.sim}:{self.program}@{self.scale}"
        if self.config is not None:
            key += ":" + "-".join(map(str, self.config))
        return key

    def to_json(self) -> dict:
        return {"sim": self.sim, "program": self.program, "scale": self.scale,
                "config": list(self.config) if self.config else None}

    @classmethod
    def from_json(cls, d: dict) -> "Job":
        cfg = d.get("config")
        return cls(d["sim"], d["program"], d["scale"], tuple(cfg) if cfg else None)


def _cold_configs() -> list[tuple[int, ...]]:
    """48 distinct configs, none the default (its penalty is 3)."""
    out = []
    for window, width, penalty, lat_mul, lat_div in itertools.product(
        (8, 16, 32), (2, 4), (2, 5), (2, 4), (8, 16)
    ):
        out.append((window, width, width, width, penalty, 1, lat_mul, lat_div, 1))
    # A fixed interleave so that the first N configs of any run vary
    # every field, not only the last one of the product.
    return out[::5] + [c for i, c in enumerate(out) if i % 5]


COLD_CONFIGS = _cold_configs()


@dataclass(frozen=True)
class Workload:
    name: str
    # "process": every job is a fresh Python process.  "inproc": one
    # worker process runs every job of the run.
    mode: str
    # Seconds of --seconds that buy one round: a run holds
    # round(seconds / round_s) rounds, never fewer than one.  Chosen so
    # that --seconds 15 gives at least 21 jobs, enough for a tail with
    # ten jobs beyond it; README.md gives the resulting timed-phase
    # lengths on the 2-core reference box.
    round_s: float
    jobs: tuple[Job, ...]
    # True: a round is all of ``jobs``, and set-up seeds the snapshot
    # store with one cold run of each.  False: a round is the next job
    # of ``jobs``, so no job repeats within a run.
    warm: bool


def _grid(sims, programs) -> tuple[Job, ...]:
    return tuple(Job(s, p, sc) for p, sc in programs for s in sims)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        # Every simulator at default scale, on programs with large (go,
        # gcc) and small (mgrid, fpppp) action caches.  Import, compile
        # and snapshot I/O cost more than run() in a fresh process, so
        # per-process work shows.  Eleven kinds of job, not the full
        # twelve: with functional fpppp too, six fast kinds met six slow
        # ones at the median, which then moved with their extremes.
        Workload("warm-jobs", "process", 7.5, tuple(
            j for j in _grid(("functional", "inorder", "ooo"),
                             (("go", 2), ("gcc", 1), ("mgrid", 2), ("fpppp", 40)))
            if j.key != "functional:fpppp@40"), True),
        # Scales where warm run() time roughly doubles with the scale, so
        # kernel replay and native externs dominate and import and
        # compile are paid once.  Three kinds of job, each 8 times a
        # run: the median job then falls inside the middle kind's
        # times, not in the gap between two kinds.
        Workload("long-replay", "inproc", 1.875, (
            Job("ooo", "go", 32), Job("ooo", "mgrid", 32), Job("inorder", "go", 32)), True),
        # The write path: a new config per job, so every job compiles,
        # records its cache from empty, lowers new chains and saves a
        # snapshot.  One small program, so every job does like work and
        # the job-time percentiles do not fall between two programs.
        Workload("cold-configs", "inproc", 0.68, tuple(
            Job("ooo", "go", 1, cfg) for cfg in COLD_CONFIGS), False),
    )
}


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.round_s))


def job_list(name: str, seed: int, seconds: float) -> list[Job]:
    """The ordered jobs of one run.  The set depends only on the
    workload and ``seconds``; ``seed`` sets the order."""
    w = WORKLOADS[name]
    rng = random.Random(seed)
    if not w.warm:
        jobs = list(w.jobs[:rounds_for(w, seconds)])
        rng.shuffle(jobs)
        return jobs
    jobs = []
    for _ in range(rounds_for(w, seconds)):
        round_ = list(w.jobs)
        rng.shuffle(round_)
        jobs += round_
    return jobs


def all_jobs() -> list[Job]:
    """Every job any workload can run, for the reference generator."""
    return list({j.key: j for w in WORKLOADS.values() for j in w.jobs}.values())
