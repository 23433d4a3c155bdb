"""The on-disk compiled-simulator cache (``repro.facile.simcache``).

The contract under test: a cache hit yields exactly the simulator a
fresh compile does (same generated sources, same fingerprint, same
cycles); a missing, corrupt, truncated or foreign file degrades to a
recompile that overwrites it; concurrent first compiles both succeed;
and only the shipped entry points are cached — ``compile_source``,
with or without ``check=True``, still runs the real pipeline.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.facile import compile_cached, compile_source, simcache
from repro.facile.inspect import explain_division, why_dynamic
from repro.isa.facile_src import functional_sim_source
from repro.workloads.suite import WORKLOADS, build_cached
from tests.test_golden_cycles import GOLDEN

SRC = functional_sim_source()
NAME = "sparclite-functional"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "kernel-cache"
    monkeypatch.setenv("FACILE_CKERNEL_DIR", str(d))
    return d


def _entry(cache_dir: Path) -> Path:
    (path,) = cache_dir.glob(f"sim-*{simcache.SUFFIX}")
    return path


def _no_compile(monkeypatch):
    """Make any real compile fail the test: the next result must come
    from the cache file."""
    from repro.facile import compiler

    def boom(*args, **kwargs):
        raise AssertionError("compiled although the cache held the simulator")

    monkeypatch.setattr(compiler, "compile_source", boom)


def _same_simulator(a, b) -> None:
    for name in ("name", "slot_count", "global_slots", "init_slot",
                 "param_count", "init_flushed", "source_slow", "source_fast",
                 "source_plain", "division_summary", "action_bodies",
                 "action_spans", "fingerprint"):
        assert getattr(a, name) == getattr(b, name), name
    assert len(a.fast_actions) == len(b.fast_actions)


def test_hit_equals_fresh_compile(cache_dir, monkeypatch):
    fresh = compile_source(SRC, name=NAME)
    miss = compile_cached(SRC, name=NAME)
    assert _entry(cache_dir).exists()
    _no_compile(monkeypatch)
    hit = compile_cached(SRC, name=NAME)
    _same_simulator(hit.simulator, fresh.simulator)
    _same_simulator(miss.simulator, fresh.simulator)
    assert hit.n_dynamic_result_tests == fresh.n_dynamic_result_tests
    assert hit.n_constant_folds == fresh.n_constant_folds


def test_options_are_part_of_the_key(cache_dir):
    compile_cached(SRC, name=NAME)
    compile_cached(SRC, name=NAME, coalesce=False)
    compile_cached(SRC, name=NAME + "-b")
    assert len(list(cache_dir.glob(f"sim-*{simcache.SUFFIX}"))) == 3


def test_explain_division_works_on_a_hit(cache_dir, monkeypatch):
    fresh = compile_source(SRC, name=NAME)
    compile_cached(SRC, name=NAME)
    _no_compile(monkeypatch)
    hit = compile_cached(SRC, name=NAME)
    assert explain_division(hit) == explain_division(fresh)
    assert why_dynamic(hit, "R") == why_dynamic(fresh, "R")


def test_check_compile_is_uncached_and_reports(cache_dir):
    result = compile_source(
        "val init; fun main(pc) { init = pc + 4; }", check=True
    )
    assert [d.code for d in result.diagnostics] == ["FAC301"]
    assert not cache_dir.exists() or not list(cache_dir.iterdir())


def _damage(kind: str, blob: bytes) -> bytes:
    if kind == "empty":
        return b""
    if kind == "truncated":
        return blob[: len(blob) // 2]
    if kind == "corrupt":
        return blob[:-1] + bytes([blob[-1] ^ 0xFF])
    if kind == "magic":
        return b"NOTASIM!" + blob[8:]
    if kind == "python-magic":
        return blob[:8] + b"\0\0\r\n" + blob[12:]
    raise ValueError(kind)


@pytest.mark.parametrize(
    "kind", ("empty", "truncated", "corrupt", "magic", "python-magic"))
def test_bad_file_recompiles_and_overwrites(cache_dir, kind):
    fresh = compile_cached(SRC, name=NAME)
    path = _entry(cache_dir)
    good = path.read_bytes()
    path.write_bytes(_damage(kind, good))
    key = simcache.cache_key(SRC, _options())
    assert simcache.load(key) is None
    again = compile_cached(SRC, name=NAME)
    _same_simulator(again.simulator, fresh.simulator)
    assert len(path.read_bytes()) == len(good)
    hit = simcache.load(key)
    assert hit is not None
    _same_simulator(hit[0], fresh.simulator)


def test_foreign_file_is_a_miss(cache_dir):
    """A valid file stored under another key is not trusted."""
    compile_cached(SRC, name=NAME)
    key = simcache.cache_key(SRC, _options())
    other = simcache.cache_key(SRC, _options(coalesce=False))
    simcache.cache_path(other).write_bytes(_entry(cache_dir).read_bytes())
    assert simcache.load(key) is not None
    assert simcache.load(other) is None


def test_unwritable_cache_dir_is_not_fatal(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    monkeypatch.setenv("FACILE_CKERNEL_DIR", str(blocker / "sub"))
    result = compile_cached(SRC, name=NAME)
    assert result.simulator.fingerprint


def _options(**over) -> dict:
    opts = dict(name=NAME, filename="<facile>", with_plain=True,
                flush_policy="all", keep_flushed=("init",), coalesce=True,
                fold=True)
    opts.update(over)
    return opts


def _race_worker(queue) -> None:
    from repro.facile import compile_cached as cc

    queue.put(cc(SRC, name=NAME).simulator.fingerprint)


def test_racing_first_compiles_both_succeed(cache_dir):
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    procs = [ctx.Process(target=_race_worker, args=(queue,)) for _ in range(2)]
    for p in procs:
        p.start()
    prints = [queue.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    fresh = compile_source(SRC, name=NAME).simulator.fingerprint
    assert prints == [fresh, fresh]
    assert simcache.load(simcache.cache_key(SRC, _options())) is not None
    assert not list(cache_dir.glob("*.tmp.*"))


def test_golden_cycles_cold_and_warm(cache_dir, monkeypatch):
    """The shipped simulators give the pinned cycle counts whether they
    were compiled in this process or loaded from the cache."""
    from repro.isa import simulate
    from repro.ooo import facile_inorder, facile_ooo

    name = "compress"
    program = build_cached(name, WORKLOADS[name].test_scale)
    ooo_cycles, retired = GOLDEN[name][0], GOLDEN[name][1]
    inorder_cycles = GOLDEN[name][6]
    memos = (simulate.compiled_functional_sim, facile_inorder._compiled,
             facile_ooo._compiled_for)
    try:
        for phase in ("cold", "warm"):
            for memo in memos:
                memo.cache_clear()
            if phase == "warm":
                _no_compile(monkeypatch)
            assert simulate.run_facile_functional(program).retired == retired
            assert facile_inorder.run_facile_inorder(program).stats.cycles == (
                inorder_cycles)
            assert facile_ooo.run_facile_ooo(program).stats.cycles == ooo_cycles
            assert len(list(cache_dir.glob(f"sim-*{simcache.SUFFIX}"))) == 3
    finally:
        for memo in memos:
            memo.cache_clear()


_JOB = textwrap.dedent("""
    import json, sys
    from repro.facile.snapshot import engine_fingerprint, warm_start
    from repro.ooo.facile_ooo import FacileOooSim
    from repro.workloads.suite import build_cached

    program = build_cached("compress", 1)
    sim = FacileOooSim(program, replay_backend="c")
    warm = warm_start(sim.engine, engine_fingerprint(sim.compiled, program),
                      cache_dir=sys.argv[1])
    run = sim.run(max_steps=10**9)
    saved = warm.finish()
    print(json.dumps({
        "cycles": run.stats.cycles,
        "hit": warm.load_info.hit,
        "saved": saved.reason,
        "modules": sorted(m for m in sys.modules if m.startswith("repro.")),
    }))
""")


def test_warm_job_never_imports_the_front_end(tmp_path):
    env = dict(os.environ)
    env["FACILE_CKERNEL_DIR"] = str(tmp_path / "kernel-cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         env.get("PYTHONPATH", "")])
    store = str(tmp_path / "store")

    def job() -> dict:
        out = subprocess.run([sys.executable, "-c", _JOB, store], env=env,
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    cold = job()
    assert not cold["hit"]
    warm = job()
    assert warm["hit"] and warm["saved"] == "unchanged"
    assert warm["cycles"] == cold["cycles"]
    assert "repro.facile.codegen" in cold["modules"]
    for name in ("analysis", "parser", "sema", "bta", "inline", "codegen"):
        assert f"repro.facile.{name}" not in warm["modules"], name
