"""Tests of the benchmark itself:  python3 -m pytest simbench -q"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_job_lists_identical_across_seeds_apart_from_order(name):
    orders = [[j.key for j in jobs.job_list(name, seed, RUN_SECONDS)]
              for seed in range(6)]
    assert all(sorted(o) == sorted(orders[0]) for o in orders)
    assert len({tuple(o) for o in orders}) > 1


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_run_holds_ten_jobs_beyond_the_tail(name):
    walls = [float(i) for i in range(len(jobs.job_list(name, 0, RUN_SECONDS)))]
    value, pct = run.tail(walls)
    assert pct >= 50.0
    assert sum(w > value for w in walls) == run.TAIL_BEYOND


def test_every_job_has_a_reference_value():
    table = reference.load_table()
    assert [j.key for j in jobs.all_jobs() if j.key not in table] == []


def test_reference_check_fails_a_cycle_count_off_by_one():
    table = reference.load_table()
    key = jobs.Job("ooo", "go", 2).key
    ref = table[key]
    good = {"halted": True, "out": ref["out"], "stats": list(ref["stats"]),
            "retired": ref["stats"][1]}
    assert reference.check(key, good, table) == ""
    off = dict(good, stats=[ref["stats"][0] + 1] + ref["stats"][1:])
    assert "stats" in reference.check(key, off, table)
    assert "halt" in reference.check(key, dict(good, halted=False), table)


@pytest.mark.parametrize("seconds", [1, RUN_SECONDS, 60, 3600])
def test_cold_configs_never_repeats_a_config(seconds):
    for seed in range(4):
        configs = [j.config for j in jobs.job_list("cold-configs", seed, seconds)]
        assert None not in configs
        assert len(set(configs)) == len(configs)


def test_setup_refuses_a_degraded_backend(tmp_path, monkeypatch):
    monkeypatch.setenv("FACILE_NO_CC", "1")
    with pytest.raises(run.SetupError, match="is 'python', not 'c'.*FACILE_NO_CC"):
        run.setup("cold-configs", tmp_path / "root", reference.load_table())
