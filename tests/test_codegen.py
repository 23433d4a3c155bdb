"""Unit tests for code generation: emitted source structure, extern
calls, the ?verify dynamic-result pin, and the paper's cache-simulator
interaction pattern (§2.2)."""

import pytest

from repro.facile import FastForwardEngine, PlainEngine, compile_source
from repro.facile.builtins import idiv, imod

HEADER = "val init = 0;\n"


def build(src, **kwargs):
    return compile_source(HEADER + src, **kwargs)


def run_engine(result, externs=None, init=0, max_steps=100, memoized=True, cache_limit=None):
    sim = result.simulator
    ctx = sim.make_context(externs or {})
    ctx.write_global("init", init)
    if memoized:
        engine = FastForwardEngine(sim, ctx, cache_limit_bytes=cache_limit)
    else:
        engine = PlainEngine(sim, ctx)
    stats = engine.run(max_steps=max_steps)
    return ctx, engine, stats


class TestHelpers:
    def test_idiv_truncates_toward_zero(self):
        assert idiv(7, 2) == 3
        assert idiv(-7, 2) == -3
        assert idiv(7, -2) == -3
        assert idiv(-7, -2) == 3

    def test_imod_sign_follows_dividend(self):
        assert imod(7, 3) == 1
        assert imod(-7, 3) == -1
        assert imod(7, -3) == 1


class TestEmittedStructure:
    def test_rt_static_code_absent_from_fast_engine(self):
        result = build(
            "val out = 0;"
            "fun main(pc) {"
            "  val x = pc * 2 + 1;"      # rt-static: must not appear in fast
            "  out = mem_read(x);"        # dynamic action
            "  init = pc + 4;"
            "}"
        )
        fast = result.simulator.source_fast
        assert "* 2" not in fast  # the rt-static multiply was skipped
        assert "read32" in fast

    def test_placeholders_recorded_for_static_subexpressions(self):
        result = build(
            "val out = 0;"
            "fun main(pc) { out = mem_read(pc * 8 + 64); init = pc + 4; }"
        )
        assert "_ph0" in result.simulator.source_slow
        assert "_ph0" in result.simulator.source_fast

    def test_literal_constants_inline_not_placeholder(self):
        result = build(
            "val out = 0;"
            "fun main(pc) { out = mem_read(pc) + 3; init = pc + 4; }"
        )
        # The literal 3 appears inline in the fast action.
        assert "+ 3)" in result.simulator.source_fast

    def test_flush_actions_emitted_for_rt_static_globals(self):
        result = build("val PC = 0; fun main(pc) { PC = pc; init = pc + 4; }")
        summary = result.simulator.division_summary
        assert "PC" in summary["flush_globals"]

    def test_plain_build_has_no_memoizer_calls(self):
        result = build("fun main(pc) { init = pc + 4; }")
        assert "_M." not in result.simulator.source_plain

    def test_with_plain_false_skips_plain_build(self):
        result = build("fun main(pc) { init = pc + 4; }", with_plain=False)
        assert result.simulator.plain_main is None

    def test_action_numbers_dense(self):
        result = build(
            "val out = 0;"
            "fun main(pc) { out = mem_read(pc); out = out + 1; init = pc + 4; }"
        )
        n = result.simulator.division_summary["n_actions"]
        assert len(result.simulator.fast_actions) == n


class TestExterns:
    def test_extern_called_with_arguments(self):
        calls = []

        def probe(a, b):
            calls.append((a, b))
            return a + b

        result = build(
            "extern probe(2); val out = 0;"
            "fun main(pc) { out = probe(pc, 7); init = pc + 4; halt(); }"
        )
        ctx, _, _ = run_engine(result, {"probe": probe}, init=100)
        assert calls == [(100, 7)]
        assert ctx.read_global("out") == 107

    def test_unbound_extern_raises(self):
        result = build(
            "extern probe(1); val out = 0;"
            "fun main(pc) { out = probe(pc); init = pc; halt(); }"
        )
        from repro.facile import SimulationError

        with pytest.raises(SimulationError, match="not bound"):
            run_engine(result, {}, init=0)

    def test_extern_not_reexecuted_during_recovery(self):
        """The paper: dynamic result tests 'retrieve the dynamic result
        previously calculated by the fast simulator' rather than
        re-running it — so an extern with side effects is called exactly
        once per simulated step, never twice for one step."""
        calls = []

        def counter(step):
            calls.append(step)
            return len(calls)

        # The verify on the extern result changes value every step,
        # forcing a verify miss + recovery on each revisit of the key.
        result = build(
            "extern counter(1); val out = 0;"
            "fun main(pc) {"
            "  val v = counter(pc)?verify;"
            "  out = v;"
            "  if (v >= 5) { halt(); }"
            "  init = pc;"  # same key every step -> replay, miss, recover
            "}"
        )
        ctx, engine, stats = run_engine(result, {"counter": counter}, init=0, max_steps=50)
        assert ctx.halted
        # One extern call per simulated step, despite recovery happening
        # on every step after the first.
        assert len(calls) == stats.steps_total
        assert stats.steps_recovered >= 1


class TestVerifyPin:
    def test_verify_value_flows_into_key(self):
        """The paper's §2.2 pattern: a cache-simulator latency is pinned
        by a dynamic result test and steers rt-static simulation."""
        latencies = iter([18, 18, 18, 2, 18])

        def cache_sim(addr):
            return next(latencies)

        result = build(
            "extern cache_sim(1); val total = 0;"
            "fun main(pc) {"
            "  val lat = cache_sim(pc)?verify;"
            "  stat_cycle(lat);"
            "  val n = pc + 1;"
            "  if (n >= 5) { halt(); }"
            "  init = n;"
            "}"
        )
        ctx, engine, _ = run_engine(result, {"cache_sim": cache_sim}, init=0)
        assert ctx.cycles == 18 + 18 + 18 + 2 + 18

    def test_verify_on_rt_static_value_needs_no_action(self):
        result = build("fun main(pc) { val x = (pc + 1)?verify; init = x; halt(); }")
        assert result.simulator.division_summary["n_verify_actions"] == 0

    def test_same_verify_value_replays_without_miss(self):
        def cache_sim(addr):
            return 18  # always the same latency

        result = build(
            "extern cache_sim(1);"
            "fun main(pc) {"
            "  val lat = cache_sim(pc)?verify;"
            "  stat_cycle(lat);"
            "  init = pc;"  # same key forever: pure replay
            "}"
        )
        ctx, engine, stats = run_engine(result, {"cache_sim": cache_sim}, init=0, max_steps=20)
        assert engine.cache.stats.misses_verify == 0
        assert stats.steps_fast == 19
        assert ctx.cycles == 18 * 20

    def test_changed_verify_value_misses_and_recovers(self):
        values = [7] * 3 + [9] * 3

        def probe(_):
            return values.pop(0)

        result = build(
            "extern probe(1); val seen = 0; val steps = 0;"
            "fun main(pc) {"
            "  val v = probe(pc)?verify;"
            "  seen = seen * 10 + v;"
            "  steps = steps + 1;"
            "  if (steps >= 6) { halt(); }"
            "  init = pc;"
            "}"
        )
        ctx, engine, stats = run_engine(result, {"probe": probe}, init=0, max_steps=10)
        assert ctx.halted
        assert engine.cache.stats.misses_verify >= 1
        assert ctx.read_global("seen") == 777999


class TestControlFlowCodegen:
    def test_rt_static_loop_unrolls_into_actions(self):
        result = build(
            "val out = 0;"
            "fun main(pc) {"
            "  val i = 0;"
            "  while (i < 4) { out = out + mem_read(pc + i * 4); i = i + 1; }"
            "  init = pc; halt();"
            "}"
        )
        ctx, engine, _ = run_engine(result, init=0x100)
        # 4 loads recorded as separate dynamic actions in one entry.
        assert engine.cache.stats.records_created >= 4

    def test_switch_on_rt_static_value(self):
        result = build(
            "val out = 0;"
            "fun main(pc) {"
            "  switch (pc) { case 1: out = 10; case 2, 3: out = 20; default: out = 30; }"
            "  init = pc; halt();"
            "}"
        )
        for init, expected in [(1, 10), (2, 20), (3, 20), (9, 30)]:
            ctx, _, _ = run_engine(result, init=init)
            assert ctx.read_global("out") == expected

    def test_dynamic_branch_both_paths_recorded(self):
        mem_values = {0: 0, 1: 1}

        result = build(
            "val out = 0; val steps = 0;"
            "fun main(pc) {"
            "  if (mem_read(pc) == 0) { out = out + 1; } else { out = out + 100; }"
            "  steps = steps + 1;"
            "  if (steps >= 4) { halt(); }"
            "  init = pc;"
            "}"
        )
        sim = result.simulator
        ctx = sim.make_context()
        ctx.write_global("init", 0)
        engine = FastForwardEngine(sim, ctx)
        # Alternate the memory value so both branch directions occur.
        ctx.mem.write32(0, 0)
        engine.run(max_steps=1)
        ctx.mem.write32(0, 1)
        ctx.halted = False
        engine.run(max_steps=1)
        ctx.mem.write32(0, 0)
        ctx.halted = False
        engine.run(max_steps=2)
        assert ctx.read_global("out") == 1 + 100 + 1 + 1
