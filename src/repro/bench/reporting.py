"""Paper-style text rendering of benchmark results.

Each function renders one of the paper's exhibits from a list of
:class:`~repro.bench.harness.Measurement` rows, so the benchmarks print
tables directly comparable to the originals.
"""

from __future__ import annotations

import pathlib
import tempfile

from .harness import Measurement, harmonic_mean_coverage


def results_dir(committed: pathlib.Path, quick: bool) -> pathlib.Path:
    """Where a benchmark script writes its results: ``committed`` (the
    repository's ``bench_results/``) for full runs, and a scratch
    directory under the system temp dir for ``--quick``/``--smoke`` runs,
    whose small, unrepeated numbers must never replace the committed
    record."""
    out = (pathlib.Path(tempfile.gettempdir()) / "repro-bench-quick"
           if quick else committed)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _by(measurements: list[Measurement]) -> dict[tuple[str, str], Measurement]:
    return {(m.workload, m.simulator): m for m in measurements}


def _workloads(measurements: list[Measurement]) -> list[str]:
    seen: list[str] = []
    for m in measurements:
        if m.workload not in seen:
            seen.append(m.workload)
    return seen


def render_speed_figure(
    measurements: list[Measurement],
    memo_sim: str,
    nomemo_sim: str,
    title: str,
) -> str:
    """Figure 11/12 style: simulated kilo-instructions per host second
    for {with memoization, without, SimpleScalar-like baseline}, plus
    speedup columns and harmonic means."""
    table = _by(measurements)
    lines = [title, "=" * len(title), ""]
    header = (
        f"{'benchmark':<12} {'with memo':>10} {'w/o memo':>10} {'baseline':>10} "
        f"{'memo/base':>10} {'memo/nomemo':>12}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    # Every workload contributes a slot; a missing or failed (zero)
    # cell stays in the list as 0.0 so the hmean coverage below counts
    # it as dropped instead of silently inflating the mean.
    ratios_base: list[float] = []
    ratios_self: list[float] = []
    for w in _workloads(measurements):
        memo = table.get((w, memo_sim))
        nomemo = table.get((w, nomemo_sim))
        base = table.get((w, "simplescalar"))
        if memo is None or nomemo is None or base is None:
            ratios_base.append(0.0)
            ratios_self.append(0.0)
            lines.append(f"{w:<12} {'(missing cell — dropped from hmean)':>56}")
            continue
        r_base = memo.kips / base.kips if base.kips else 0.0
        r_self = memo.kips / nomemo.kips if nomemo.kips else 0.0
        ratios_base.append(r_base)
        ratios_self.append(r_self)
        lines.append(
            f"{w:<12} {memo.kips:>9.1f}k {nomemo.kips:>9.1f}k {base.kips:>9.1f}k "
            f"{r_base:>9.2f}x {r_self:>11.2f}x"
        )
    lines.append("-" * len(header))
    h_base, used_base, total = harmonic_mean_coverage(ratios_base)
    h_self, used_self, _ = harmonic_mean_coverage(ratios_self)
    used = min(used_base, used_self)
    label = "hmean" if used == total else f"hmean {used}/{total}"
    lines.append(
        f"{label:<12} {'':>10} {'':>10} {'':>10} "
        f"{h_base:>9.2f}x {h_self:>11.2f}x"
    )
    if used < total:
        lines.append(
            f"(harmonic means cover {used}/{total} benchmarks; "
            f"{total - used} failed or missing cells were dropped)"
        )
    return "\n".join(lines)


def render_table1(measurements: list[Measurement], simulator: str) -> str:
    """Table 1: percentage of instructions simulated by the fast engine."""
    table = _by(measurements)
    title = "Table 1: Percentage of instructions fast-forwarded"
    lines = [title, "=" * len(title), ""]
    lines.append(f"{'benchmark':<12} {'% fast-fwd':>12} {'steps fast':>12} {'steps slow':>12}")
    for w in _workloads(measurements):
        m = table.get((w, simulator))
        if m is None:
            continue
        lines.append(
            f"{w:<12} {100 * m.fast_fraction:>11.3f}% {m.steps_fast:>12,} {m.steps_slow:>12,}"
        )
    return "\n".join(lines)


def render_table2(measurements: list[Measurement], simulator: str) -> str:
    """Table 2: quantity of memoized data."""
    table = _by(measurements)
    title = "Table 2: Quantity of memoized data"
    lines = [title, "=" * len(title), ""]
    lines.append(f"{'benchmark':<12} {'KB memoized':>14} {'per 1k instrs':>14}")
    for w in _workloads(measurements):
        m = table.get((w, simulator))
        if m is None:
            continue
        per_k = m.memo_bytes / max(1, m.retired) * 1000 / 1024
        lines.append(
            f"{w:<12} {m.memo_bytes / 1024:>13.1f} {per_k:>13.2f}K"
        )
    return "\n".join(lines)


def render_generic(title: str, header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    lines = [title, "=" * len(title), ""]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("-" * (sum(widths) + 2 * (len(header) - 1)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
