"""The Facile compiler facade.

``compile_source`` runs the whole pipeline of the paper's Figure 1/§4:

    parse  →  semantic analysis  →  flattening/inlining  →
    binding-time analysis  →  dynamic-result-test insertion  →
    two-engine code generation

and returns a :class:`~repro.facile.runtime.CompiledSimulator` ready to
drive with :class:`~repro.facile.runtime.FastForwardEngine` (memoized)
or :class:`~repro.facile.runtime.PlainEngine` (conventional).

``compile_cached`` is the same compile through the on-disk
compiled-simulator cache (:mod:`repro.facile.simcache`); the shipped
simulators load through it.  The front-end modules are imported only
when something is actually compiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .runtime import CompiledSimulator

if TYPE_CHECKING:
    from .bta import Division
    from .diagnostics import Diagnostic, DiagnosticSink
    from .inline import FlatMain
    from .sema import ProgramInfo


@dataclass
class CompilationResult:
    """The compiled simulator plus every intermediate artifact, for
    inspection by tests, benchmarks, and the curious."""

    simulator: CompiledSimulator
    n_dynamic_result_tests: int
    n_constant_folds: int = 0
    #: Warnings/infos from the static-analysis passes; populated only
    #: when ``compile_source(..., check=True)``.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: ``(info, flat, division)``, or a function computing them: a
    #: result loaded from the compiled-simulator cache reruns the front
    #: end only when one of them is first asked for.
    front_end: Any = field(default=None, repr=False)

    def _front(self) -> tuple:
        if callable(self.front_end):
            self.front_end = self.front_end()
        return self.front_end

    @property
    def info(self) -> ProgramInfo:
        return self._front()[0]

    @property
    def flat(self) -> FlatMain:
        return self._front()[1]

    @property
    def division(self) -> Division:
        return self._front()[2]


def _run_front_end(
    source: str, filename: str, fold: bool, sink: DiagnosticSink | None = None
) -> tuple:
    """Parse through dynamic-result-test insertion; with a ``sink`` the
    static-analysis passes run between the stages.  Returns ``(info,
    flat, division, n_dynamic_result_tests, n_constant_folds)``."""
    from .bta import analyze_binding_times, insert_dynamic_result_tests
    from .inline import flatten_program
    from .optimize import fold_constants
    from .parser import parse
    from .sema import analyze

    program = parse(source, filename)
    info = analyze(program, sink=sink)
    if sink is not None:
        from .analysis import AnalysisContext, run_passes

        sink.checkpoint()
        ctx = AnalysisContext(info, sink.buffer)
        run_passes("ast", ctx, sink)
    flat = flatten_program(info)
    n_folds = fold_constants(flat) if fold else 0
    division = analyze_binding_times(flat, sink)
    if sink is not None:
        ctx.flat, ctx.division = flat, division
        run_passes("bta", ctx, sink)
        sink.checkpoint()
    n_tests = insert_dynamic_result_tests(flat, division)
    if sink is not None:
        ctx.n_inserted = n_tests
        run_passes("post", ctx, sink)
        sink.checkpoint()
    return info, flat, division, n_tests, n_folds


def compile_source(
    source: str,
    name: str = "simulator",
    filename: str = "<facile>",
    with_plain: bool = True,
    flush_policy: str = "all",
    keep_flushed: tuple[str, ...] = ("init",),
    coalesce: bool = True,
    fold: bool = True,
    check: bool = False,
) -> CompilationResult:
    """Compile Facile source text into a fast-forwarding simulator.

    ``flush_policy="live"`` enables the paper's §6.3-item-3 liveness
    optimization: dead rt-static globals are not flushed to shared
    state at step boundaries (``keep_flushed`` names are always kept).
    ``coalesce=False`` reverts to one action per dynamic statement
    (Figure 8's one-statement-per-block granularity), used by the
    ablation benchmarks.  ``fold`` controls compile-time constant
    folding (§6.3 item 5).  ``check=True`` additionally runs the
    static-analysis passes (see :mod:`repro.facile.analysis`): errors
    raise the usual batched ``SemanticError``; warnings and infos land
    in ``CompilationResult.diagnostics``.
    """
    from .codegen import CodeGenerator

    sink = None
    if check:
        from .diagnostics import DiagnosticSink
        from .source import SourceBuffer

        sink = DiagnosticSink(SourceBuffer(source, filename))
    info, flat, division, n_tests, n_folds = _run_front_end(
        source, filename, fold, sink)
    generator = CodeGenerator(
        division,
        name=name,
        flush_policy=flush_policy,
        keep_flushed=keep_flushed,
        coalesce=coalesce,
    )
    return CompilationResult(
        simulator=generator.build(with_plain=with_plain),
        n_dynamic_result_tests=n_tests,
        n_constant_folds=n_folds,
        diagnostics=list(sink.diagnostics) if sink is not None else [],
        front_end=(info, flat, division),
    )


def compile_cached(
    source: str,
    name: str = "simulator",
    filename: str = "<facile>",
    with_plain: bool = True,
    flush_policy: str = "all",
    keep_flushed: tuple[str, ...] = ("init",),
    coalesce: bool = True,
    fold: bool = True,
) -> CompilationResult:
    """:func:`compile_source` through the on-disk compiled-simulator
    cache: a hit executes the stored module instead of compiling, and a
    miss compiles and stores.  The result is the same either way; on a
    hit ``info``/``flat``/``division`` are recomputed on first access."""
    from . import simcache

    options = dict(
        name=name, filename=filename, with_plain=with_plain,
        flush_policy=flush_policy, keep_flushed=keep_flushed,
        coalesce=coalesce, fold=fold,
    )
    key = simcache.cache_key(source, options)
    hit = simcache.load(key)
    if hit is not None:
        simulator, (n_tests, n_folds) = hit
        return CompilationResult(
            simulator=simulator,
            n_dynamic_result_tests=n_tests,
            n_constant_folds=n_folds,
            front_end=lambda: _run_front_end(source, filename, fold)[:3],
        )
    result = compile_source(source, **options)
    simcache.store(key, result.simulator,
                   (result.n_dynamic_result_tests, result.n_constant_folds))
    return result
