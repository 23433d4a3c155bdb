"""Facile: a language and compiler for fast-forwarding processor simulators.

This package reproduces the PLDI 2001 paper's primary contribution.  The
public surface:

* :func:`compile_source` — compile Facile source into a two-engine
  fast-forwarding simulator (:func:`compile_cached`: the same through
  the on-disk compiled-simulator cache);
* :class:`FastForwardEngine` — memoized driver (fast replay + slow
  recording with miss recovery);
* :class:`PlainEngine` — conventional, non-memoized driver;
* :class:`SimContext` — dynamic simulator state (slots, target memory,
  statistics, extern bindings);
* :class:`ActionCache` — the specialized action cache.
"""

from .runtime import (
    ActionCache,
    CompiledSimulator,
    FastForwardEngine,
    Memory,
    PlainEngine,
    SimContext,
    SimulationError,
)
from .source import FacileError, LexError, ParseError, SemanticError

# Everything else loads on first use (PEP 562), so a process that only
# runs an already-compiled simulator never imports the compiler front
# end or the static analyzer.
_LAZY = {
    "analysis": ("CheckReport", "check_file", "run_check"),
    "compiler": ("CompilationResult", "compile_cached", "compile_source"),
    "diagnostics": ("Diagnostic", "DiagnosticError", "DiagnosticSink"),
    "inspect": (
        "cache_summary", "dump_entry", "explain_check", "explain_division",
        "hot_actions", "trace_summary", "why_dynamic",
    ),
    "tracecomp": ("Trace", "TraceManager"),
    "pprint": ("format_expr", "format_program", "format_stmt"),
    "snapshot": (
        "SnapshotError", "SnapshotInfo", "engine_fingerprint",
        "fastsim_fingerprint", "program_fingerprint", "simulator_fingerprint",
        "store_path", "warm_start",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))


__all__ = [
    "ActionCache",
    "CheckReport",
    "Diagnostic",
    "DiagnosticError",
    "DiagnosticSink",
    "cache_summary",
    "check_file",
    "dump_entry",
    "explain_check",
    "explain_division",
    "format_expr",
    "format_program",
    "format_stmt",
    "hot_actions",
    "trace_summary",
    "Trace",
    "TraceManager",
    "CompilationResult",
    "CompiledSimulator",
    "FacileError",
    "FastForwardEngine",
    "LexError",
    "Memory",
    "ParseError",
    "PlainEngine",
    "SemanticError",
    "SimContext",
    "SimulationError",
    "SnapshotError",
    "SnapshotInfo",
    "compile_cached",
    "compile_source",
    "engine_fingerprint",
    "fastsim_fingerprint",
    "program_fingerprint",
    "run_check",
    "simulator_fingerprint",
    "store_path",
    "warm_start",
    "why_dynamic",
]
