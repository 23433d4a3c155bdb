"""On-disk cache of compiled simulators.

Compiling a shipped simulator runs the whole front end and code
generator — parse, semantic analysis, flattening, binding-time
analysis, code generation — for 110–150 ms, and every fresh process
used to pay it again for the same source.  Loading the marshalled code
object of the generated module and executing it takes under 1 ms.  This
module keeps that code object, plus the metadata the code generator
produces alongside it, in one file per (source × compile options ×
compiler version), so a later process instantiates the simulator
without importing the compiler at all.

File layout::

    offset  size  field
    0       8     magic  b"FACSIM\\x00\\x01"
    8       4     importlib.util.MAGIC_NUMBER of the writing interpreter
    12      32    sha-256 of the payload
    44      ...   payload: marshal of (key, code object, metadata)

A missing, truncated, corrupt or foreign file (bad magic, another
interpreter's bytecode magic, a checksum or key mismatch) is a miss:
the caller recompiles and overwrites it.  Nothing here is ever fatal —
a failed write only means the next process compiles too.  Files are
written atomically, so processes racing on the first compile each
install a complete file and every reader sees a complete one.

Files live in the C kernel's build cache directory
(:func:`cache_dir`), never in a snapshot store.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import pathlib
import struct
import tempfile
from collections import deque
from typing import Any

from .builtins import RUNTIME_HELPERS, copy_val, idiv, imod
from .runtime import CompiledSimulator, freeze
from .snapshot import _atomic_write, simulator_fingerprint
from .source import SourceSpan

MAGIC = b"FACSIM\x00\x01"
SUFFIX = ".facsim"
#: magic, interpreter bytecode magic, payload sha-256.
_HEADER = struct.Struct("<8s4s32s")

#: CompiledSimulator fields stored next to the code object, in order.
_FIELDS = (
    "name", "slot_count", "global_slots", "init_slot", "param_count",
    "init_flushed", "source_slow", "source_fast", "source_plain",
    "division_summary", "action_bodies", "action_spans",
)

_COMPILER_DIGEST: bytes | None = None


def cache_dir() -> str:
    """The per-user build cache: the C replay kernel's ``.so`` and the
    compiled-simulator files.  ``FACILE_CKERNEL_DIR`` overrides it."""
    override = os.environ.get("FACILE_CKERNEL_DIR")
    if override:
        return override
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-POSIX
        uid = 0
    return os.path.join(tempfile.gettempdir(), f"facile-ckernel-{uid}")


def exec_namespace() -> dict:
    """Fresh globals for one generated simulator module."""
    namespace: dict[str, Any] = dict(RUNTIME_HELPERS)
    namespace.update(
        _deque=deque, _freeze=freeze, _copy_val=copy_val,
        idiv=idiv, imod=imod, min=min, max=max, abs=abs,
    )
    return namespace


def instantiate(code, meta: dict) -> CompiledSimulator:
    """Execute a generated module's code object and wire its functions
    and ``meta`` (the :data:`_FIELDS` values) into a simulator.  Fresh
    compiles and cache hits both come through here."""
    namespace = exec_namespace()
    exec(code, namespace)
    sim = CompiledSimulator(
        slow_main=namespace["slow_main"],
        fast_actions=namespace["fast_actions"],
        setup=namespace["setup"],
        plain_main=namespace.get("plain_main"),
        namespace=namespace,
        code=code,
        **meta,
    )
    # Content fingerprint for snapshot addressing: the generated
    # sources capture action numbering and baked-in machine parameters
    # exactly, so equal fingerprints guarantee replay compatibility.
    sim.fingerprint = simulator_fingerprint(sim)
    return sim


def _compiler_digest() -> bytes:
    """sha-256 over the source of every module in this package: any
    edit to the compiler invalidates every cached simulator."""
    global _COMPILER_DIGEST
    if _COMPILER_DIGEST is None:
        h = hashlib.sha256()
        for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
            h.update(path.name.encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _COMPILER_DIGEST = h.digest()
    return _COMPILER_DIGEST


def cache_key(source: str, options: dict) -> str:
    """Key of one compile: the Facile source, every compile option, the
    compiler's own source and the interpreter's bytecode magic."""
    h = hashlib.sha256(b"facile-compiled-sim-v1\0")
    h.update(importlib.util.MAGIC_NUMBER)
    h.update(_compiler_digest())
    h.update(repr(sorted(options.items())).encode())
    h.update(b"\0")
    h.update(source.encode())
    return h.hexdigest()


def cache_path(key: str) -> pathlib.Path:
    return pathlib.Path(cache_dir()) / f"sim-{key[:40]}{SUFFIX}"


def load(key: str) -> tuple[CompiledSimulator, Any] | None:
    """The simulator cached under ``key`` and the ``extra`` value stored
    with it, or ``None`` when there is no usable file."""
    try:
        blob = cache_path(key).read_bytes()
    except OSError:
        return None
    if len(blob) < _HEADER.size:
        return None
    magic, pymagic, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC or pymagic != importlib.util.MAGIC_NUMBER:
        return None
    payload = memoryview(blob)[_HEADER.size:]
    if hashlib.sha256(payload).digest() != digest:
        return None
    try:
        stored_key, code, values, extra = marshal.loads(payload)
        if stored_key != key:
            return None
        meta = dict(zip(_FIELDS, values))
        meta["action_spans"] = [SourceSpan(*s) for s in meta["action_spans"]]
        return instantiate(code, meta), extra
    except Exception:  # a malformed payload: recompile
        return None


def store(key: str, sim: CompiledSimulator, extra: Any = None) -> None:
    """Write ``sim`` (which must carry its module ``code``) under
    ``key``, with an ``extra`` marshal-able value.  Failures are
    swallowed: the cache is an optimisation."""
    meta = {name: getattr(sim, name) for name in _FIELDS}
    meta["action_spans"] = [
        (s.filename, s.line, s.column, s.start, s.end)
        for s in meta["action_spans"]
    ]
    try:
        payload = marshal.dumps(
            (key, sim.code, tuple(meta[name] for name in _FIELDS), extra))
        header = _HEADER.pack(
            MAGIC, importlib.util.MAGIC_NUMBER,
            hashlib.sha256(payload).digest())
        path = cache_path(key)
        os.makedirs(path.parent, mode=0o700, exist_ok=True)
        _atomic_write(path, header + payload)
    except (OSError, ValueError):
        pass
