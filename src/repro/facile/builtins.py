"""Built-in functions, expression attributes, and value helpers.

The paper motivates building data types and helper functions into the
language: "By including these functions and data types into the
language, their semantics are known, so a compiler can analyze and
transform code that uses them" (§3.2).  This module is that knowledge:

* a registry of built-in *functions* (callable as ``name(args)``) with
  their arity and binding-time class;
* a registry of built-in *attributes* (``expr?name(args)``) likewise;
* the pure Python helpers the generated simulators call at run time
  (sign extension, 32-bit wrapping, SPARC-style condition codes).

Binding-time classes:

``pure``
    Result binding time is the join of the operands'.  No side effects.
``dynamic``
    Touches dynamic simulator state (target memory, statistics,
    the host world).  Always a dynamic action.
``control``
    Handled specially by the compiler (``?exec``, ``?verify``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class BuiltinSig:
    name: str
    arity: int
    bt_class: str  # "pure" | "dynamic" | "control"
    returns_value: bool = True


# -- built-in functions ------------------------------------------------

BUILTIN_FUNCS: dict[str, BuiltinSig] = {
    sig.name: sig
    for sig in [
        # Pure arithmetic helpers.
        BuiltinSig("min", 2, "pure"),
        BuiltinSig("max", 2, "pure"),
        BuiltinSig("abs", 1, "pure"),
        BuiltinSig("popcount", 1, "pure"),
        # Condition-code computation (packed NZVC nibble).
        BuiltinSig("cc_add", 2, "pure"),
        BuiltinSig("cc_sub", 2, "pure"),
        BuiltinSig("cc_logic", 1, "pure"),
        BuiltinSig("cc_branch_taken", 2, "pure"),
        BuiltinSig("udiv32", 2, "pure"),
        BuiltinSig("umul32", 2, "pure"),
        # select(c, a, b) == a if c else b (both arms evaluated); it lets
        # descriptions avoid rt-static control between dynamic
        # statements, which keeps coalesced actions large.
        BuiltinSig("select", 3, "pure"),
        # Target memory: contents are dynamic data (paper §2.1 lists
        # "addresses resident in a simulated data cache" as dynamic).
        BuiltinSig("mem_read", 1, "dynamic"),
        BuiltinSig("mem_read8", 1, "dynamic"),
        BuiltinSig("mem_read16", 1, "dynamic"),
        BuiltinSig("mem_write", 2, "dynamic", returns_value=False),
        BuiltinSig("mem_write8", 2, "dynamic", returns_value=False),
        BuiltinSig("mem_write16", 2, "dynamic", returns_value=False),
        # Statistics and simulation control.
        BuiltinSig("stat_retire", 1, "dynamic", returns_value=False),
        BuiltinSig("stat_cycle", 1, "dynamic", returns_value=False),
        BuiltinSig("stat_count", 2, "dynamic", returns_value=False),
        BuiltinSig("halt", 0, "dynamic", returns_value=False),
        BuiltinSig("log_value", 1, "dynamic", returns_value=False),
    ]
}

# -- built-in expression attributes -------------------------------------

PURE_ATTRS: dict[str, int] = {
    # name -> number of arguments
    "sext": 1,  # x?sext(n): interpret low n bits of x as signed
    "zext": 1,  # x?zext(n): mask x to its low n bits
    "u32": 0,  # x?u32: wrap to unsigned 32-bit
    "s32": 0,  # x?s32: interpret as signed 32-bit
    "bit": 1,  # x?bit(i): bit i of x
    "bits": 2,  # x?bits(lo, hi): inclusive bit range, shifted down
}

STREAM_ATTRS: dict[str, int] = {
    # Token streams: addresses into the (run-time static) text segment.
    "word": 0,  # s?word(): fetch the token at address s
    "decode": 0,  # s?decode(): pattern index of the instruction at s
}

CONTROL_ATTRS: dict[str, int] = {
    "exec": 0,  # s?exec(): decode + dispatch to sem bodies (inlined)
    "verify": 0,  # e?verify: dynamic-result pin (paper §4.2)
}

QUEUE_ATTRS: dict[str, tuple[int, bool]] = {
    # name -> (arity, mutates container)
    "push_back": (1, True),
    "push_front": (1, True),
    "pop_back": (0, True),
    "pop_front": (0, True),
    "front": (0, False),
    "back": (0, False),
    "size": (0, False),
    "empty": (0, False),
    "clear": (0, True),
    "copy": (0, False),
}


def known_attr(name: str) -> bool:
    return (
        name in PURE_ATTRS
        or name in STREAM_ATTRS
        or name in CONTROL_ATTRS
        or name in QUEUE_ATTRS
    )


# -- run-time value helpers (used by generated code) ---------------------

_U32 = 0xFFFFFFFF


def sext(value: int, bits: int) -> int:
    """Interpret the low `bits` bits of `value` as a signed integer."""
    value &= (1 << bits) - 1
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


def zext(value: int, bits: int) -> int:
    """Mask `value` to its low `bits` bits."""
    return value & ((1 << bits) - 1)


def u32(value: int) -> int:
    """Wrap to an unsigned 32-bit quantity (register write semantics)."""
    return value & _U32


def s32(value: int) -> int:
    """Interpret a 32-bit quantity as signed (for comparisons)."""
    return sext(value, 32)


def bit(value: int, i: int) -> int:
    return (value >> i) & 1


def bits(value: int, lo: int, hi: int) -> int:
    return (value >> lo) & ((1 << (hi - lo + 1)) - 1)


def popcount(value: int) -> int:
    return bin(value & _U32).count("1")


# Condition codes are packed as an NZVC nibble: N=8, Z=4, V=2, C=1.
CC_N, CC_Z, CC_V, CC_C = 8, 4, 2, 1


def cc_add(a: int, b: int) -> int:
    """NZVC nibble for 32-bit addition a + b."""
    a &= _U32
    b &= _U32
    total = a + b
    result = total & _U32
    cc = 0
    if result & 0x80000000:
        cc |= CC_N
    if result == 0:
        cc |= CC_Z
    if (~(a ^ b) & (a ^ result)) & 0x80000000:
        cc |= CC_V
    if total > _U32:
        cc |= CC_C
    return cc


def cc_sub(a: int, b: int) -> int:
    """NZVC nibble for 32-bit subtraction a - b (SPARC subcc/cmp)."""
    a &= _U32
    b &= _U32
    result = (a - b) & _U32
    cc = 0
    if result & 0x80000000:
        cc |= CC_N
    if result == 0:
        cc |= CC_Z
    if ((a ^ b) & (a ^ result)) & 0x80000000:
        cc |= CC_V
    if a < b:
        cc |= CC_C
    return cc


def cc_logic(result: int) -> int:
    """NZVC nibble for a logical operation result (V and C cleared)."""
    result &= _U32
    cc = 0
    if result & 0x80000000:
        cc |= CC_N
    if result == 0:
        cc |= CC_Z
    return cc


def select(cond, a, b):
    """Non-short-circuit conditional: both arms are evaluated."""
    return a if cond else b


def udiv32(a: int, b: int) -> int:
    """Unsigned 32-bit division; division by zero yields 0 (no traps)."""
    if b == 0:
        return 0
    return ((a & _U32) // (b & _U32)) & _U32


def umul32(a: int, b: int) -> int:
    """Unsigned 32-bit multiplication (low word)."""
    return ((a & _U32) * (b & _U32)) & _U32


def idiv(a: int, b: int) -> int:
    """C-style truncating integer division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def imod(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""
    return a - idiv(a, b) * b


def copy_val(value):
    """Copy a mutable container value (queue or array) on assignment."""
    if isinstance(value, deque):
        return deque(value)
    if isinstance(value, list):
        return list(value)
    return value


def cc_branch_taken(cond: int, cc: int) -> bool:
    """Evaluate a SPARC integer condition-code test.

    `cond` is the 4-bit SPARC branch condition field (Bicc cond values);
    `cc` is an NZVC nibble.
    """
    n = bool(cc & CC_N)
    z = bool(cc & CC_Z)
    v = bool(cc & CC_V)
    c = bool(cc & CC_C)
    table = {
        0b1000: True,  # ba
        0b0000: False,  # bn
        0b1001: not z,  # bne
        0b0001: z,  # be
        0b1010: not (z or (n != v)),  # bg
        0b0010: z or (n != v),  # ble
        0b1011: n == v,  # bge
        0b0011: n != v,  # bl
        0b1100: not (c or z),  # bgu
        0b0100: c or z,  # bleu
        0b1101: not c,  # bcc / bgeu
        0b0101: c,  # bcs / blu
        0b1110: not n,  # bpos
        0b0110: n,  # bneg
        0b1111: not v,  # bvc
        0b0111: v,  # bvs
    }
    return table[cond & 0xF]


# Namespace handed to generated simulator modules.
RUNTIME_HELPERS = {
    "sext": sext,
    "zext": zext,
    "u32": u32,
    "s32": s32,
    "bit": bit,
    "bits": bits,
    "popcount": popcount,
    "cc_add": cc_add,
    "cc_sub": cc_sub,
    "cc_logic": cc_logic,
    "cc_branch_taken": cc_branch_taken,
    "udiv32": udiv32,
    "umul32": umul32,
    "select": select,
}
