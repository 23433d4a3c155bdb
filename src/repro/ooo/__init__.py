"""Out-of-order pipeline simulators: one model, three implementations."""

from .common import MachineConfig, OooStats
from .facile_ooo import FacileOooSim, compiled_ooo_sim, ooo_sim_source, run_facile_ooo
from .facile_inorder import FacileInOrderSim, compiled_inorder_sim, run_facile_inorder
from .inorder import InOrderSim, run_inorder

# The hand-written memoizer and the reference model load on first use
# (PEP 562): the Facile simulators need neither.
_LAZY_NAMES = {
    "FastSimOoo": "fastsim",
    "run_fastsim": "fastsim",
    "ReferenceOooSim": "reference",
    "run_reference": "reference",
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "FacileInOrderSim",
    "FacileOooSim",
    "FastSimOoo",
    "InOrderSim",
    "MachineConfig",
    "OooStats",
    "ReferenceOooSim",
    "compiled_inorder_sim",
    "compiled_ooo_sim",
    "ooo_sim_source",
    "run_facile_inorder",
    "run_facile_ooo",
    "run_fastsim",
    "run_inorder",
    "run_reference",
]
