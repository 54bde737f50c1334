"""Arbitration policies: who wins each router arbitration step.

A policy decides four things each cycle (the paper's Section IV.B
arbitration steps):

* which single ``(output port, output VC)`` an input VC requests (VA_in),
* which requesting input VC each output VC grants (VA_out),
* which input VC each input port forwards to the switch (SA_in),
* which input port each output port grants the crossbar (SA_out).

A policy states its priority at the last three steps as a top-class mask
per stage, or ``None`` for a round-robin stage (:mod:`repro.arbitration.base`).
Baselines live here (the base policy, round-robin everywhere, is RO_RR;
the idealized STC ranking scheme is RO_Rank); the paper's contribution,
RAIR, is a policy too and lives in :mod:`repro.core.rair`.
"""

from repro.arbitration.base import ArbitrationPolicy
from repro.arbitration.stc import StcPolicy

__all__ = [
    "ArbitrationPolicy",
    "StcPolicy",
    "make_policy",
]


_REGISTRY = {
    "rr": ArbitrationPolicy,
    "stc": StcPolicy,
}


def make_policy(name: str, **kwargs) -> ArbitrationPolicy:
    """Construct a policy by its one name: ``rr``, ``stc`` or ``rair``."""
    if name == "rair":  # imported here: repro.core.rair imports this package
        from repro.core.rair import RairPolicy

        return RairPolicy(**kwargs)
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = sorted([*_REGISTRY, "rair"])
        raise ValueError(f"unknown arbitration policy {name!r}; known: {known}") from None
    return cls(**kwargs)
