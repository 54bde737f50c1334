"""repro — reproduction of "RAIR: Interference Reduction in Regionalized
Networks-on-Chip" (Chen, Hwang, Pinkston — IPPS 2013).

The package layers:

* :mod:`repro.noc` — a from-scratch cycle-accurate VC-router mesh
  simulator (the GARNET substitute),
* :mod:`repro.routing` — XY, Duato-adaptive and DBAR routing,
* :mod:`repro.arbitration` — round-robin and idealized-STC arbitration
  baselines,
* :mod:`repro.core` — RAIR itself: VC regionalization, multi-stage
  prioritization and dynamic priority adaptation,
* :mod:`repro.traffic` — synthetic/regional/PARSEC-like/adversarial
  workloads,
* :mod:`repro.experiments` — the per-figure evaluation harness.

Quickstart::

    from repro import build_simulation

    sim, net = build_simulation(scheme="rair", routing="local")
    ...

See ``examples/quickstart.py`` for a complete runnable walk-through.
"""

from repro._version import __version__
from repro.arbitration import make_policy
from repro.core import RairPolicy, RegionMap
from repro.noc import Network, NocConfig, Simulator
from repro.routing import make_routing

__all__ = [
    "NocConfig",
    "Network",
    "Simulator",
    "RegionMap",
    "RairPolicy",
    "make_policy",
    "make_routing",
    "build_simulation",
    "__version__",
]


def build_simulation(
    config: NocConfig | None = None,
    region_map: RegionMap | None = None,
    scheme: str = "rr",
    routing: str = "local",
    policy_kwargs: dict | None = None,
    trace=None,
) -> tuple[Simulator, Network]:
    """Convenience constructor: (simulator, network) for a named scheme.

    ``scheme`` is an arbitration-policy name (``rr``, ``stc`` or
    ``rair``), ``routing`` a routing-algorithm name (``xy``, ``local``,
    ``dbar``, ``west_first`` or ``odd_even``). Traffic sources are added
    by the caller via ``sim.add_traffic``. ``trace`` is an optional
    :class:`~repro.noc.trace.KernelTrace` the kernel emits scheduling
    events into.
    """
    config = config or NocConfig()
    net = Network(
        config,
        routing=make_routing(routing),
        policy=make_policy(scheme, **(policy_kwargs or {})),
        region_map=region_map,
        trace=trace,
    )
    return Simulator(net), net
