"""The ladder's whole dependency on ``repro``, in one place.

Every other ladder module imports simulator names from here and nowhere
else, so a later PR can read off exactly which public surface the
benchmark measures through (README.md lists the same names with the
layer each belongs to). Nothing here reaches into a private attribute:
the traced loop in :mod:`benchmarks.ladder.traced` is built only from
the calls ``Simulator.step`` / ``Simulator._run_to`` themselves make on
their collaborators.

Surface, by layer:

* kernel — ``build_simulation``, ``NocConfig``, ``Simulator.run`` /
  ``run_measurement`` / ``fast_forward``, ``Network.refresh_congestion`` /
  ``deliver_events`` / ``place_injections`` / ``active_nodes`` / ``idle`` /
  ``skip_idle_cycles`` / ``set_measure_window`` and its public counters,
  ``Router.do_va`` / ``do_sa`` / ``va_pending`` / ``sa_pending`` /
  ``busy_vcs``, ``KernelTrace``;
* policy — ``ArbitrationPolicy.end_router_cycle`` / ``end_network_cycle`` /
  ``fast_forward_idle``;
* traffic — ``SyntheticTrafficSource`` (``tick`` /
  ``next_injection_cycle``), ``UniformPattern``, ``FixedLength``;
* experiments — ``Cell``, ``SCHEMES``, ``Effort``, the four scenario
  builders, ``run_cells_detailed``, ``run_scenario``, ``cache_key``,
  ``ResultCache``, ``SweepJournal``;
* obs / guard — ``ObsConfig``, ``GuardConfig``;
* service — ``encode_cells`` / ``decode_cells`` / ``cell_result_to_wire``,
  ``JobStore``, ``ServiceClient`` / ``ServiceError`` and the
  ``python -m repro.service.daemon`` CLI (``DAEMON_MODULE``).
"""

from repro import build_simulation
from repro.arbitration.base import ArbitrationPolicy
from repro.experiments.cache import ResultCache, SweepJournal, cache_key
from repro.experiments.parallel import Cell, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort, run_scenario
from repro.experiments.scenarios import (
    four_app_dpa,
    parsec_quadrants,
    six_app,
    two_app_msp,
)
from repro.noc.config import NocConfig
from repro.noc.guard import GuardConfig
from repro.noc.trace import KernelTrace
from repro.obs import ObsConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobstore import JobStore
from repro.service.protocol import cell_result_to_wire, decode_cells, encode_cells
from repro.traffic.patterns import UniformPattern
from repro.traffic.synthetic import FixedLength, SyntheticTrafficSource

DAEMON_MODULE = "repro.service.daemon"

__all__ = [
    "ArbitrationPolicy",
    "Cell",
    "DAEMON_MODULE",
    "Effort",
    "FixedLength",
    "GuardConfig",
    "JobStore",
    "KernelTrace",
    "NocConfig",
    "ObsConfig",
    "ResultCache",
    "SCHEMES",
    "ServiceClient",
    "ServiceError",
    "SweepJournal",
    "SyntheticTrafficSource",
    "UniformPattern",
    "build_simulation",
    "cache_key",
    "cell_result_to_wire",
    "decode_cells",
    "encode_cells",
    "four_app_dpa",
    "parsec_quadrants",
    "run_cells_detailed",
    "run_scenario",
    "six_app",
    "two_app_msp",
]
