r"""LBDR's mapping restriction — the paper's Section III.B analysis.

LBDR (Logic-Based Distributed Routing, [8, 22] in the paper) confines each
application's packets to its own region, so a region that contains no
memory controller (MC) can never reach memory: such mappings are invalid
(the paper's Fig. 3(b)). The paper quantifies the cost of this restriction
for 16 cores, 4 MCs and 4 applications of 4 threads each:

.. math::

    4! \binom{12}{3}\binom{9}{3}\binom{6}{3}\binom{3}{3}
    \Big/ \binom{16}{4}\binom{12}{4}\binom{8}{4}\binom{4}{4}
    \approx 14\%

i.e. only ~14% of all application-to-core mappings remain admissible,
"which greatly restricts the opportunity to find the optimal
application-to-core mapping".

:func:`lbdr_valid_fraction` is that closed form, generalized to ``n``
cores, ``m`` MCs and ``k`` equal-size applications (requires ``m == k``:
each region takes exactly one MC, the case the paper counts). The
``intext`` experiment reports it against the paper's 14 %; the unit tests
hold it to a predicate over concrete mappings and a Monte-Carlo count.
"""

from __future__ import annotations

from math import comb, factorial

from repro.util.errors import ConfigError

__all__ = ["lbdr_valid_fraction"]


def lbdr_valid_fraction(cores: int = 16, mcs: int = 4, apps: int = 4) -> float:
    """Fraction of app-to-core mappings admissible under LBDR.

    ``cores`` nodes host ``apps`` applications of equal size
    ``cores // apps``; ``mcs`` of the nodes are memory controllers. A
    mapping is admissible iff every application's node set contains at
    least one MC node; following the paper's counting this requires
    ``mcs == apps`` (exactly one MC per region — with more regions than
    MCs the fraction is zero, which the paper also notes: "the number of
    regions that can be accommodated is at most the number of MCs").
    """
    if cores % apps:
        raise ConfigError(f"{apps} equal applications cannot tile {cores} cores")
    size = cores // apps
    if apps > mcs:
        return 0.0
    if apps < mcs:
        raise ConfigError(
            "closed form counts exactly one MC per region; need apps == mcs"
        )
    # Admissible assignments: distribute the m distinct MC nodes to the m
    # applications (m! ways), then fill each application's remaining
    # size-1 slots from the non-MC nodes.
    non_mc = cores - mcs
    numerator = factorial(mcs)
    remaining = non_mc
    for _ in range(apps):
        numerator *= comb(remaining, size - 1)
        remaining -= size - 1
    # All assignments: split the n nodes into ordered groups of `size`.
    denominator = 1
    remaining = cores
    for _ in range(apps):
        denominator *= comb(remaining, size)
        remaining -= size
    return numerator / denominator

