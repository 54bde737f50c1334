"""Analytical reproductions of the paper's back-of-envelope results.

* :mod:`repro.analysis.lbdr` — Section III.B's combinatorial argument that
  LBDR's routing restrictions rule out ~86% of application-to-core
  mappings (every region must contain a memory controller), in closed form.
"""

from repro.analysis.lbdr import lbdr_valid_fraction

__all__ = ["lbdr_valid_fraction"]
