"""Two names of the scenario vocabulary, re-exported.

The differential harness became the strategy rows of
:data:`repro.fuzz.differ.AXES`.  ``benchmarks/e2e/state_plane.py``
still imports these two names from here, so the module stays as this
re-export.
"""

from ..scenario import MachineRecipe, daxpy_spec

__all__ = ["MachineRecipe", "daxpy_spec"]
