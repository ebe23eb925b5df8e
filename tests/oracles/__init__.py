"""Frozen reference implementations the parity tests compare against.

The product keeps one build path per mesh and one campaign path per
study.  The loops they replaced live here, verbatim apart from turning
methods into functions of the factory, core or arguments:

* :mod:`oracles.factories` — the per-column builds of the three mesh
  factories in :mod:`repro.ptc.unitary` (graph and trial-batched);
* :mod:`oracles.supermesh` — the per-block SuperMesh core build of
  :mod:`repro.core.supermesh`;
* :mod:`oracles.studies` — the pre-campaign loops of the five
  extension studies in :mod:`repro.experiments.extensions`.

``tests/`` is on ``sys.path`` under pytest (``tests/conftest.py``);
``benchmarks/conftest.py`` adds it when the benchmarks run alone.
"""

from .factories import batched_scatter, build_reference, build_trials_reference
from .studies import (
    run_expressivity_comparison_reference,
    run_nonideality_study_reference,
    run_power_comparison_reference,
    run_quantization_study_reference,
    run_search_method_ablation_reference,
)
from .supermesh import (
    block_transfer,
    dc_matrix_from_transmissions,
    supermesh_forward_reference,
)

__all__ = [
    "batched_scatter",
    "block_transfer",
    "build_reference",
    "build_trials_reference",
    "dc_matrix_from_transmissions",
    "run_expressivity_comparison_reference",
    "run_nonideality_study_reference",
    "run_power_comparison_reference",
    "run_quantization_study_reference",
    "run_search_method_ablation_reference",
    "supermesh_forward_reference",
]
