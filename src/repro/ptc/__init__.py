"""Photonic tensor-core meshes: trainable factories and analysis."""

from .reference_topologies import (
    butterfly_topology,
    mzi_topology,
    stride_interleave_perm,
)
from .clements import (
    ClementsDecomposition,
    clements_decompose,
    factor_two_by_two,
    mesh_depth,
    schedule_layers,
    to_output_phase_form,
)
from .butterfly import (
    butterfly_stage_matrix,
    butterfly_transfer_np,
    dft_matrix,
    n_free_parameters,
)
from .mzi import MZIOp, max_mzi_count, mzi_2x2, reck_decompose, reconstruct_from_ops
from .cache import (
    UnitaryBuildCache,
    set_unitary_cache_dir,
    set_unitary_cache_enabled,
    unitary_cache_dir,
    unitary_cache_enabled,
)
from .population import (
    PopulationFitResult,
    TopologyPopulation,
    fit_unitary_population,
)
from .unitary import (
    ButterflyFactory,
    FixedTopologyFactory,
    MZIMeshFactory,
    UnitaryFactory,
)

__all__ = [
    "ButterflyFactory",
    "PopulationFitResult",
    "TopologyPopulation",
    "UnitaryBuildCache",
    "fit_unitary_population",
    "set_unitary_cache_dir",
    "set_unitary_cache_enabled",
    "unitary_cache_dir",
    "unitary_cache_enabled",
    "ClementsDecomposition",
    "clements_decompose",
    "factor_two_by_two",
    "mesh_depth",
    "schedule_layers",
    "to_output_phase_form",
    "FixedTopologyFactory",
    "MZIMeshFactory",
    "MZIOp",
    "UnitaryFactory",
    "butterfly_topology",
    "mzi_topology",
    "stride_interleave_perm",
    "butterfly_stage_matrix",
    "butterfly_transfer_np",
    "dft_matrix",
    "max_mzi_count",
    "mzi_2x2",
    "n_free_parameters",
    "reck_decompose",
    "reconstruct_from_ops",
]
