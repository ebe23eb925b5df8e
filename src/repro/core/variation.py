"""Variation-aware training and Monte-Carlo noise-robustness evaluation
(paper section 4.1-4.2, Fig. 4).

After the topology search, target ONNs are retrained with Gaussian
phase noise Delta-phi ~ N(0, sigma^2) injected into every phase shifter
(sigma = 0.02 in the paper), which makes the deployed circuit robust to
thermal crosstalk and control quantization.  Robustness is then
evaluated by sweeping the inference-time noise intensity and averaging
over repeated noisy runs.

Trial-batched Monte-Carlo engine
--------------------------------
The Fig. 4 sweep evaluates ``len(noise_stds) x n_runs`` independent
noisy realizations of one trained model.  Naively that is one full
test-set pass per realization, with every noisy build bypassing the
eval-mode unitary cache.  :func:`evaluate_noise_grid` instead treats a
realization as a *trial*:

1. phase-noise offsets for **all** trials are drawn in one call per
   mesh factory (:meth:`~repro.ptc.unitary.UnitaryFactory.draw_trial_noise`),
2. each factory builds its ``(T, n_units, K, K)`` stack of noisy
   transfer matrices through one forward-only fused cascade
   (:meth:`~repro.ptc.unitary.UnitaryFactory.build_trials`),
3. the resulting per-trial effective weights are frozen into
   lightweight :class:`~repro.onn.layers.FrozenPhotonicView` wrappers
   and the whole grid is scored in a single shared pass over the test
   data via :func:`~repro.onn.trainer.evaluate_population`.

``backend="reference"`` keeps the sequential loop — per-trial builds
through the factories' normal ``build`` path and one test-set pass per
trial — as the parity and benchmark baseline (``benchmarks/test_perf_robustness.py`` gates the
speedup).  Both backends consume the *same* pre-drawn noise offsets,
so their per-run accuracies agree exactly at a fixed seed.

Trial stacks default to the complex64 execution backend
(:data:`TRIAL_EXEC_BACKEND`) — Monte-Carlo builds are forward-only, so
the half-precision complex lane halves their memory traffic without
touching any training numerics; pass ``exec_backend="numpy"`` for full
double precision.

Noise semantics: each run is one frozen noisy chip realization (drawn
once per trial), matching the paper's "repeated noisy runs".  Models
containing :class:`SuperMeshCore` fall back to the legacy resampling
loop, which redraws noise inside every forward.

:func:`scenario_robustness_grid` extends the same engine to the
fabrication axis: F frozen fabrication samples x S phase-noise levels
x R runs, with the per-sample passive errors entering the fused build
as per-trial constant block stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data import Dataset
from ..nn import Module
from ..onn.layers import (
    BlockUSV,
    FrozenPhotonicView,
    photonic_cores,
    set_model_phase_noise,
)
from ..onn.trainer import TrainConfig, TrainResult, evaluate, evaluate_population, train
from ..utils.rng import spawn_rng, stable_seed
from .supermesh import SuperMeshCore


def _set_any_phase_noise(model: Module, std: float) -> int:
    """Set phase noise on PTC cores and SuperMesh cores alike."""
    count = set_model_phase_noise(model, std)
    for m in model.modules():
        if isinstance(m, SuperMeshCore):
            m.noise_std = std
            count += 1
    return count


def variation_aware_train(
    model: Module,
    train_set: Dataset,
    test_set: Optional[Dataset] = None,
    noise_std: float = 0.02,
    config: Optional[TrainConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> TrainResult:
    """Train ``model`` with phase-noise injection enabled.

    Noise is active during training batches and disabled for the test
    evaluations inside the loop (clean accuracy is reported; noisy
    accuracy comes from :func:`noise_robustness_curve`).
    """
    n_cores = _set_any_phase_noise(model, noise_std)
    if n_cores == 0:
        raise ValueError("model has no photonic cores to inject noise into")
    try:
        result = train(model, train_set, test_set, config=config, rng=rng)
    finally:
        _set_any_phase_noise(model, 0.0)
    return result


@dataclass
class RobustnessPoint:
    """Accuracy statistics at one phase-noise intensity."""

    noise_std: float
    mean_acc: float
    std_acc: float
    runs: List[float]


# ----------------------------------------------------------------------
# Trial-batched Monte-Carlo engine
# ----------------------------------------------------------------------

_ENGINE_BACKENDS = ("fast", "reference")

#: Default execution backend for Monte-Carlo trial stacks.  Trials are
#: forward-only by construction, so they default to the complex64 fast
#: lane — halving the memory traffic of the (T, n_units, K, K) builds —
#: while accuracies stay within Monte-Carlo resolution of complex128.
#: Pass ``exec_backend="numpy"`` to any grid entry point to force full
#: precision.
TRIAL_EXEC_BACKEND = "numpy-c64"


def _draw_grid_offsets(
    cores: Sequence[BlockUSV],
    scenario_stds: np.ndarray,
    rng: np.random.Generator,
) -> List[Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]]:
    """Pre-draw phase-noise offsets for every (core, trial).

    One deterministic draw order — cores in traversal order, U mesh
    before V mesh — consumed identically by both engine backends, so
    parity holds by construction.
    """
    draws = []
    for core in cores:
        off_u = core.u_factory.draw_trial_noise(scenario_stds, rng)
        off_v = core.v_factory.draw_trial_noise(scenario_stds, rng)
        draws.append((off_u, off_v))
    return draws


def _run_weight_trials(
    model: Module,
    cores: Sequence[BlockUSV],
    offsets,
    test_set: Dataset,
    backend: str,
    batch_size: int,
    const_stacks=None,
    exec_backend=None,
) -> np.ndarray:
    """Score T frozen noisy realizations of ``model``; returns (T,).

    ``backend="fast"``: every core builds all trials in one fused op
    and the trials share a single pass over ``test_set``.
    ``backend="reference"``: the sequential baseline — per trial, the
    trial's phase offsets are installed into the factories and a full
    :func:`evaluate` pass runs, so every batch pays a mesh rebuild
    (the offsets bypass the eval-mode build cache).  That matches the
    pre-engine loop's *cost structure*; the noise semantics differ
    deliberately — one frozen realization per run (a deployed noisy
    chip) instead of the old per-batch redraw, which averaged noise
    within a run and understated the run-to-run variance.  Both
    backends consume identical offsets, so their per-run accuracies
    agree at a fixed seed.

    ``exec_backend`` selects the array engine / dtype of the trial
    builds; None uses :data:`TRIAL_EXEC_BACKEND` (the complex64 fast
    lane).  The reference backend installs the same execution backend
    on the factories, so both engine backends produce bitwise-identical
    noisy weights at a fixed seed regardless of precision.
    """
    if backend not in _ENGINE_BACKENDS:
        raise ValueError(
            f"backend must be one of {_ENGINE_BACKENDS}, got {backend!r}"
        )
    eb = TRIAL_EXEC_BACKEND if exec_backend is None else exec_backend
    if const_stacks is None:
        const_stacks = [(None, None)] * len(cores)
    n_trials = len(offsets[0][0][0])
    if backend == "fast":
        weights = [
            core.build_weight_trials(
                off_u,
                off_v,
                const_stacks_u=cu,
                const_stacks_v=cv,
                exec_backend=eb,
            )
            for core, (off_u, off_v), (cu, cv) in zip(cores, offsets, const_stacks)
        ]
        views = [
            FrozenPhotonicView(model, [(c, w[t]) for c, w in zip(cores, weights)])
            for t in range(n_trials)
        ]
        return np.asarray(evaluate_population(views, test_set, batch_size=batch_size))

    accs = np.empty(n_trials)
    saved_consts = [
        (
            None if cu is None else list(core.u_factory._const),
            None if cv is None else list(core.v_factory._const),
        )
        for core, (cu, cv) in zip(cores, const_stacks)
    ]
    saved_exec = [
        (core.u_factory.exec_backend, core.v_factory.exec_backend)
        for core in cores
    ]
    try:
        for core in cores:
            core.u_factory.exec_backend = eb
            core.v_factory.exec_backend = eb
        for t in range(n_trials):
            for core, (off_u, off_v), (cu, cv) in zip(cores, offsets, const_stacks):
                core.u_factory.trial_phase_offsets = tuple(o[t] for o in off_u)
                core.v_factory.trial_phase_offsets = tuple(o[t] for o in off_v)
                if cu is not None:
                    core.u_factory._const = list(cu[t])
                if cv is not None:
                    core.v_factory._const = list(cv[t])
            accs[t] = evaluate(model, test_set, batch_size=batch_size)
    finally:
        for core, (su, sv), (eu, ev) in zip(cores, saved_consts, saved_exec):
            core.u_factory.trial_phase_offsets = None
            core.v_factory.trial_phase_offsets = None
            core.u_factory.exec_backend = eu
            core.v_factory.exec_backend = ev
            if su is not None:
                core.u_factory._const = su
            if sv is not None:
                core.v_factory._const = sv
    return accs


def evaluate_noise_grid(
    model: Module,
    test_set: Dataset,
    noise_stds: Sequence[float],
    n_runs: int,
    seed: int = 0,
    backend: str = "fast",
    batch_size: int = 256,
    exec_backend=None,
) -> np.ndarray:
    """Accuracies of the full (noise level x run) Monte-Carlo grid,
    shape ``(len(noise_stds), n_runs)``.

    See the module docstring for the engine; at a fixed ``seed`` the
    two backends return identical grids.  ``exec_backend`` selects the
    trial-build precision (None = :data:`TRIAL_EXEC_BACKEND`, the
    complex64 lane).
    """
    cores = photonic_cores(model)
    if not cores:
        raise ValueError("model has no photonic cores to inject noise into")
    stds = np.asarray([float(s) for s in noise_stds], dtype=float)
    scenario_stds = np.repeat(stds, n_runs)  # trial order: (level, run)
    rng = spawn_rng(stable_seed("noise-grid", seed))
    offsets = _draw_grid_offsets(cores, scenario_stds, rng)
    accs = _run_weight_trials(
        model, cores, offsets, test_set, backend=backend, batch_size=batch_size,
        exec_backend=exec_backend,
    )
    return accs.reshape(len(stds), n_runs)


def evaluate_noise_grid_shard(
    model: Module,
    test_set: Dataset,
    noise_stds: Sequence[float],
    n_runs: int,
    lo: int,
    hi: int,
    seed: int = 0,
    backend: str = "fast",
    batch_size: int = 256,
    exec_backend=None,
) -> np.ndarray:
    """Accuracies of trials ``lo:hi`` of the flattened noise grid.

    The sharded counterpart of :func:`evaluate_noise_grid` for the
    design service's multiprocess workers: the full grid's noise
    offsets are drawn exactly as the unsharded call draws them (one
    rng stream seeded from ``("noise-grid", seed)``), then only the
    ``[lo, hi)`` slice of trials is built and scored.  Because each
    trial's build and evaluation are independent of which other trials
    share the batch (``evaluate_population`` scores every view on the
    same data batches), concatenating shard results in index order
    reproduces ``evaluate_noise_grid(...).reshape(-1)[lo:hi]`` bit for
    bit — regardless of how the trial range was partitioned.

    Trial order is C-order over ``(noise level, run)``, matching
    ``evaluate_noise_grid``'s ``(len(noise_stds), n_runs)`` reshape.
    """
    cores = photonic_cores(model)
    if not cores:
        raise ValueError("model has no photonic cores to inject noise into")
    stds = np.asarray([float(s) for s in noise_stds], dtype=float)
    n_trials = len(stds) * n_runs
    if not (0 <= lo <= hi <= n_trials):
        raise ValueError(
            f"invalid trial slice [{lo}, {hi}) for {n_trials} trials"
        )
    scenario_stds = np.repeat(stds, n_runs)
    rng = spawn_rng(stable_seed("noise-grid", seed))
    offsets = _draw_grid_offsets(cores, scenario_stds, rng)
    sliced = [
        (
            tuple(o[lo:hi] for o in off_u),
            tuple(o[lo:hi] for o in off_v),
        )
        for off_u, off_v in offsets
    ]
    if hi == lo:
        return np.empty(0)
    return _run_weight_trials(
        model, cores, sliced, test_set, backend=backend,
        batch_size=batch_size, exec_backend=exec_backend,
    )


def noise_robustness_curve(
    model: Module,
    test_set: Dataset,
    noise_stds: Sequence[float] = (0.02, 0.04, 0.06, 0.08, 0.10),
    n_runs: int = 20,
    seed: int = 0,
    backend: str = "fast",
    batch_size: int = 256,
    exec_backend=None,
) -> List[RobustnessPoint]:
    """Accuracy-vs-noise curve (paper Fig. 4; +-3 sigma over n_runs).

    Each run draws one frozen phase-noise realization for every
    photonic core and evaluates clean-labels accuracy on ``test_set``;
    the model itself is never mutated.  PTC models run through the
    trial-batched engine (:func:`evaluate_noise_grid`); SuperMesh
    models fall back to the legacy sequential resampling loop.
    """
    has_supermesh = any(isinstance(m, SuperMeshCore) for m in model.modules())
    if has_supermesh or not photonic_cores(model):
        return _resample_robustness_curve(
            model, test_set, noise_stds=noise_stds, n_runs=n_runs, seed=seed,
            batch_size=batch_size,
        )
    grid = evaluate_noise_grid(
        model, test_set, noise_stds, n_runs, seed=seed, backend=backend,
        batch_size=batch_size, exec_backend=exec_backend,
    )
    points = []
    for std, runs in zip(noise_stds, grid):
        points.append(
            RobustnessPoint(
                noise_std=float(std),
                mean_acc=float(runs.mean()),
                std_acc=float(runs.std()),
                runs=[float(a) for a in runs],
            )
        )
    return points


@dataclass
class ScenarioGrid:
    """Accuracy grid of a fabrication x phase-noise scenario sweep.

    ``accs[f, s, r]`` is the accuracy of fabrication sample ``f`` at
    phase-noise level ``noise_stds[s]``, run ``r``.
    """

    noise_stds: Tuple[float, ...]
    accs: np.ndarray  # (n_fab_samples, len(noise_stds), n_runs)

    @property
    def n_fab_samples(self) -> int:
        return self.accs.shape[0]

    @property
    def n_runs(self) -> int:
        return self.accs.shape[2]

    def mean_over_runs(self) -> np.ndarray:
        """(n_fab_samples, len(noise_stds)) mean accuracy."""
        return self.accs.mean(axis=-1)

    def curve(self) -> List[RobustnessPoint]:
        """Collapse the fabrication axis: one robustness point per
        noise level over all (fab sample, run) trials."""
        points = []
        for s, std in enumerate(self.noise_stds):
            runs = self.accs[:, s, :].reshape(-1)
            points.append(
                RobustnessPoint(
                    noise_std=float(std),
                    mean_acc=float(runs.mean()),
                    std_acc=float(runs.std()),
                    runs=[float(a) for a in runs],
                )
            )
        return points


def scenario_robustness_grid(
    model: Module,
    test_set: Dataset,
    spec,
    noise_stds: Sequence[float] = (0.02, 0.06, 0.10),
    n_fab_samples: int = 3,
    n_runs: int = 5,
    seed: int = 0,
    backend: str = "fast",
    batch_size: int = 256,
    exec_backend=None,
) -> ScenarioGrid:
    """Monte-Carlo sweep over fabrication samples x phase noise x runs.

    ``spec`` is a :class:`repro.photonics.nonideality.NonidealitySpec`
    describing the *passive* nonidealities (coupler imbalance,
    insertion loss, thermal crosstalk); its ``phase_noise_std`` field
    is ignored — the runtime phase-noise axis is ``noise_stds``.  For
    each of ``n_fab_samples`` frozen fabrication outcomes the engine
    substitutes the realized per-block constant matrices into the
    fused trial build, so the whole (F x S x R) grid costs one batched
    build per mesh factory plus one shared pass over ``test_set``.

    Requires a searched-topology model: every photonic core must be
    backed by :class:`~repro.ptc.unitary.FixedTopologyFactory` meshes.
    """
    from ..photonics.nonideality import (
        fabrication_const_stack,
        sample_fabrication_batch,
    )
    from ..ptc.unitary import FixedTopologyFactory
    from .topology import BlockSpec, PTCTopology

    cores = photonic_cores(model)
    if not cores:
        raise ValueError("model has no photonic cores to inject noise into")
    for core in cores:
        for factory in (core.u_factory, core.v_factory):
            if not isinstance(factory, FixedTopologyFactory):
                raise ValueError(
                    "scenario_robustness_grid requires searched-topology "
                    f"meshes (FixedTopologyFactory); got {type(factory).__name__}"
                )
    stds = np.asarray([float(s) for s in noise_stds], dtype=float)
    n_levels = len(stds)
    n_trials = n_fab_samples * n_levels * n_runs
    # Trial order (fab, level, run), C-order.
    scenario_stds = np.tile(np.repeat(stds, n_runs), n_fab_samples)
    fab_of_trial = np.repeat(np.arange(n_fab_samples), n_levels * n_runs)
    rng = spawn_rng(stable_seed("scenario-grid", seed))

    offsets = []
    const_stacks = []
    for core in cores:
        per_factory_offs = []
        per_factory_consts = []
        for factory in (core.u_factory, core.v_factory):
            blocks = [
                BlockSpec(coupler_mask=mask, offset=off, perm=perm)
                for perm, mask, off in factory.blocks_spec
            ]
            topo = PTCTopology(k=factory.k, blocks_u=blocks, blocks_v=[])
            samples = [
                u for u, _ in sample_fabrication_batch(
                    topo, spec, n_fab_samples, rng=rng
                )
            ]
            consts = np.stack(
                [
                    fabrication_const_stack(blocks, factory.k, spec, s)
                    for s in samples
                ]
            )  # (F, B, K, K)
            (off,) = factory.draw_trial_noise(scenario_stds, rng)
            xtalk = samples[0].crosstalk if samples else None
            if xtalk is not None:
                # Crosstalk mixes the *programmed* drive (post phase
                # transform, pre runtime noise); the coupling matrix is
                # spec-determined, hence identical across samples —
                # fold it into the additive offsets once.
                base = factory._transformed_phase_data(factory.phases)
                off = off + (base @ xtalk.T - base)[None]
            per_factory_offs.append((off,))
            per_factory_consts.append(consts[fab_of_trial])  # (T, B, K, K)
        offsets.append(tuple(per_factory_offs))
        const_stacks.append(tuple(per_factory_consts))

    accs = _run_weight_trials(
        model, cores, offsets, test_set, backend=backend, batch_size=batch_size,
        const_stacks=const_stacks, exec_backend=exec_backend,
    )
    return ScenarioGrid(
        noise_stds=tuple(float(s) for s in stds),
        accs=accs.reshape(n_fab_samples, n_levels, n_runs),
    )


# ----------------------------------------------------------------------
# Legacy resampling loop (SuperMesh models)
# ----------------------------------------------------------------------


def _resample_robustness_curve(
    model: Module,
    test_set: Dataset,
    noise_stds: Sequence[float],
    n_runs: int,
    seed: int,
    batch_size: int = 256,
) -> List[RobustnessPoint]:
    """Sequential curve with noise redrawn inside every forward —
    needed for SuperMesh cores, whose noise injection lives in the
    sampling path rather than a phase parameter."""
    points: List[RobustnessPoint] = []
    for std in noise_stds:
        accs: List[float] = []
        for run in range(n_runs):
            # Reseed core RNGs per run for independent noise draws.
            rng = spawn_rng(stable_seed(seed, float(std), run))
            _seed_core_rngs(model, rng)
            _set_any_phase_noise(model, float(std))
            try:
                accs.append(evaluate(model, test_set, batch_size=batch_size))
            finally:
                _set_any_phase_noise(model, 0.0)
        arr = np.asarray(accs)
        points.append(
            RobustnessPoint(
                noise_std=float(std),
                mean_acc=float(arr.mean()),
                std_acc=float(arr.std()),
                runs=accs,
            )
        )
    return points


def _seed_core_rngs(model: Module, rng: np.random.Generator) -> None:
    for m in model.modules():
        if isinstance(m, BlockUSV):
            m.u_factory._rng = rng
            m.v_factory._rng = rng
        elif isinstance(m, SuperMeshCore):
            m._rng = rng
