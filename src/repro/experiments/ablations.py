"""Ablation studies for the reproduction's load-bearing design choices.

1. **Permutation init**: smoothed identity vs random legal permutation.
   The paper states random-permutation init fails because zero entries
   receive no gradient; we measure the fraction of entries with nonzero
   gradient under each init.
2. **Row/col L2 normalization of U, V**: relaxed CR layers are doubly
   stochastic but not orthogonal, so each one is a *contraction* — a
   cascade of them collapses the signal toward zero (vanishing
   activations/gradients).  The normalization restores unit row/column
   scale and keeps the statistics healthy (paper: "helps to stabilize
   the matrix statistics").
3. **Adaptive ALM (quadratic term scaled by lambda) vs standard ALM**:
   the adaptive form lets the task dominate early; we compare early-
   phase constraint pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..autograd import Tensor
from ..core import PermutationLearner, SuperMeshSpace
from ..core.permutation import smoothed_identity
from ..core.supermesh import SuperMeshLinear
from ..photonics import AMF, perm_to_matrix
from ..utils.rng import spawn_rng


@dataclass
class PermInitAblation:
    nonzero_grad_fraction_smoothed: float
    nonzero_grad_fraction_random: float


def run_perm_init_ablation(k: int = 8, seed: int = 0) -> PermInitAblation:
    """Fraction of permutation entries receiving gradient signal."""
    rng = spawn_rng(seed)

    def grad_fraction(init: np.ndarray) -> float:
        learner = PermutationLearner(k, 1)
        np.copyto(learner.raw.data, init)
        x = Tensor(rng.normal(size=(8, k)))
        p = learner.relaxed()
        loss = ((x @ p[0].T) ** 2).sum()
        learner.raw.grad = None
        loss.backward()
        g = learner.raw.grad
        if g is None:
            return 0.0
        return float((np.abs(g) > 1e-12).mean())

    smooth = grad_fraction(smoothed_identity(k, 1))
    random_perm = perm_to_matrix(rng.permutation(k))[None].astype(float)
    rand = grad_fraction(random_perm)
    print(
        f"\n=== Ablation: permutation init (K={k}) ===\n"
        f"  smoothed identity: {smooth:.0%} entries get gradient\n"
        f"  random permutation: {rand:.0%} entries get gradient"
    )
    return PermInitAblation(smooth, rand)


@dataclass
class NormalizationAblation:
    output_std_with_norm: float
    output_std_without_norm: float


def run_normalization_ablation(k: int = 8, seed: int = 0) -> NormalizationAblation:
    """Output scale of a SuperMesh layer with/without U,V normalization.

    The relaxation is pushed away from orthogonality to emulate
    mid-training conditions.
    """
    rng = spawn_rng(seed)

    def output_std(normalize: bool) -> float:
        space = SuperMeshSpace(
            k=k, pdk=AMF, f_min=240_000, f_max=300_000, b_min=4, b_max=8,
            rng=spawn_rng(seed),
        )
        # Inflate the relaxed permutations (non-orthogonal).
        space.perms.raw.data[:] = np.abs(rng.normal(1.0, 0.5, space.perms.raw.shape))
        lin = SuperMeshLinear(space, 2 * k, 2 * k, rng=spawn_rng(seed))
        if not normalize:
            # Monkey-patch: bypass the normalization inside the core.
            core = lin.core

            def forward_no_norm():
                sample = space.sample(stochastic=False)
                u, v = core._unitaries_fast(sample)
                sv = core.sigma.astype(np.complex128).reshape(
                    (core.n_units, core.k, 1)
                ) * v
                blocks = (u @ sv).real()
                w = blocks.reshape((core.p, core.q, core.k, core.k))
                w = w.transpose((0, 2, 1, 3)).reshape(
                    (core.p * core.k, core.q * core.k)
                )
                return w

            core.forward = forward_no_norm
        space.sample(stochastic=False)
        x = Tensor(rng.normal(size=(32, 2 * k)))
        return float(lin(x).data.std())

    with_norm = output_std(True)
    without = output_std(False)
    print(
        f"\n=== Ablation: U/V L2 normalization (K={k}) ===\n"
        f"  with normalization:    output std {with_norm:8.3f}\n"
        f"  without normalization: output std {without:8.3f}"
    )
    return NormalizationAblation(with_norm, without)


@dataclass
class CrossingCostSweep:
    """Searched crossing usage as a function of the PDK's CR area."""

    cr_areas: Tuple[float, ...]
    crossings: Tuple[int, ...]
    footprints: Tuple[float, ...]


def run_crossing_cost_sweep(
    k: int = 8,
    cr_areas: Tuple[float, ...] = (64.0, 1000.0, 4900.0),
    seed: int = 0,
) -> CrossingCostSweep:
    """PDK what-if study (extension beyond the paper's two foundries).

    Sweeps the crossing area of a hypothetical PDK while keeping
    PS/DC at AMF values, under a window sized so that routing competes
    with couplers for area.  As crossings get more expensive the
    searched designs should use fewer of them — the continuous version
    of the paper's AMF -> AIM adaptation.
    """
    from ..core import ADEPTConfig, ADEPTSearch
    from ..photonics import AMF, FoundryPDK

    crossings = []
    footprints = []
    print("\n=== Ablation: crossing-cost sweep (PDK what-if) ===")
    for cr_area in cr_areas:
        pdk = FoundryPDK(
            name=f"whatif-cr{int(cr_area)}",
            ps_area=AMF.ps_area,
            dc_area=AMF.dc_area,
            cr_area=cr_area,
        )
        cfg = ADEPTConfig(
            k=k, pdk=pdk, f_min=240_000, f_max=300_000,
            epochs=8, warmup_epochs=2, spl_epoch=5, lr=5e-3,
            n_train=192, n_test=64, proxy_channels=4, batch_size=48,
            seed=seed,
        )
        result = ADEPTSearch(cfg).run()
        fb = result.topology.footprint(pdk)
        crossings.append(fb.n_cr)
        footprints.append(fb.total)
        print(
            f"  CR area {cr_area:7.0f} um^2 -> #CR={fb.n_cr:<3} "
            f"footprint={fb.total / 1000:6.1f}k (window [240, 300]k)"
        )
    return CrossingCostSweep(
        cr_areas=tuple(cr_areas),
        crossings=tuple(crossings),
        footprints=tuple(footprints),
    )


@dataclass
class ALMVariantAblation:
    early_penalty_adaptive: float
    early_penalty_standard: float


def run_alm_variant_ablation(k: int = 8, seed: int = 0) -> ALMVariantAblation:
    """Early-phase constraint pressure: adaptive vs standard ALM.

    In the paper's adaptive form the quadratic term is ALSO scaled by
    lambda, so with lambda ~= 0 at the start the constraint exerts no
    pressure and the task loss dominates.  Standard ALM applies
    rho/2 * Delta^2 immediately.
    """
    learner = PermutationLearner(k, 2, rho0=1e-2)
    p = learner.relaxed()
    adaptive = float(learner.alm_loss(p).item())

    # Standard ALM penalty with the same state.
    from ..core.permutation import delta_l1_l2

    d_row = delta_l1_l2(p, axis=-1)
    d_col = delta_l1_l2(p, axis=-2)
    standard = float(
        (
            (Tensor(learner.lambda_row) * d_row).sum()
            + (Tensor(learner.lambda_col) * d_col).sum()
            + (learner.rho / 2.0) * ((d_row * d_row).sum() + (d_col * d_col).sum())
        ).item()
    )
    print(
        f"\n=== Ablation: adaptive vs standard ALM (K={k}) ===\n"
        f"  adaptive (paper) initial penalty: {adaptive:.3e}\n"
        f"  standard ALM initial penalty:     {standard:.3e}"
    )
    return ALMVariantAblation(adaptive, standard)
