"""Pre-campaign loops of the extension studies.

Each function is the joint loop one ``run_*`` entry point of
:mod:`repro.experiments.extensions` ran before the campaign engine
split every study into independent, content-addressed cells.  The
defaults match the entry points, so a parity test passes the same
keyword arguments to both and compares the results byte for byte.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.expressivity import build_factory, fit_unitary
from repro.core.baseline_search import (
    EvolutionarySearch,
    RandomSearch,
    is_feasible,
    make_expressivity_evaluator,
    random_feasible_topology,
)
from repro.core.quantization import make_phase_quantizer, quantize_phase
from repro.experiments.common import ExperimentScale, run_search
from repro.experiments.extensions import (
    ExpressivityComparison,
    NonidealityStudy,
    PowerComparison,
    QuantizationStudy,
    SearchMethodAblation,
    _nonideality_specs,
)
from repro.photonics.nonideality import unitary_fidelity_under_noise
from repro.photonics.pdk import AMF, FoundryPDK


def run_search_method_ablation_reference(
    k: int = 8,
    pdk: FoundryPDK = AMF,
    window_kum2: Tuple[float, float] = (240.0, 300.0),
    budget: int = 12,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
) -> SearchMethodAblation:
    scale = scale or ExperimentScale()
    f_min, f_max = window_kum2[0] * 1000.0, window_kum2[1] * 1000.0
    score_fn = make_expressivity_evaluator(steps=200, n_targets=2, seed=seed)
    out = SearchMethodAblation(window=(f_min, f_max))

    adept = run_search(k, pdk, window_kum2, scale, name="adept", seed=seed)
    candidates = [("adept", adept.topology)]

    rnd = RandomSearch(k, pdk, f_min, f_max,
                       evaluate=make_expressivity_evaluator(steps=80, seed=seed),
                       seed=seed).run(n_samples=budget)
    candidates.append(("random", rnd.topology))

    population = max(2, budget // 4)
    evo = EvolutionarySearch(
        k, pdk, f_min, f_max,
        evaluate=make_expressivity_evaluator(steps=80, seed=seed),
        population=population, seed=seed,
    ).run(generations=max(1, (budget - population) // population),
          children_per_gen=population)
    candidates.append(("evolutionary", evo.topology))

    for name, topo in candidates:
        out.methods.append(name)
        out.scores.append(float(score_fn(topo)))
        out.footprints.append(topo.footprint(pdk).total)
        out.feasible.append(is_feasible(topo, pdk, f_min, f_max))
        out.topologies.append(topo)
    return out


def run_expressivity_comparison_reference(
    k: int = 8,
    pdk: FoundryPDK = AMF,
    steps: int = 400,
    n_targets: int = 2,
    seed: int = 0,
) -> ExpressivityComparison:
    from scipy.stats import unitary_group

    from repro.photonics.footprint import butterfly_footprint, mzi_onn_footprint
    from repro.experiments.common import TABLE1_WINDOWS

    rng = np.random.default_rng(seed)
    windows = TABLE1_WINDOWS[k]
    shallow = random_feasible_topology(
        k, pdk, windows[0][0] * 1e3, windows[0][1] * 1e3, rng=rng, name="adept-a1")
    deep = random_feasible_topology(
        k, pdk, windows[-1][0] * 1e3, windows[-1][1] * 1e3, rng=rng, name="adept-a5")

    entries = [
        ("mzi", "mzi", None, mzi_onn_footprint(pdk, k).total / 1e3),
        ("fft", "fft", None, butterfly_footprint(pdk, k).total / 1e3),
        ("adept-a1", "topology", shallow, shallow.footprint(pdk).total / 1e3),
        ("adept-a5", "topology", deep, deep.footprint(pdk).total / 1e3),
    ]
    out = ExpressivityComparison(k=k)
    for name, kind, topo, fp in entries:
        errs, fids = [], []
        for t in range(n_targets):
            factory = build_factory(kind, k, topology=topo,
                                    rng=np.random.default_rng(seed + t))
            target = unitary_group.rvs(k, random_state=seed + 100 + t)
            res = fit_unitary(factory, target, steps=steps, lr=0.05,
                              rng=np.random.default_rng(seed + 200 + t))
            errs.append(res.error)
            fids.append(res.fidelity)
        out.names.append(name)
        out.errors.append(float(np.mean(errs)))
        out.fidelities.append(float(np.mean(fids)))
        out.footprints_kum2.append(float(fp))
    return out


def run_quantization_study_reference(
    k: int = 8,
    bit_widths: Sequence[int] = (6, 4, 3, 2),
    steps: int = 400,
    seed: int = 0,
) -> QuantizationStudy:
    from scipy.stats import unitary_group

    target = unitary_group.rvs(k, random_state=seed)
    target_norm = float(np.linalg.norm(target))
    out = QuantizationStudy(k=k, bit_widths=list(bit_widths))

    def realized(factory, psi: np.ndarray) -> np.ndarray:
        u = factory.build().data[0]
        return np.exp(-1j * psi)[:, None] * u

    factory = build_factory("mzi", k, rng=np.random.default_rng(seed))
    full = fit_unitary(factory, target, steps=steps, lr=0.05,
                       rng=np.random.default_rng(seed + 1))
    out.full_precision_error = full.error

    # PTQ: snap every trained phase (mesh + output screen) to the
    # b-bit grid, re-measure the error.
    for bits in bit_widths:
        saved = [p.data.copy() for p in factory.parameters()]
        for p in factory.parameters():
            p.data = quantize_phase(p.data, bits)
        psi_q = quantize_phase(full.output_phase, bits)
        u = realized(factory, psi_q)
        out.ptq_errors.append(float(np.linalg.norm(u - target)) / target_norm)
        for p, data in zip(factory.parameters(), saved):
            p.data = data

    # QAT: finetune the full-precision solution with STE quantizers on
    # *every* phase — mesh and output screen — so the training
    # objective equals the deployed forward exactly (the ROQ recipe).
    from repro.autograd import Tensor
    from repro.core.quantization import ste_quantize_phase
    from repro.nn.module import Parameter
    from repro.optim import Adam

    trained = [p.data.copy() for p in factory.parameters()]
    t_target = Tensor(target.reshape(1, k, k))
    for bits in bit_widths:
        f = build_factory("mzi", k, rng=np.random.default_rng(seed))
        for p, data in zip(f.parameters(), trained):
            p.data = data.copy()
        f.phase_transform = make_phase_quantizer(bits)
        psi = Parameter(full.output_phase.copy())
        params = list(f.parameters()) + [psi]
        opt = Adam(params, lr=0.01)
        # STE descent on a piecewise-constant forward is not monotone:
        # keep the best quantized configuration seen.  The first
        # iterate *is* the PTQ solution, so QAT can only improve on it.
        best = float("inf")
        best_state = [p.data.copy() for p in params]
        for _ in range(max(100, steps // 2)):
            opt.zero_grad()
            screen = (Tensor(np.array(-1j)) * ste_quantize_phase(psi, bits)).exp()
            u = screen.reshape((1, k, 1)) * f.build()
            loss = ((u - t_target) * (u - t_target).conj()).real().sum()
            err = float(loss.data)
            if err < best:
                best = err
                best_state = [p.data.copy() for p in params]
            loss.backward()
            opt.step()
        for p, data in zip(params, best_state):
            p.data = data
        u = realized(f, quantize_phase(psi.data, bits))
        out.qat_errors.append(float(np.linalg.norm(u - target)) / target_norm)
    return out


def run_power_comparison_reference(
    k: int = 8,
    pdk: FoundryPDK = AMF,
    window_kum2: Tuple[float, float] = (240.0, 300.0),
    seed: int = 0,
) -> PowerComparison:
    from repro.photonics.power import estimate_power
    from repro.ptc.reference_topologies import butterfly_topology, mzi_topology

    designs = [
        ("mzi", mzi_topology(k)),
        ("fft", butterfly_topology(k)),
        ("adept", random_feasible_topology(
            k, pdk, window_kum2[0] * 1e3, window_kum2[1] * 1e3,
            rng=np.random.default_rng(seed), name="adept")),
    ]
    out = PowerComparison(k=k)
    for name, topo in designs:
        report = estimate_power(topo, pdk)
        out.names.append(name)
        out.total_power_mw.append(report.total_power_mw)
        out.latency_ps.append(report.latency_ps)
        out.energy_per_mac_fj.append(report.energy_per_mac_fj)
        out.worst_loss_db.append(report.worst_path_loss_db)
    return out


def run_nonideality_study_reference(
    k: int = 8,
    shallow_blocks: int = 3,
    deep_blocks: int = 16,
    n_trials: int = 8,
    seed: int = 0,
) -> NonidealityStudy:
    from repro.core.topology import random_topology

    rng = np.random.default_rng(seed)
    shallow = random_topology(k, shallow_blocks, shallow_blocks, rng,
                              coupler_density=1.0, permute_prob=0.5)
    deep = random_topology(k, deep_blocks, deep_blocks, rng,
                           coupler_density=1.0, permute_prob=0.5)
    specs = _nonideality_specs()
    out = NonidealityStudy(k=k, shallow_blocks=shallow_blocks,
                           deep_blocks=deep_blocks)
    for name, spec in specs.items():
        s_mean, _ = unitary_fidelity_under_noise(
            shallow, spec, n_trials=n_trials, rng=np.random.default_rng(seed + 1))
        d_mean, _ = unitary_fidelity_under_noise(
            deep, spec, n_trials=n_trials, rng=np.random.default_rng(seed + 1))
        out.specs.append(name)
        out.shallow_fidelity.append(s_mean)
        out.deep_fidelity.append(d_mean)
    return out
