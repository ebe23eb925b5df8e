"""Byte-identical parity: the campaign-backed shims must reproduce the
pre-redesign loops exactly, and the checked-in example configs must be
the specs the builders produce.

The frozen legacy bodies of the extension studies live in
``tests/oracles/studies.py`` (parity oracles); every study here runs
the shim and its oracle at a fixed seed and compares the full result
payload — floats by equality, not tolerance.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.studies import (
    fig4_spec,
    nonideality_spec,
    power_spec,
    quantization_spec,
)
from repro.experiments.common import ExperimentScale
from repro.experiments.extensions import (
    run_expressivity_comparison,
    run_nonideality_study,
    run_power_comparison,
    run_quantization_study,
    run_search_method_ablation,
)
from repro.experiments.fig5 import alm_scan_point, run_fig5a

from oracles import (
    run_expressivity_comparison_reference,
    run_nonideality_study_reference,
    run_power_comparison_reference,
    run_quantization_study_reference,
    run_search_method_ablation_reference,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CAMPAIGNS = REPO_ROOT / "examples" / "campaigns"

FIG4_SCALE = ExperimentScale(
    n_train=32, n_test=24, retrain_epochs=1, batch_size=16,
    model_width=0.25, noise_runs=2, seed=0,
)


class TestStudyParity:
    def test_quantization_parity(self):
        kwargs = dict(k=4, bit_widths=(6, 3), steps=60, seed=0)
        ref = run_quantization_study_reference(**kwargs)
        with pytest.warns(DeprecationWarning, match="quantization_spec"):
            new = run_quantization_study(**kwargs)
        assert dataclasses.asdict(new) == dataclasses.asdict(ref)

    def test_nonideality_parity(self):
        kwargs = dict(k=6, shallow_blocks=2, deep_blocks=5, n_trials=2,
                      seed=0)
        ref = run_nonideality_study_reference(**kwargs)
        with pytest.warns(DeprecationWarning, match="nonideality_spec"):
            new = run_nonideality_study(**kwargs)
        assert dataclasses.asdict(new) == dataclasses.asdict(ref)

    def test_power_parity(self):
        kwargs = dict(k=8, seed=0)
        ref = run_power_comparison_reference(**kwargs)
        with pytest.warns(DeprecationWarning, match="power_spec"):
            new = run_power_comparison(**kwargs)
        assert dataclasses.asdict(new) == dataclasses.asdict(ref)

    def test_expressivity_parity(self):
        kwargs = dict(k=8, steps=20, n_targets=1, seed=0)
        ref = run_expressivity_comparison_reference(**kwargs)
        with pytest.warns(DeprecationWarning, match="expressivity_spec"):
            new = run_expressivity_comparison(**kwargs)
        assert dataclasses.asdict(new) == dataclasses.asdict(ref)

    def test_search_method_ablation_parity(self):
        scale = ExperimentScale(
            n_train=32, n_test=16, search_epochs=2, search_warmup=1,
            search_spl_epoch=1, batch_size=16, proxy_channels=2,
        )
        kwargs = dict(k=8, budget=4, scale=scale, seed=0)
        ref = run_search_method_ablation_reference(**kwargs)
        with pytest.warns(DeprecationWarning, match="search_ablation_spec"):
            new = run_search_method_ablation(**kwargs)
        # Topologies compare by their canonical JSON; every other field
        # by exact equality.
        assert [t.to_json() for t in new.topologies] == [
            t.to_json() for t in ref.topologies
        ]
        for field in ("window", "methods", "scores", "footprints", "feasible"):
            assert getattr(new, field) == getattr(ref, field), field


class TestFig5Parity:
    def test_fig5a_shim_matches_scan_points(self, capsys):
        """The fig5a shim must reproduce direct alm_scan_point calls —
        the exact body of the pre-redesign loop."""
        rho0_values = (1e-7, 1e-6)
        traces = run_fig5a(k=6, n_blocks=3, steps=40,
                           rho0_values=rho0_values, seed=0)
        capsys.readouterr()
        assert list(traces) == list(rho0_values)
        for rho0 in rho0_values:
            ref = alm_scan_point(rho0, k=6, n_blocks=3, steps=40, seed=0)
            assert traces[rho0].perm_error == ref.perm_error
            assert traces[rho0].mean_lambda == ref.mean_lambda


class TestFig4Parity:
    def test_fig4_shim_matches_mesh_noise_curve(self, capsys):
        """run_fig4_part (campaign shim) vs the pre-redesign per-mesh
        loop, at the reproducibility-test scale."""
        from repro.experiments.fig4 import mesh_noise_curve, run_fig4_part

        noise_stds = (0.02, 0.06)
        result = run_fig4_part("a", {}, k=8, scale=FIG4_SCALE,
                               noise_stds=noise_stds)
        capsys.readouterr()
        for mesh_name, mesh in (("MZI", "mzi"), ("FFT", "butterfly")):
            ref = mesh_noise_curve("a", mesh_name, mesh, 8, FIG4_SCALE,
                                   noise_stds)
            assert result.curves[mesh_name] == ref


class TestExampleConfigs:
    """The checked-in configs ARE the builder outputs — same content
    address, so `repro campaign run examples/campaigns/X.json` computes
    the same cells as the legacy entry points."""

    def test_fig4a_noise_small(self):
        spec = fig4_spec("a", k=8, scale=FIG4_SCALE, noise_stds=(0.02, 0.06),
                         name="fig4a-noise-small")
        on_disk = CampaignSpec.load(CAMPAIGNS / "fig4a-noise-small.json")
        assert on_disk.to_dict() == spec.to_dict()
        assert on_disk.campaign_id == spec.campaign_id

    def test_quantization_small(self):
        spec = quantization_spec(k=4, bit_widths=(6, 3), steps=120,
                                 name="quantization-small")
        on_disk = CampaignSpec.load(CAMPAIGNS / "quantization-small.json")
        assert on_disk.to_dict() == spec.to_dict()

    def test_power_comparison(self):
        on_disk = CampaignSpec.load(CAMPAIGNS / "power-comparison.json")
        assert on_disk.to_dict() == power_spec(k=8).to_dict()

    def test_nonideality_study(self):
        spec = nonideality_spec(k=6, n_trials=3)
        on_disk = CampaignSpec.load(CAMPAIGNS / "nonideality-study.json")
        assert on_disk.to_dict() == spec.to_dict()

    def test_all_checked_in_configs_validate(self):
        configs = sorted(CAMPAIGNS.glob("*.json"))
        assert len(configs) >= 4
        for path in configs:
            CampaignSpec.load(path).validate()
