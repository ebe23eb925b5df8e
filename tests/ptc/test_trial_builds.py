"""Trial-batched Monte-Carlo builds: parity with the per-column oracle
and with the normal (graph) build path."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.ptc import ButterflyFactory, FixedTopologyFactory, MZIMeshFactory

from oracles import build_reference, build_trials_reference

K = 8
N_UNITS = 5
TOL = 1e-12


def make_factory(kind):
    # Pinned to the full-precision "numpy" execution backend: the
    # tolerances below assert double-precision algorithmic parity and
    # must not float with the ambient default (the complex64 lane has
    # its own suite in tests/autograd/test_backend_parity.py).
    rng = np.random.default_rng(3)
    if kind == "mzi":
        return MZIMeshFactory(K, N_UNITS, rng=rng, exec_backend="numpy")
    if kind == "butterfly":
        return ButterflyFactory(K, N_UNITS, rng=rng, exec_backend="numpy")
    blocks = [(None, np.ones(K // 2, bool), i % 2) for i in range(6)]
    return FixedTopologyFactory(K, N_UNITS, blocks, rng=rng, exec_backend="numpy")


FACTORIES = ["mzi", "butterfly", "fixed"]


@pytest.mark.parametrize("kind", FACTORIES)
class TestTrialBuilds:
    def test_fast_matches_reference(self, kind):
        f = make_factory(kind)
        stds = np.array([0.0, 0.02, 0.05, 0.1])
        offsets = f.draw_trial_noise(stds, np.random.default_rng(9))
        fast = f.build_trials(offsets)
        ref = build_trials_reference(f, offsets)
        assert fast.shape == (4, N_UNITS, K, K)
        assert np.abs(fast - ref).max() <= TOL

    def test_zero_offset_trial_equals_clean_build(self, kind):
        f = make_factory(kind)
        offsets = f.draw_trial_noise(np.array([0.0]), np.random.default_rng(1))
        for off in offsets:
            assert np.all(off == 0.0)
        trial = f.build_trials(offsets)[0]
        clean = f.build().data
        assert np.abs(trial - clean).max() <= TOL

    def test_installed_offsets_replay_through_graph_build(self, kind):
        """The reference engine installs per-trial offsets and rebuilds
        through the normal graph path — that must reproduce the
        corresponding build_trials slice through both the fused graph
        build and the per-column oracle."""
        f = make_factory(kind)
        stds = np.array([0.04, 0.08])
        offsets = f.draw_trial_noise(stds, np.random.default_rng(5))
        stack = f.build_trials(offsets)
        for t in range(2):
            f.trial_phase_offsets = tuple(o[t] for o in offsets)
            try:
                for build in (f.build, lambda: build_reference(f)):
                    with no_grad():
                        built = build().data
                    assert np.abs(built - stack[t]).max() <= 1e-9
            finally:
                f.trial_phase_offsets = None

    def test_offsets_bypass_eval_cache(self, kind):
        f = make_factory(kind)
        with no_grad():
            assert f._cacheable()
            f.trial_phase_offsets = f.draw_trial_noise(
                np.array([0.1]), np.random.default_rng(0)
            )
            try:
                assert not f._cacheable()
            finally:
                f.trial_phase_offsets = None

    def test_draw_trial_noise_scales_per_trial(self, kind):
        f = make_factory(kind)
        stds = np.array([0.0, 1e-4, 10.0])
        offsets = f.draw_trial_noise(stds, np.random.default_rng(2))
        for off in offsets:
            assert np.all(off[0] == 0.0)
            assert np.abs(off[1]).max() < np.abs(off[2]).max()

    def test_rejects_bad_offset_shape(self, kind):
        f = make_factory(kind)
        offsets = f.draw_trial_noise(np.array([0.1]), np.random.default_rng(2))
        bad = tuple(o[:, :1] for o in offsets)
        with pytest.raises(ValueError):
            f.build_trials(bad)


def test_fixed_topology_per_trial_const_stacks():
    """Per-trial constant block stacks (fabrication samples) flow
    through the fused build and the oracle identically."""
    f = make_factory("fixed")
    rng = np.random.default_rng(8)
    stds = np.array([0.02, 0.02, 0.06])
    offsets = f.draw_trial_noise(stds, rng)
    # Perturbed copies of the nominal consts, one stack per trial.
    base = np.stack(f._const)
    consts = np.stack([base * (1.0 - 0.01 * t) for t in range(3)])
    fast = f.build_trials(offsets, const_stacks=consts)
    ref = build_trials_reference(f, offsets, const_stacks=consts)
    assert np.abs(fast - ref).max() <= TOL
    # Trial 0 uses the unscaled consts: must match the plain trial build.
    plain = f.build_trials(tuple(o[:1] for o in offsets))
    assert np.abs(fast[0] - plain[0]).max() <= TOL


def test_mzi_trial_build_unitary_without_noise():
    f = make_factory("mzi")
    offsets = f.draw_trial_noise(np.array([0.0]), np.random.default_rng(0))
    u = f.build_trials(offsets)[0]
    eye = np.eye(K)
    for unit in u:
        assert np.abs(unit @ unit.conj().T - eye).max() < 1e-9
