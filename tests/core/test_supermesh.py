"""SuperMesh: sampling, depth bounds, topology extraction."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import SuperMeshConv2d, SuperMeshLinear, SuperMeshSpace
from repro.photonics import AMF


def make_space(k=8, f_min=240_000, f_max=300_000, **kw):
    return SuperMeshSpace(k=k, pdk=AMF, f_min=f_min, f_max=f_max, **kw)


class TestSpaceConstruction:
    def test_analytic_bounds_used(self):
        space = make_space()
        # F_b_min = 8*6800 + 1500 = 55.9k -> B_max = ceil(300/55.9) = 6
        assert space.n_blocks == 6
        assert space.half_max == 3

    def test_explicit_bounds_override(self):
        space = make_space(b_min=4, b_max=10)
        assert space.half_max == 5
        assert space.half_min == 2

    def test_always_on_blocks(self):
        space = make_space(b_min=4, b_max=8)
        # per side: 4 super blocks, last 2 always on.
        always = [b for b in range(space.n_blocks)
                  if space._searchable_index(b) is None]
        assert len(always) == 4

    def test_side_partition(self):
        space = make_space(b_min=2, b_max=8)
        u = list(space.side_blocks("u"))
        v = list(space.side_blocks("v"))
        assert u + v == list(range(space.n_blocks))
        with pytest.raises(ValueError):
            space.side_blocks("w")


class TestSampling:
    def test_sample_shapes(self):
        space = make_space(b_min=2, b_max=6)
        s = space.sample(tau=1.0)
        assert s.transfer.shape[0] == space.n_blocks
        assert s.exec_prob.shape == (space.n_blocks,)
        assert space.current is s

    def test_always_on_probability_one(self):
        space = make_space(b_min=4, b_max=8)
        s = space.sample(tau=1.0)
        for b in range(space.n_blocks):
            if space._searchable_index(b) is None:
                assert s.exec_prob.data[b] == 1.0

    def test_deterministic_sample(self):
        space = make_space(b_min=2, b_max=6)
        s1 = space.sample(stochastic=False)
        s2 = space.sample(stochastic=False)
        assert np.allclose(s1.exec_prob.data, s2.exec_prob.data)

    def test_exec_probabilities_match_theta(self):
        space = make_space(b_min=2, b_max=6)
        space.theta.data[:] = np.array([[0.0, 10.0]] * space.theta.shape[0])
        probs = space.exec_probabilities()
        assert np.all(probs > 0.99)


class TestLayers:
    def test_linear_forward_backward(self, rng):
        space = make_space(b_min=2, b_max=6)
        lin = SuperMeshLinear(space, 16, 10)
        space.sample(tau=1.0)
        out = lin(Tensor(rng.normal(size=(4, 16))))
        assert out.shape == (4, 10)
        (out ** 2).sum().backward()
        assert lin.core.phases.grad is not None
        assert lin.core.sigma.grad is not None
        assert space.perms.raw.grad is not None
        assert space.couplers.latent.grad is not None

    def test_conv_forward(self, rng):
        space = make_space(b_min=2, b_max=6)
        conv = SuperMeshConv2d(space, 1, 4, 5)
        space.sample(tau=1.0)
        out = conv(Tensor(rng.normal(size=(2, 1, 12, 12))))
        assert out.shape == (2, 4, 8, 8)

    def test_forward_without_sample_uses_deterministic(self, rng):
        space = make_space(b_min=2, b_max=6)
        lin = SuperMeshLinear(space, 8, 8)
        space.current = None
        out = lin(Tensor(rng.normal(size=(2, 8))))
        assert out.shape == (2, 8)

    def test_phase_noise(self, rng):
        space = make_space(b_min=2, b_max=6)
        lin = SuperMeshLinear(space, 8, 8)
        space.sample(stochastic=False)
        w0 = lin.core().data.copy()
        lin.core.noise_std = 0.1
        w1 = lin.core().data
        assert not np.allclose(w0, w1)


class TestLegalization:
    def test_legalize_freezes(self):
        space = make_space(b_min=2, b_max=6)
        tries = space.legalize_permutations()
        assert space.perms.frozen
        assert tries.shape == (space.n_blocks,)
        p = space.perms.relaxed().data
        from repro.photonics import is_permutation_matrix

        for b in range(space.n_blocks):
            assert is_permutation_matrix(p[b])


class TestExtractTopology:
    def test_feasible_topology(self):
        space = make_space()
        topo = space.extract_topology(rng=np.random.default_rng(3))
        f = topo.footprint(AMF).total
        assert space.f_min <= f <= space.f_max
        assert topo.blocks_u and topo.blocks_v
        assert topo.pdk_name == "AMF"

    def test_identity_perms_dropped(self):
        space = make_space(b_min=2, b_max=6)
        # Identity-initialized relaxation legalizes to identity perms.
        topo = space.extract_topology(rng=np.random.default_rng(0))
        for spec in topo.blocks_u + topo.blocks_v:
            if spec.perm is not None:
                assert not np.array_equal(spec.perm, np.arange(space.k))

    def test_instantiable_into_ptc_layer(self, rng):
        from repro.onn import PTCLinear

        space = make_space()
        topo = space.extract_topology(rng=np.random.default_rng(1))
        lin = PTCLinear(16, 16, k=8, mesh=topo)
        assert lin(Tensor(rng.normal(size=(2, 16)))).shape == (2, 16)
