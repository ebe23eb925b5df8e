"""Unitary factories: unitarity, gradients, device counts, noise."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.photonics import AMF, is_unitary
from repro.ptc import ButterflyFactory, FixedTopologyFactory, MZIMeshFactory

from oracles import batched_scatter


def all_unitary(u, atol=1e-8):
    return all(is_unitary(u[i], atol=atol) for i in range(u.shape[0]))


class TestBatchedScatter:
    def test_forward(self, rng):
        v = Tensor(rng.normal(size=(2, 3)))
        rows, cols = np.array([0, 1, 2]), np.array([1, 2, 0])
        m = batched_scatter(v, rows, cols, 3)
        assert m.shape == (2, 3, 3)
        assert np.allclose(m.data[0, 0, 1], v.data[0, 0])

    def test_gradient(self, rng):
        from repro.autograd import gradcheck

        v = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        rows, cols = np.array([0, 1]), np.array([1, 0])
        assert gradcheck(lambda v: (batched_scatter(v, rows, cols, 2) ** 2).sum(), [v])


class TestMZIMeshFactory:
    @pytest.mark.parametrize("k", [2, 4, 5, 8])
    def test_unitarity(self, k):
        f = MZIMeshFactory(k, 3)
        assert all_unitary(f.build().data)

    def test_device_counts_paper_convention(self):
        f = MZIMeshFactory(8, 1)
        n_ps, n_dc, n_cr = f.device_counts()
        assert n_ps == 2 * 8 * 8  # K * 2K per mesh
        assert n_dc == 2 * (8 * 7 // 2)  # 2 DCs per MZI
        assert n_cr == 0

    def test_phases_trainable(self, rng):
        f = MZIMeshFactory(4, 2)
        u = f.build()
        loss = (u.real() ** 2).sum()
        loss.backward()
        assert f.theta.grad is not None and np.abs(f.theta.grad).max() > 0
        assert f.phi.grad is not None

    def test_universality_reachability(self, rng):
        """Gradient descent on mesh phases can fit a random target
        unitary column — the practical consequence of universality."""
        from repro.optim import Adam

        k = 4
        f = MZIMeshFactory(k, 1)
        target = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
        opt = Adam([f.theta, f.phi], lr=0.05)
        first = None
        for step in range(150):
            u = f.build()[0]
            diff = u - Tensor(target)
            loss = (diff * diff.conj()).real().sum()
            f.zero_grad()
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first * 0.2


class TestButterflyFactory:
    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_unitarity(self, k):
        f = ButterflyFactory(k, 2)
        assert all_unitary(f.build().data)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            ButterflyFactory(6, 1)

    def test_device_counts_match_table(self):
        f = ButterflyFactory(16, 1)
        n_ps, n_dc, n_cr = f.device_counts()
        assert n_ps == 16 * 4  # K * log2(K)
        assert n_dc == 4 * 8
        assert n_cr == 44  # per-mesh half of Table 1's 88

    def test_log_depth_parameter_count(self):
        f = ButterflyFactory(8, 1)
        assert f.phases.size == 8 * 3

    def test_restricted_vs_mzi_params(self):
        """Butterfly has far fewer free parameters than a full mesh —
        the expressivity restriction the paper discusses."""
        bf = ButterflyFactory(16, 1)
        mzi = MZIMeshFactory(16, 1)
        assert bf.phases.size < (mzi.theta.size + mzi.phi.size) / 2


class TestFixedTopologyFactory:
    def make(self, k=6, n_units=2, rng=None):
        rng = rng or np.random.default_rng(0)
        blocks = [
            (rng.permutation(k), np.array([True] * (k // 2)), 0),
            (None, np.array([True, False])[: (k - 1) // 2], 1),
        ]
        return FixedTopologyFactory(k, n_units, blocks)

    def test_unitarity(self, rng):
        f = self.make(rng=rng)
        assert all_unitary(f.build().data)

    def test_empty_blocks_identity(self):
        f = FixedTopologyFactory(4, 2, [])
        u = f.build().data
        assert np.allclose(u, np.eye(4))

    def test_device_counts(self, rng):
        k = 6
        perm = np.array([5, 4, 3, 2, 1, 0])  # 15 inversions
        blocks = [(perm, np.array([True, True, False]), 0)]
        f = FixedTopologyFactory(k, 1, blocks)
        n_ps, n_dc, n_cr = f.device_counts()
        assert (n_ps, n_dc, n_cr) == (6, 2, 15)

    def test_noise_injection_changes_output(self, rng):
        f = self.make(rng=rng)
        clean = f.build().data.copy()
        f.noise_std = 0.1
        noisy = f.build().data
        assert not np.allclose(clean, noisy)
        f.noise_std = 0.0
        assert np.allclose(f.build().data, clean)

    def test_phases_trainable(self, rng):
        f = self.make(rng=rng)
        (f.build().real() ** 2).sum().backward()
        assert np.abs(f.phases.grad).max() > 0
