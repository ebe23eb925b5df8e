"""Cross-backend parity: the precision contract of the execution lanes.

Property-based (hypothesis) over randomized topologies, K in {4, 8, 16},
seeds, and train/eval modes:

* reference (per-column) builds vs fused complex128 builds agree to
  1e-9 on forwards and leaf gradients;
* the complex64 fast lane agrees with complex128 to 1e-4 *relative* on
  forwards, demotes to bit-exact complex128 whenever gradients are
  recorded, and reproduces final ONN accuracies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    backend_scope,
    forward_backward_parity,
    matmul_chain,
    no_grad,
    phase_column_cascade,
)
from repro.core.topology import random_topology
from repro.ptc import FixedTopologyFactory
from repro.utils.rng import set_seed

from oracles import build_reference

REF_TOL = 1e-9  # reference vs fused, both complex128
C64_TOL = 1e-4  # complex64 lane vs complex128, relative

MESH_K = st.sampled_from([4, 8, 16])
N_BLOCKS = st.integers(1, 6)
SEEDS = st.integers(0, 2**31 - 1)


def make_factory(k, n_blocks, seed, exec_backend=None):
    """A FixedTopologyFactory over a random ADEPT topology."""
    topo = random_topology(k, n_blocks, n_blocks, np.random.default_rng(seed))
    blocks = [(b.perm, b.coupler_mask, b.offset) for b in topo.blocks_u]
    return FixedTopologyFactory(
        k, 2, blocks, rng=np.random.default_rng(seed + 1), exec_backend=exec_backend
    )


def rel_err(a, b):
    denom = max(np.abs(np.asarray(b, dtype=np.complex128)).max(), 1e-30)
    return np.abs(np.asarray(a, dtype=np.complex128) - np.asarray(b)).max() / denom


class TestReferenceVsFused:
    """Fused complex128 path == per-column reference path, to 1e-9."""

    @settings(max_examples=15, deadline=None)
    @given(MESH_K, N_BLOCKS, SEEDS)
    def test_train_mode_forward_and_grads(self, k, n_blocks, seed):
        f = make_factory(k, n_blocks, seed, exec_backend="numpy")

        def fused(_):
            return f.build()

        def reference(_):
            return build_reference(f)

        assert forward_backward_parity(
            fused, reference, [f.phases], ftol=REF_TOL, gtol=REF_TOL
        )

    @settings(max_examples=15, deadline=None)
    @given(MESH_K, N_BLOCKS, SEEDS)
    def test_eval_mode_forward(self, k, n_blocks, seed):
        f = make_factory(k, n_blocks, seed, exec_backend="numpy")
        with no_grad():
            fused = f.build().data
            ref = build_reference(f).data
        assert np.abs(fused - ref).max() <= REF_TOL


class TestC64Lane:
    """complex64 forwards within 1e-4 relative; exact demotion under grad."""

    @settings(max_examples=15, deadline=None)
    @given(MESH_K, N_BLOCKS, SEEDS)
    def test_eval_mode_forward(self, k, n_blocks, seed):
        f = make_factory(k, n_blocks, seed)
        with no_grad():
            u128 = f.build(exec_backend="numpy").data
            u64 = f.build(exec_backend="numpy-c64").data
        assert u64.dtype == np.complex64
        assert rel_err(u64, u128) <= C64_TOL

    @settings(max_examples=10, deadline=None)
    @given(MESH_K, N_BLOCKS, SEEDS)
    def test_train_mode_demotes_bit_exact(self, k, n_blocks, seed):
        """Under grad recording the c64 lane must not change training
        numerics at all — it demotes to the complex128 graph path."""
        f = make_factory(k, n_blocks, seed)
        u128 = f.build(exec_backend="numpy")
        (u128 * u128.conj()).real().sum().backward()
        g128 = f.phases.grad.copy()
        f.phases.grad = None
        u64 = f.build(exec_backend="numpy-c64")
        (u64 * u64.conj()).real().sum().backward()
        assert u64.data.dtype == np.complex128
        assert np.array_equal(u64.data, u128.data)
        assert np.array_equal(f.phases.grad, g128)

    @settings(max_examples=15, deadline=None)
    @given(MESH_K, st.integers(1, 8), SEEDS, st.booleans())
    def test_cascade_kernel_parity(self, k, n_blocks, seed, gated):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        consts = Tensor(
            rng.standard_normal((n_blocks, k, k))
            + 1j * rng.standard_normal((n_blocks, k, k))
        )
        ps = Tensor(np.exp(-1j * rng.uniform(0, 2 * np.pi, size=(n, n_blocks, k))))
        gates = Tensor(rng.uniform(0, 1, size=(n_blocks,))) if gated else None
        with no_grad():
            out128 = phase_column_cascade(consts, ps, gates, backend="numpy").data
            out64 = phase_column_cascade(consts, ps, gates, backend="numpy-c64").data
        assert out64.dtype == np.complex64
        assert rel_err(out64, out128) <= C64_TOL

    @settings(max_examples=15, deadline=None)
    @given(MESH_K, st.integers(1, 8), SEEDS)
    def test_matmul_chain_kernel_parity(self, k, n_blocks, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        mats = Tensor(
            rng.standard_normal((n, n_blocks, k, k))
            + 1j * rng.standard_normal((n, n_blocks, k, k))
        )
        with no_grad():
            out128 = matmul_chain(mats, backend="numpy").data
            out64 = matmul_chain(mats, backend="numpy-c64").data
        assert out64.dtype == np.complex64
        assert rel_err(out64, out128) <= C64_TOL


class TestPopulationParity:
    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from([4, 8]), st.integers(2, 4), SEEDS)
    def test_population_transfer_across_backends(self, k, n_cand, seed):
        from repro.ptc.population import TopologyPopulation

        rng = np.random.default_rng(seed)
        topos = [
            random_topology(k, int(rng.integers(1, 5)), 1, rng) for _ in range(n_cand)
        ]
        pop = TopologyPopulation(topos, side="u")
        phases = pop.make_phases(rng=np.random.default_rng(seed + 1))
        with no_grad():
            u128 = pop.transfer(phases, exec_backend="numpy").data
            u64 = pop.transfer(phases, exec_backend="numpy-c64").data
        assert u64.dtype == np.complex64
        assert rel_err(u64, u128) <= C64_TOL


@pytest.fixture(scope="module")
def trained_model(tiny_mnist):
    """One small PTC-ONN trained deterministically for accuracy parity."""
    from repro import nn
    from repro.onn import TrainConfig, train
    from repro.onn.layers import PTCLinear

    set_seed(2022)
    tr, te = tiny_mnist
    model = nn.Sequential(nn.Flatten(), PTCLinear(784, 10, k=8, mesh="butterfly"))
    train(model, tr, config=TrainConfig(epochs=2, batch_size=32, lr=5e-3))
    return model, te


class TestFinalAccuracyParity:
    def test_eval_accuracy_across_backends(self, trained_model):
        from repro.onn import evaluate

        model, te = trained_model
        acc128 = evaluate(model, te, exec_backend="numpy")
        acc_default = evaluate(model, te)
        acc64 = evaluate(model, te, exec_backend="numpy-c64")
        assert acc_default == acc128  # default lane is full precision
        assert abs(acc64 - acc128) <= C64_TOL

    def test_default_backend_scope_accuracy(self, trained_model):
        from repro import set_default_backend
        from repro.onn import evaluate

        model, te = trained_model
        acc128 = evaluate(model, te)
        with set_default_backend("numpy-c64"):
            acc64 = evaluate(model, te)
        assert abs(acc64 - acc128) <= C64_TOL

    def test_training_unaffected_by_c64_default(self, tiny_mnist):
        """Two identical trainings, one under a c64 default: losses and
        final accuracy must match exactly (the grad path demotes)."""
        from repro import nn, set_default_backend
        from repro.onn import TrainConfig, train
        from repro.onn.layers import PTCLinear

        tr, _ = tiny_mnist
        cfg = TrainConfig(epochs=1, batch_size=48, lr=5e-3)

        def run():
            set_seed(777)
            model = nn.Sequential(
                nn.Flatten(), PTCLinear(784, 10, k=8, mesh="butterfly")
            )
            return train(model, tr, config=cfg).train_losses

        base = run()
        with set_default_backend("numpy-c64"):
            lane = run()
        assert base == lane
