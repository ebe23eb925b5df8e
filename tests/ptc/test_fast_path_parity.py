"""Fused-build parity against the reference per-column loops.

Every mesh factory must produce identical transfer matrices AND
identical parameter gradients through its fused build and through the
per-column oracle in ``tests/oracles/factories.py`` (max abs diff <=
1e-9; in practice the fused path replays the exact same elementary
operations fused into one node, so differences are at rounding level).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.ptc import (
    ButterflyFactory,
    FixedTopologyFactory,
    MZIMeshFactory,
    TopologyPopulation,
    fit_unitary_population,
)
from repro.ptc.reference_topologies import butterfly_topology, mzi_topology

from oracles import build_reference

TOL = 1e-9


def _truncated(topo, n_blocks):
    """Copy of ``topo`` keeping only the first ``n_blocks`` U blocks."""
    from repro.core.topology import PTCTopology

    return PTCTopology(
        k=topo.k,
        blocks_u=topo.blocks_u[:n_blocks],
        blocks_v=topo.blocks_v,
        name=f"{topo.name}-trunc{n_blocks}",
    )


def _mixed_blocks(k, n_blocks, rng):
    blocks = []
    for b in range(n_blocks):
        offset = b % 2
        n_slots = (k - offset) // 2
        mask = rng.random(n_slots) < 0.7
        perm = rng.permutation(k) if b % 3 else None
        blocks.append((perm, mask, offset))
    return blocks


def _factories(kind, k=8, n_units=3, seed=11):
    """Two identically initialized factories: the first builds through
    its fused path, the second through :func:`oracles.build_reference`
    (call :func:`_build` to dispatch)."""

    def make():
        rng = np.random.default_rng(seed)
        if kind == "mzi":
            return MZIMeshFactory(k, n_units, rng=rng)
        if kind == "butterfly":
            return ButterflyFactory(k, n_units, rng=rng)
        blocks = _mixed_blocks(k, 6, np.random.default_rng(seed + 1))
        return FixedTopologyFactory(k, n_units, blocks, rng=rng)

    return make(), make()


def _build(name, f):
    return f.build() if name == "fast" else build_reference(f)


@pytest.mark.parametrize("kind", ["mzi", "butterfly", "fixed"])
class TestFactoryParity:
    def test_forward(self, kind):
        fast, ref = _factories(kind)
        diff = np.abs(fast.build().data - build_reference(ref).data).max()
        assert diff <= TOL

    def test_gradients(self, kind):
        fast, ref = _factories(kind)
        grads = {}
        for name, f in (("fast", fast), ("ref", ref)):
            u = _build(name, f)
            (u * u.conj()).real().sum().backward()
            grads[name] = [np.array(p.grad) for p in f.parameters()]
        for gf, gr in zip(grads["fast"], grads["ref"]):
            assert np.abs(gf - gr).max() <= TOL

    def test_backward_through_downstream_ops(self, kind, rng):
        """Parity must survive composition with the USV layer math."""
        fast, ref = _factories(kind)
        x = rng.normal(size=(8, 8))
        out = {}
        for name, f in (("fast", fast), ("ref", ref)):
            w = _build(name, f).real()[0]
            loss = ((Tensor(x) @ w) ** 2).sum()
            loss.backward()
            out[name] = (float(loss.item()), [np.array(p.grad) for p in f.parameters()])
        assert abs(out["fast"][0] - out["ref"][0]) <= TOL
        for gf, gr in zip(out["fast"][1], out["ref"][1]):
            assert np.abs(gf - gr).max() <= TOL


class TestUnitarity:
    """The fast path must preserve the physics: meshes are unitary."""

    @pytest.mark.parametrize("kind", ["mzi", "butterfly"])
    def test_fast_build_is_unitary(self, kind):
        fast, _ = _factories(kind)
        u = fast.build().data
        eye = np.eye(fast.k)
        for i in range(u.shape[0]):
            assert np.allclose(u[i].conj().T @ u[i], eye, atol=1e-10)

    def test_fixed_topology_unitary(self):
        fast, _ = _factories("fixed")
        u = fast.build().data
        for i in range(u.shape[0]):
            assert np.allclose(u[i].conj().T @ u[i], np.eye(fast.k), atol=1e-10)


class TestPopulation:
    def test_padded_transfer_matches_individual_builds(self, rng):
        k = 8
        topos = [_truncated(mzi_topology(k), 4), butterfly_topology(k), mzi_topology(k)]
        pop = TopologyPopulation(topos, side="u")
        assert pop.n_blocks == max(len(t.blocks_u) for t in topos)
        phases = pop.make_phases(rng=np.random.default_rng(3))
        stacked = pop.transfer(phases).data
        for p, topo in enumerate(topos):
            blocks = [(b.perm, b.coupler_mask, b.offset) for b in topo.blocks_u]
            f = FixedTopologyFactory(k, 1, blocks)
            np.copyto(f.phases.data, phases.data[p : p + 1, : len(blocks), :])
            solo = f.build().data[0]
            assert np.abs(stacked[p] - solo).max() <= TOL

    def test_population_fit_ranks_universal_mesh_first(self):
        from scipy.stats import unitary_group

        k = 8
        topos = [mzi_topology(k), _truncated(mzi_topology(k), 2)]
        target = unitary_group.rvs(k, random_state=0)
        res = fit_unitary_population(
            topos, target, steps=120, rng=np.random.default_rng(0)
        )
        assert res.errors.shape == (2,)
        # The full-depth rectangle is universal; the 2-block mesh is not.
        assert res.best == 0
        assert res.errors[0] < res.errors[1]

    def test_mismatched_k_rejected(self):
        with pytest.raises(ValueError):
            TopologyPopulation([mzi_topology(8), mzi_topology(4)])
