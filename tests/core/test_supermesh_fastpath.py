"""SuperMesh fused-build parity and batched sample assembly.

The fused core build is compared against the per-block oracle in
``tests/oracles/supermesh.py`` on identically initialized pairs.
"""

import numpy as np
import pytest

from repro.core.supermesh import SuperMeshCore, SuperMeshSpace
from repro.photonics import AMF

from oracles import (
    block_transfer,
    dc_matrix_from_transmissions,
    supermesh_forward_reference,
)

TOL = 1e-9


def _space(seed=5, **kw):
    kw.setdefault("b_min", 4)
    kw.setdefault("b_max", 12)
    return SuperMeshSpace(
        k=8, pdk=AMF, f_min=240_000, f_max=300_000,
        rng=np.random.default_rng(seed), **kw,
    )


def _pair(seed=5, rows=16, cols=16):
    """(fast, reference) space+core pairs with identical init; build the
    reference core with :func:`oracles.supermesh_forward_reference`."""
    out = []
    for _ in range(2):
        space = _space(seed)
        core = SuperMeshCore(space, rows, cols, rng=np.random.default_rng(seed + 1))
        out.append((space, core))
    return out


class TestSampleAssembly:
    def test_batched_dc_columns_match_per_block_reference(self):
        space = _space()
        stacked = space._dc_columns()
        for b in range(space.n_blocks):
            ts = space.couplers.block_transmissions(b)
            ref = dc_matrix_from_transmissions(
                ts, space.k, int(space.couplers.offsets[b])
            )
            assert np.abs(stacked.data[b] - ref.data).max() <= TOL

    def test_dc_column_gradients_reach_coupler_latents(self):
        space = _space()
        out = space._dc_columns()
        (out * out.conj()).real().sum().backward()
        assert space.couplers.latent.grad is not None
        assert np.isfinite(space.couplers.latent.grad).all()

    def test_stacked_transfer_matches_block_views(self):
        space = _space()
        s = space.sample(tau=1.0, rng=np.random.default_rng(0))
        views = block_transfer(s)
        assert len(views) == space.n_blocks
        for b in range(space.n_blocks):
            assert np.array_equal(views[b].data, s.transfer.data[b])


class TestCoreParity:
    def test_forward_parity(self):
        (sf, cf), (sr, cr) = _pair()
        sf.sample(tau=1.0, rng=np.random.default_rng(9))
        sr.sample(tau=1.0, rng=np.random.default_rng(9))
        assert np.abs(cf().data - supermesh_forward_reference(cr).data).max() <= TOL

    def test_gradient_parity_all_parameter_groups(self):
        (sf, cf), (sr, cr) = _pair()
        sf.sample(tau=1.0, rng=np.random.default_rng(9))
        sr.sample(tau=1.0, rng=np.random.default_rng(9))
        (cf() ** 2).sum().backward()
        (supermesh_forward_reference(cr) ** 2).sum().backward()
        pairs = [
            (cf.phases.grad, cr.phases.grad),
            (cf.sigma.grad, cr.sigma.grad),
            (sf.perms.raw.grad, sr.perms.raw.grad),
            (sf.couplers.latent.grad, sr.couplers.latent.grad),
            (sf.theta.grad, sr.theta.grad),
        ]
        for gf, gr in pairs:
            assert gf is not None and gr is not None
            assert np.abs(gf - gr).max() <= TOL

    def test_parity_after_legalization(self):
        """Frozen (hard permutation) topologies go through the same path."""
        (sf, cf), (sr, cr) = _pair()
        sf.legalize_permutations(rng=np.random.default_rng(2))
        sr.legalize_permutations(rng=np.random.default_rng(2))
        sf.sample(stochastic=False)
        sr.sample(stochastic=False)
        assert np.abs(cf().data - supermesh_forward_reference(cr).data).max() <= TOL

    def test_deterministic_eval_parity(self):
        (sf, cf), (sr, cr) = _pair()
        sf.current = None
        sr.current = None
        assert np.abs(cf().data - supermesh_forward_reference(cr).data).max() <= TOL

    def test_invalid_backend_rejected(self):
        """The core has one build path: a build-backend keyword is an
        unknown argument, not a silently ignored setting."""
        space = _space()
        with pytest.raises(TypeError):
            SuperMeshCore(space, 8, 8, backend="reference")
