"""Per-block reference build of the SuperMesh core.

The original op loop that :class:`repro.core.supermesh.SuperMeshCore`
replaced with one fused cascade node: each unitary is built block by
block with explicit Gumbel execution gating, then row/column
normalised with plain tensor ops.  The DC columns are rebuilt one
block at a time from the quantized transmissions.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd import tensor as T
from repro.core.supermesh import SuperMeshCore, SuperMeshSample


def dc_matrix_from_transmissions(ts: Tensor, k: int, offset: int) -> Tensor:
    """Differentiable K x K DC-column matrix from quantized transmissions.

    Mirrors :func:`repro.photonics.devices.dc_layer_matrix` but takes an
    autograd tensor of (already binarized) transmissions so STE
    gradients reach the coupler latents.
    """
    from repro.photonics.devices import scatter_matrix

    n = int(ts.shape[0])
    if n == 0:
        return Tensor(np.eye(k, dtype=complex))
    pos = offset + 2 * np.arange(n)
    one_minus = T.clip(1.0 - ts * ts, 0.0, 1.0)
    s = T.sqrt(one_minus + 1e-12)
    js = T.mul(Tensor(np.array(1j)), s)
    tc = ts.astype(np.complex128)
    rows = np.concatenate([pos, pos + 1, pos, pos + 1])
    cols = np.concatenate([pos, pos + 1, pos + 1, pos])
    vals = T.concat([tc, tc, js, js], axis=0)
    mat = scatter_matrix(vals, rows, cols, (k, k))
    covered = np.zeros(k, dtype=bool)
    covered[pos] = True
    covered[pos + 1] = True
    return mat + Tensor(np.diag((~covered).astype(complex)))


def block_transfer(sample: SuperMeshSample) -> List[Tensor]:
    """Per-block (K, K) views of ``sample.transfer``."""
    return [sample.transfer[b] for b in range(sample.transfer.shape[0])]


def _unitary(core: SuperMeshCore, sample: SuperMeshSample, side: str) -> Tensor:
    k = core.k
    u: Optional[Tensor] = None
    eye = Tensor(np.eye(k, dtype=complex))
    phases = core._noisy_phases()
    blocks = block_transfer(sample)
    for b in core.space.side_blocks(side):
        ps = T.exp(
            T.mul(Tensor(np.array(-1j)), phases[:, b, :])
        )  # (n_units, K)
        cb = blocks[b]  # (K, K)
        if u is None:
            block = cb * ps.reshape((core.n_units, 1, k))
        else:
            block = cb @ (ps.reshape((core.n_units, k, 1)) * u)
        m = sample.exec_prob[b]
        skip = eye if u is None else u
        u = m * block + (1.0 - m) * skip
    assert u is not None
    return u


def supermesh_forward_reference(core: SuperMeshCore) -> Tensor:
    """Per-block equivalent of ``core()``: the (rows, cols) weight."""
    sample = core.space.current
    if sample is None:
        sample = core.space.sample(stochastic=False)
    u = _unitary(core, sample, "u")
    v = _unitary(core, sample, "v")
    u = u / (T.sum_(u * u.conj(), axis=-1, keepdims=True).real() + 1e-12).sqrt().astype(
        np.complex128
    )
    v = v / (T.sum_(v * v.conj(), axis=-2, keepdims=True).real() + 1e-12).sqrt().astype(
        np.complex128
    )
    sv = core.sigma.astype(np.complex128).reshape((core.n_units, core.k, 1)) * v
    blocks = (u @ sv).real()
    w = blocks.reshape((core.p, core.q, core.k, core.k))
    w = w.transpose((0, 2, 1, 3)).reshape((core.p * core.k, core.q * core.k))
    if core.p * core.k != core.rows or core.q * core.k != core.cols:
        w = w[: core.rows, : core.cols]
    return w
