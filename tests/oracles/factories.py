"""Per-column reference builds of the mesh factories.

The original one-op-per-column loops that the fused cascade of
:mod:`repro.ptc.unitary` replaced: one graph op (or one numpy matmul)
per mesh column, folded left to right.  Phases still go through the
factory's own ``_noisy`` / ``_trial_phases``, so installed
``trial_phase_offsets``, a ``phase_transform`` and ``noise_std`` act
exactly as they do on the product path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import Tensor, custom_grad, ensure_tensor
from repro.autograd import tensor as T
from repro.ptc import ButterflyFactory, FixedTopologyFactory, MZIMeshFactory


def batched_scatter(
    values: Tensor,
    rows: np.ndarray,
    cols: np.ndarray,
    k: int,
) -> Tensor:
    """Build (..., K, K) matrices with ``out[..., rows[i], cols[i]] =
    values[..., i]`` (indices unique; all other entries zero)."""
    values = ensure_tensor(values)
    batch = values.shape[:-1]
    out = np.zeros(batch + (k, k), dtype=values.data.dtype)
    out[..., rows, cols] = values.data

    def backward(g: np.ndarray):
        return (g[..., rows, cols],)

    return custom_grad(out, (values,), backward)


def _phase_factor(phases: Tensor) -> Tensor:
    """exp(-j * phi) elementwise (phases real)."""
    return T.exp(T.mul(Tensor(np.array(-1j)), phases))


# ----------------------------------------------------------------------
# graph builds (trainable, one op per column)
# ----------------------------------------------------------------------

def build_reference(f) -> Tensor:
    """Per-column graph build of factory ``f``, shape (n_units, K, K)."""
    if isinstance(f, MZIMeshFactory):
        return _mzi_build(f)
    if isinstance(f, ButterflyFactory):
        return _butterfly_build(f)
    if isinstance(f, FixedTopologyFactory):
        return _fixed_build(f)
    raise TypeError(f"no reference build for {type(f).__name__}")


def _mzi_build(f: MZIMeshFactory) -> Tensor:
    theta = f._noisy(f.theta)
    phi = f._noisy(f.phi)
    u: Optional[Tensor] = None
    for layer, (offset, m) in enumerate(f._layout):
        if m == 0:
            continue
        th = theta[:, layer, :m]
        ph = phi[:, layer, :m]
        a = _phase_factor(th)
        e = _phase_factor(ph)
        half = Tensor(np.array(0.5))
        jj = Tensor(np.array(1j))
        m00 = (a - 1.0) * e * half
        m01 = jj * (a + 1.0) * half
        m10 = jj * (a + 1.0) * e * half
        m11 = (1.0 - a) * half
        pos = offset + 2 * np.arange(m)
        rows = np.concatenate([pos, pos, pos + 1, pos + 1])
        cols = np.concatenate([pos, pos + 1, pos, pos + 1])
        vals = T.concat([m00, m01, m10, m11], axis=-1)
        mat = batched_scatter(vals, rows, cols, f.k)
        covered = np.zeros(f.k, dtype=bool)
        covered[pos] = True
        covered[pos + 1] = True
        mat = mat + Tensor(np.diag((~covered).astype(complex)))
        u = mat if u is None else mat @ u
    assert u is not None
    return u


def _butterfly_build(f: ButterflyFactory) -> Tensor:
    phases = f._noisy(f.phases)
    u: Optional[Tensor] = None
    for s in range(f.stages):
        ps = _phase_factor(phases[:, s, :])  # (n_units, K)
        dc = Tensor(f._stage_dc[s])
        if u is None:
            # dc @ diag(ps): scale columns of dc per unit.
            u = dc * ps.reshape((f.n_units, 1, f.k))
        else:
            u = dc @ (ps.reshape((f.n_units, f.k, 1)) * u)
    assert u is not None
    return u


def _fixed_build(f: FixedTopologyFactory) -> Tensor:
    phases = f._noisy(f.phases)
    u: Optional[Tensor] = None
    for b in range(f.n_blocks):
        ps = _phase_factor(phases[:, b, :])  # (n_units, K)
        cb = Tensor(f._const[b])
        if u is None:
            u = cb * ps.reshape((f.n_units, 1, f.k))
        else:
            u = cb @ (ps.reshape((f.n_units, f.k, 1)) * u)
    if u is None:
        eye = np.broadcast_to(np.eye(f.k, dtype=complex), (f.n_units, f.k, f.k))
        return Tensor(eye.copy())
    return u


# ----------------------------------------------------------------------
# trial-batched builds (forward-only, one trial at a time)
# ----------------------------------------------------------------------

def build_trials_reference(
    f,
    offsets: Sequence[np.ndarray],
    const_stacks: Optional[np.ndarray] = None,
    exec_backend=None,
) -> np.ndarray:
    """Trial-by-trial, column-by-column equivalent of
    ``f.build_trials(offsets, const_stacks, exec_backend)``, shape
    (T, n_units, K, K)."""
    eb = f._resolve_exec(exec_backend)
    if isinstance(f, FixedTopologyFactory):
        if const_stacks is not None:
            const_stacks = np.asarray(const_stacks, dtype=complex)
        return _fixed_trials(f, offsets, eb, const_stacks)
    if const_stacks is not None:
        raise ValueError(
            f"{type(f).__name__} does not support per-trial const_stacks"
        )
    if isinstance(f, MZIMeshFactory):
        return _mzi_trials(f, offsets, eb)
    if isinstance(f, ButterflyFactory):
        return _butterfly_trials(f, offsets, eb)
    raise TypeError(f"no reference trial build for {type(f).__name__}")


def _mzi_trials(f: MZIMeshFactory, offsets, eb) -> np.ndarray:
    cdt = eb.complex_dtype
    off_theta, off_phi = offsets
    theta = f._trial_phases(f.theta, off_theta)
    phi = f._trial_phases(f.phi, off_phi)
    t = theta.shape[0]
    out = np.empty((t, f.n_units, f.k, f.k), dtype=cdt)
    for trial in range(t):
        u: Optional[np.ndarray] = None
        for layer, (offset, m) in enumerate(f._layout):
            if m == 0:
                continue
            a = np.exp(-1j * theta[trial, :, layer, :m]).astype(cdt, copy=False)
            e = np.exp(-1j * phi[trial, :, layer, :m]).astype(cdt, copy=False)
            m00, m01, m10, m11 = f._mzi_entries(a, e)
            pos = offset + 2 * np.arange(m)
            covered = np.zeros(f.k, dtype=bool)
            covered[pos] = True
            covered[pos + 1] = True
            mat = np.broadcast_to(
                np.diag((~covered).astype(cdt)),
                (f.n_units, f.k, f.k),
            ).copy()
            mat[:, pos, pos] = m00
            mat[:, pos, pos + 1] = m01
            mat[:, pos + 1, pos] = m10
            mat[:, pos + 1, pos + 1] = m11
            u = mat if u is None else mat @ u
        assert u is not None
        out[trial] = u
    return out


def _butterfly_trials(f: ButterflyFactory, offsets, eb) -> np.ndarray:
    cdt = eb.complex_dtype
    (off,) = offsets
    phases = f._trial_phases(f.phases, off)
    t = phases.shape[0]
    out = np.empty((t, f.n_units, f.k, f.k), dtype=cdt)
    for trial in range(t):
        u: Optional[np.ndarray] = None
        for s in range(f.stages):
            ps = np.exp(-1j * phases[trial, :, s, :]).astype(cdt, copy=False)
            dc = f._stage_dc[s].astype(cdt, copy=False)
            if u is None:
                u = dc * ps[:, None, :]
            else:
                u = dc @ (ps[:, :, None] * u)
        assert u is not None
        out[trial] = u
    return out


def _fixed_trials(
    f: FixedTopologyFactory,
    offsets,
    eb,
    const_stacks: Optional[np.ndarray] = None,
) -> np.ndarray:
    cdt = eb.complex_dtype
    (off,) = offsets
    phases = f._trial_phases(f.phases, off)
    t = phases.shape[0]
    out = np.empty((t, f.n_units, f.k, f.k), dtype=cdt)
    for trial in range(t):
        consts = f._const_list if const_stacks is None else const_stacks[trial]
        u: Optional[np.ndarray] = None
        for b in range(f.n_blocks):
            ps = np.exp(-1j * phases[trial, :, b, :]).astype(cdt, copy=False)
            cb = np.asarray(consts[b]).astype(cdt, copy=False)
            if u is None:
                u = cb * ps[:, None, :]
            else:
                u = cb @ (ps[:, :, None] * u)
        if u is None:
            u = np.broadcast_to(
                np.eye(f.k, dtype=cdt), (f.n_units, f.k, f.k)
            ).copy()
        out[trial] = u
    return out
