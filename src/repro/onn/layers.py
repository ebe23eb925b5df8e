"""Photonic ONN layers: blocked USV linear and convolution.

The paper's Eq. (1): an ONN layer's weight matrix ``W`` (M x N) is
partitioned into K x K sub-matrices; each block ``W_pq`` is realized
photonically as ``U_pq @ diag(Sigma_pq) @ V_pq`` where the two unitary
meshes share one circuit *topology* across all blocks (that topology is
what ADEPT searches) while phases differ per block.

Coherent detection takes the real part of the optical output field,
which is equivalent to using ``Re(W)`` as the effective weight on real
inputs — the convention used here.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autograd import Tensor
from ..nn import functional as F
from ..nn.module import Module, Parameter
from ..photonics.pdk import FoundryPDK
from ..ptc.unitary import (
    ButterflyFactory,
    FixedTopologyFactory,
    MZIMeshFactory,
    UnitaryFactory,
)
from ..utils.rng import get_rng

MeshSpec = Union[str, object]  # "mzi" | "butterfly" | topology-like object


def _make_factories(
    mesh: MeshSpec, k: int, n_units: int, rng
) -> Tuple[UnitaryFactory, UnitaryFactory]:
    """Build the (U, V) unitary factories for a mesh specification."""
    if isinstance(mesh, str):
        name = mesh.lower()
        if name == "mzi":
            return MZIMeshFactory(k, n_units, rng=rng), MZIMeshFactory(k, n_units, rng=rng)
        if name in ("butterfly", "fft"):
            return ButterflyFactory(k, n_units, rng=rng), ButterflyFactory(k, n_units, rng=rng)
        raise ValueError(f"unknown mesh family {mesh!r}")
    # Topology-like object (e.g. repro.core.topology.PTCTopology).
    blocks_u = getattr(mesh, "blocks_u", None)
    blocks_v = getattr(mesh, "blocks_v", None)
    if blocks_u is None or blocks_v is None:
        raise TypeError(
            "mesh must be 'mzi', 'butterfly', or an object with "
            "blocks_u/blocks_v block specifications"
        )
    to_spec = lambda blocks: [(b.perm, b.coupler_mask, b.offset) for b in blocks]
    return (
        FixedTopologyFactory(k, n_units, to_spec(blocks_u), rng=rng),
        FixedTopologyFactory(k, n_units, to_spec(blocks_v), rng=rng),
    )


class BlockUSV(Module):
    """A (rows x cols) real matrix built from K x K photonic USV blocks.

    This is the tensor-core abstraction shared by :class:`PTCLinear`
    and :class:`PTCConv2d`.
    """

    def __init__(self, rows: int, cols: int, k: int, mesh: MeshSpec = "mzi", rng=None):
        super().__init__()
        self.rows = rows
        self.cols = cols
        self.k = k
        self.p = math.ceil(rows / k)
        self.q = math.ceil(cols / k)
        self.n_units = self.p * self.q
        rng_ = get_rng(rng)
        self.u_factory, self.v_factory = _make_factories(mesh, k, self.n_units, rng_)
        # Sigma scale chosen so Re(U diag(S) V) has Kaiming-like variance
        # ~2/fan_in: E|W_ij|^2 ~= sigma_rms^2 / K and Re() halves it.
        bound = 2.0 * math.sqrt(3.0 * k / max(1, cols))
        self.sigma = Parameter(rng_.uniform(-bound, bound, size=(self.n_units, k)))
        #: When set (a (rows, cols) float array), :meth:`forward` returns
        #: it verbatim instead of building the meshes — the hook the
        #: Monte-Carlo robustness engine uses to evaluate precomputed
        #: noisy weight realizations (see :class:`FrozenPhotonicView`).
        self.frozen_weight: Optional[np.ndarray] = None

    def build_complex(self) -> Tensor:
        """Stacked complex blocks, shape (P*Q, K, K)."""
        u = self.u_factory.build()
        v = self.v_factory.build()
        # Sigma follows the built dtype so a complex64 execution
        # backend is not silently promoted back to complex128.
        cdtype = np.result_type(u.data.dtype, v.data.dtype)
        sv = self.sigma.astype(cdtype).reshape((self.n_units, self.k, 1)) * v
        return u @ sv

    def forward(self) -> Tensor:
        """Effective real weight matrix of shape (rows, cols)."""
        if self.frozen_weight is not None:
            return Tensor(self.frozen_weight)
        blocks = self.build_complex().real()  # (P*Q, K, K)
        w = blocks.reshape((self.p, self.q, self.k, self.k))
        w = w.transpose((0, 2, 1, 3)).reshape((self.p * self.k, self.q * self.k))
        if self.p * self.k != self.rows or self.q * self.k != self.cols:
            w = w[: self.rows, : self.cols]
        return w

    def build_weight_trials(
        self,
        offsets_u: Sequence[np.ndarray],
        offsets_v: Sequence[np.ndarray],
        const_stacks_u: Optional[np.ndarray] = None,
        const_stacks_v: Optional[np.ndarray] = None,
        exec_backend=None,
    ) -> np.ndarray:
        """Effective real weights of T noisy trials, shape (T, rows, cols).

        The U and V meshes are built for all trials in one fused pass
        (:meth:`repro.ptc.unitary.UnitaryFactory.build_trials`) and
        folded with the shared sigma exactly as :meth:`forward` does,
        so trial t's weight equals what a single forward would produce
        under that trial's phase offsets.  ``exec_backend`` selects the
        array engine / dtype of the trial stacks (e.g. ``"numpy-c64"``
        halves their memory traffic).
        """
        kw_u = {} if const_stacks_u is None else {"const_stacks": const_stacks_u}
        kw_v = {} if const_stacks_v is None else {"const_stacks": const_stacks_v}
        u = self.u_factory.build_trials(offsets_u, exec_backend=exec_backend, **kw_u)
        v = self.v_factory.build_trials(offsets_v, exec_backend=exec_backend, **kw_v)
        t = u.shape[0]
        # Cast sigma to the matching real dtype first: float64 * c64
        # would silently promote the whole stack back to complex128.
        rdt = np.float32 if v.dtype == np.complex64 else np.float64
        sv = self.sigma.data.astype(rdt, copy=False).reshape(
            (1, self.n_units, self.k, 1)
        ) * v
        blocks = (u @ sv).real  # (T, P*Q, K, K)
        w = blocks.reshape((t, self.p, self.q, self.k, self.k))
        w = w.transpose((0, 1, 3, 2, 4)).reshape(
            (t, self.p * self.k, self.q * self.k)
        )
        if self.p * self.k != self.rows or self.q * self.k != self.cols:
            w = w[:, : self.rows, : self.cols]
        return np.ascontiguousarray(w)

    # -- hardware accounting -------------------------------------------
    def set_phase_noise(self, std: float) -> None:
        self.u_factory.noise_std = std
        self.v_factory.noise_std = std

    def topology_device_counts(self) -> Tuple[int, int, int]:
        """(n_ps, n_dc, n_cr) of ONE U+V tensor-core instance."""
        pu = self.u_factory.device_counts()
        pv = self.v_factory.device_counts()
        return tuple(a + b for a, b in zip(pu, pv))  # type: ignore[return-value]

    def footprint(self, pdk: FoundryPDK) -> float:
        """Area (um^2) of one tensor-core instance under ``pdk``."""
        n_ps, n_dc, n_cr = self.topology_device_counts()
        return pdk.footprint(n_ps, n_dc, n_cr)


class PTCLinear(Module):
    """Fully-connected layer whose weight is realized by PTC blocks."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        k: int = 8,
        mesh: MeshSpec = "mzi",
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.core = BlockUSV(out_features, in_features, k, mesh=mesh, rng=rng)
        if bias:
            self.bias = Parameter(np.zeros(out_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        w = self.core()
        return F.linear(x, w, self.bias)

    def set_phase_noise(self, std: float) -> None:
        self.core.set_phase_noise(std)

    def __repr__(self) -> str:
        return (
            f"PTCLinear({self.in_features}, {self.out_features}, "
            f"k={self.core.k})"
        )


class PTCConv2d(Module):
    """Convolution lowered to im2col + PTC matrix multiplication."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size,
        k: int = 8,
        mesh: MeshSpec = "mzi",
        stride=1,
        padding=0,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.core = BlockUSV(out_channels, in_channels * kh * kw, k, mesh=mesh, rng=rng)
        if bias:
            self.bias = Parameter(np.zeros(out_channels))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        w = self.core()  # (O, C*kh*kw)
        kh, kw = self.kernel_size
        w4 = w.reshape((self.out_channels, self.in_channels, kh, kw))
        return F.conv2d(x, w4, self.bias, stride=self.stride, padding=self.padding)

    def set_phase_noise(self, std: float) -> None:
        self.core.set_phase_noise(std)

    def __repr__(self) -> str:
        return (
            f"PTCConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, k={self.core.k})"
        )


class FrozenPhotonicView(Module):
    """A lightweight view of ``model`` with fixed per-core weights.

    The Monte-Carlo robustness engine precomputes one noisy weight
    realization per (core, trial) with :meth:`BlockUSV.build_weight_trials`
    and wraps the *shared* base model in one view per trial: during the
    view's forward, each core serves its assigned frozen weight instead
    of rebuilding its meshes, and is restored afterwards.  All
    non-photonic state (biases, norm statistics, activations) is the
    base model's own, so a population of views costs one weight matrix
    per core per trial — not a model copy.
    """

    def __init__(
        self, model: Module, assignments: Sequence[Tuple["BlockUSV", np.ndarray]]
    ):
        super().__init__()
        self.base = model
        self._assignments = list(assignments)
        # Match the base model's mode so evaluation helpers that
        # save/restore modes do not clobber it through the view.
        self.train(model.training)

    def forward(self, x: Tensor) -> Tensor:
        for core, w in self._assignments:
            core.frozen_weight = w
        try:
            return self.base(x)
        finally:
            for core, _ in self._assignments:
                core.frozen_weight = None


def photonic_cores(model: Module) -> List[BlockUSV]:
    """All :class:`BlockUSV` cores of ``model`` in traversal order."""
    return [m for m in model.modules() if isinstance(m, BlockUSV)]


def set_model_phase_noise(model: Module, std: float) -> int:
    """Set phase-noise injection on every PTC layer in ``model``.

    Returns the number of photonic cores affected.
    """
    count = 0
    for m in model.modules():
        if isinstance(m, BlockUSV):
            m.u_factory.noise_std = std
            m.v_factory.noise_std = std
            count += 1
    return count


def model_ptc_footprint(model: Module, pdk: FoundryPDK) -> float:
    """Sum of per-core footprints (um^2) over unique core *topologies*.

    All PTC layers share one searched topology in the paper's flow, so
    the reported footprint is that of a single tensor core; this helper
    instead reports the per-core area of the first core found (they are
    identical by construction) — matching the paper's per-PTC numbers.
    """
    for m in model.modules():
        if isinstance(m, BlockUSV):
            return m.footprint(pdk)
    return 0.0
