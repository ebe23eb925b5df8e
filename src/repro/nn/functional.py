"""Functional NN operations built on the autograd engine.

The convolution path uses an im2col transform implemented as a custom
autograd op, after which convolution reduces to a matrix product — the
same lowering the paper's ONN layers use to map convolutions onto
photonic tensor cores.

Patches are laid out channel-major: :func:`_im2col_array` writes one
contiguous ``(C*kh*kw, N*OH*OW)`` buffer (a single copy out of a
``sliding_window_view``) and hands back its ``(N, OH, OW, C, kh, kw)``
view.  :func:`conv2d` multiplies ``weight (O, C*kh*kw) @ patches`` on that
buffer directly, so the forward GEMM, the weight gradient and the
patch gradient all read or write it contiguously, and the ``(N, O, OH,
OW)`` output is a view of the ``(O, N, OH, OW)`` product.  The input
gradient (:func:`_col2im_array`) accumulates ``kh*kw`` contiguous patch
rows into a ``(C, N, H, W)`` buffer.  After ``backward()`` the graph is
freed (see :meth:`repro.autograd.Tensor.backward`), which releases the
patch buffer.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor, custom_grad, ensure_tensor
from ..autograd import tensor as T


def _pair(v) -> Tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _im2col_array(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, H, W) -> (N, OH, OW, C, kh, kw) view of a channel-major buffer.

    The buffer is one contiguous ``(C, kh, kw, N, OH, OW)`` array, i.e.
    the ``(C*kh*kw, N*OH*OW)`` patch matrix of :func:`conv2d`.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (N, C, H-kh+1, W-kw+1, kh, kw)
    windows = windows[:, :, ::sh, ::sw, :, :]
    buf = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))
    return buf.transpose(3, 4, 5, 0, 1, 2)


def _col2im_array(
    gcol: np.ndarray,
    x_shape: Tuple[int, ...],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col_array` (scatter-add patches back).

    ``gcol`` is (N, OH, OW, C, kh, kw); when it is the view of a
    channel-major buffer each of the ``kh*kw`` adds reads contiguous
    rows.  Returns the (N, C, H, W) view of a (C, N, H, W) buffer.
    """
    n, c, h, w = x_shape
    gx = np.zeros((c, n, h, w), dtype=gcol.dtype)
    oh, ow = gcol.shape[1], gcol.shape[2]
    g = gcol.transpose(3, 4, 5, 0, 1, 2)  # (C, kh, kw, N, OH, OW)
    for i in range(kh):
        h_end = i + sh * oh
        for j in range(kw):
            w_end = j + sw * ow
            gx[:, :, i:h_end:sh, j:w_end:sw] += g[:, i, j]
    return gx.transpose(1, 0, 2, 3)


def im2col(x: Tensor, kernel_size, stride=1) -> Tensor:
    """Differentiable im2col: (N,C,H,W) -> (N,OH,OW,C,kh,kw)."""
    x = ensure_tensor(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    col = _im2col_array(x.data, kh, kw, sh, sw)
    x_shape = x.shape

    def backward(g: np.ndarray):
        return (_col2im_array(g, x_shape, kh, kw, sh, sw),)

    return custom_grad(col, (x,), backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride=1,
    padding=0,
) -> Tensor:
    """2-D convolution (cross-correlation) via im2col + matmul.

    ``x``: (N, C, H, W); ``weight``: (O, C, kh, kw); ``bias``: (O,).
    """
    x = ensure_tensor(x)
    ph, pw = _pair(padding)
    if ph or pw:
        x = T.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    o, c, kh, kw = weight.shape
    col = im2col(x, (kh, kw), stride)  # (N, OH, OW, C, kh, kw)
    n, oh, ow = col.shape[0], col.shape[1], col.shape[2]
    # Both steps are views of the channel-major patch buffer.
    patches = col.transpose((3, 4, 5, 0, 1, 2)).reshape((c * kh * kw, n * oh * ow))
    w2 = weight.reshape((o, c * kh * kw))
    out = w2 @ patches  # (O, N*OH*OW)
    if bias is not None:
        out = out + bias.reshape((o, 1))
    out = out.reshape((o, n, oh, ow))
    return out.transpose((1, 0, 2, 3))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``; ``weight``: (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def avg_pool2d(x: Tensor, kernel_size) -> Tensor:
    """Non-overlapping average pooling (kernel == stride)."""
    kh, kw = _pair(kernel_size)
    n, c, h, w = x.shape
    if h % kh or w % kw:
        # Crop the ragged border (matches "valid" pooling behaviour).
        x = x[:, :, : (h // kh) * kh, : (w // kw) * kw]
        n, c, h, w = x.shape
    x = x.reshape((n, c, h // kh, kh, w // kw, kw))
    return x.mean(axis=(3, 5))


def max_pool2d(x: Tensor, kernel_size) -> Tensor:
    """Non-overlapping max pooling (kernel == stride)."""
    kh, kw = _pair(kernel_size)
    n, c, h, w = x.shape
    if h % kh or w % kw:
        x = x[:, :, : (h // kh) * kh, : (w // kw) * kw]
        n, c, h, w = x.shape
    x = x.reshape((n, c, h // kh, kh, w // kw, kw))
    return x.max(axis=(3, 5))


def adaptive_avg_pool2d(x: Tensor, output_size) -> Tensor:
    """Adaptive average pooling for sizes that evenly divide the input."""
    oh, ow = _pair(output_size)
    n, c, h, w = x.shape
    if h % oh or w % ow:
        raise ValueError(
            f"adaptive_avg_pool2d requires divisible sizes, got {h}x{w} -> {oh}x{ow}"
        )
    return avg_pool2d(x, (h // oh, w // ow))


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scale kept activations by 1/(1-p) at train time."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    return x.flatten(start_dim)
