"""Channel-major conv lowering against a frozen copy of the original one.

The original lowering copied patches into a ``(N*OH*OW, C*kh*kw)``
matrix, multiplied ``patches @ weight.T`` and scattered the input
gradient back through ``kh*kw`` strided adds.  It is frozen below as the
oracle; forward output and every gradient must agree to 1e-12 relative
at the shapes the search proxy and VGG-8 run, at stride 2 and with
complex weights.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, custom_grad, ensure_tensor
from repro.autograd import tensor as T
from repro.nn import functional as F

RTOL = 1e-12


# ----------------------------------------------------------------------
# Frozen oracle: the original im2col / col2im / conv2d
# ----------------------------------------------------------------------

def _oracle_im2col_array(x, kh, kw, sh, sw):
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))


def _oracle_col2im_array(gcol, x_shape, kh, kw, sh, sw):
    gx = np.zeros(x_shape, dtype=gcol.dtype)
    oh, ow = gcol.shape[1], gcol.shape[2]
    g = gcol.transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        h_end = i + sh * oh
        for j in range(kw):
            w_end = j + sw * ow
            gx[:, :, i:h_end:sh, j:w_end:sw] += g[:, :, i, j]
    return gx


def _oracle_im2col(x, kh, kw, sh, sw):
    col = _oracle_im2col_array(x.data, kh, kw, sh, sw)
    x_shape = x.shape

    def backward(g):
        return (_oracle_col2im_array(g, x_shape, kh, kw, sh, sw),)

    return custom_grad(col, (x,), backward)


def _oracle_conv2d(x, weight, bias, stride, padding):
    x = ensure_tensor(x)
    if padding:
        x = T.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    o, c, kh, kw = weight.shape
    col = _oracle_im2col(x, kh, kw, stride, stride)
    n, oh, ow = col.shape[0], col.shape[1], col.shape[2]
    col2 = col.reshape((n * oh * ow, c * kh * kw))
    w2 = weight.reshape((o, c * kh * kw))
    out = col2 @ w2.T
    if bias is not None:
        out = out + bias
    out = out.reshape((n, oh, ow, o))
    return out.transpose((0, 3, 1, 2))


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------

def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _run(conv, x0, w0, b0, proj, stride, padding):
    """Forward, then backward of ``Re(sum(out * proj))``."""
    x = Tensor(x0, requires_grad=True)
    w = Tensor(w0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    out = conv(x, w, b, stride, padding)
    (out * Tensor(proj)).real().sum().backward()
    return out.data, w.grad, x.grad, b.grad


CASES = {
    # (N, C, H, W), (O, kh, kw), stride, padding
    "search-proxy-conv2": ((48, 6, 24, 24), (6, 5, 5), 1, 0),
    "vgg8-stage2": ((8, 32, 16, 16), (64, 3, 3), 1, 1),
    "stride2": ((4, 3, 11, 11), (5, 3, 3), 2, 0),
    "stride2-padded": ((3, 4, 8, 8), (6, 3, 3), 2, 1),
}


@pytest.mark.parametrize("complex_weights", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_frozen_scatter_add_lowering(case, complex_weights, rng):
    (n, c, h, w), (o, kh, kw), stride, padding = CASES[case]
    x0 = rng.normal(size=(n, c, h, w))
    w0 = rng.normal(size=(o, c, kh, kw))
    b0 = rng.normal(size=o)
    if complex_weights:
        w0 = w0 + 1j * rng.normal(size=w0.shape)
        b0 = b0 + 1j * rng.normal(size=o)
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    proj = rng.normal(size=(n, o, oh, ow))
    if complex_weights:
        proj = proj + 1j * rng.normal(size=proj.shape)

    new = _run(F.conv2d, x0, w0, b0, proj, stride, padding)
    old = _run(_oracle_conv2d, x0, w0, b0, proj, stride, padding)
    for name, a, b in zip(("output", "weight grad", "input grad", "bias grad"), new, old):
        assert a.shape == b.shape, name
        assert _rel_err(a, b) <= RTOL, (name, _rel_err(a, b))


@pytest.mark.parametrize("kh, kw, sh, sw", [(3, 3, 1, 1), (3, 3, 2, 2), (3, 2, 2, 1), (2, 3, 1, 3)])
def test_im2col_col2im_match_frozen_arrays(kh, kw, sh, sw, rng):
    x = rng.normal(size=(3, 4, 9, 10))
    col = F._im2col_array(x, kh, kw, sh, sw)
    np.testing.assert_array_equal(col, _oracle_im2col_array(x, kh, kw, sh, sw))
    g = rng.normal(size=col.shape)
    np.testing.assert_array_equal(
        F._col2im_array(g, x.shape, kh, kw, sh, sw),
        _oracle_col2im_array(g, x.shape, kh, kw, sh, sw),
    )


def test_patch_view_is_backed_by_one_channel_major_buffer(rng):
    x = rng.normal(size=(2, 3, 6, 6))
    col = F._im2col_array(x, 3, 3, 1, 1)
    assert col.shape == (2, 4, 4, 3, 3, 3)
    patches = col.transpose(3, 4, 5, 0, 1, 2)
    assert patches.flags.c_contiguous
    assert np.shares_memory(patches.reshape(27, 32), col)  # a view, not a copy


# ----------------------------------------------------------------------
# Constant input: no gradient toward the patches
# ----------------------------------------------------------------------

def test_conv_on_constant_input_computes_no_input_gradient(rng, monkeypatch):
    col2im_calls = []
    real_col2im = F._col2im_array

    def spy_col2im(*args):
        col2im_calls.append(args[0].shape)
        return real_col2im(*args)

    returned = []
    real_matmul = T.matmul

    def spy_matmul(a, b):
        out = real_matmul(a, b)
        inner = out._backward

        def backward(g):
            grads = inner(g)
            returned.append(grads)
            return grads

        out._backward = backward
        return out

    monkeypatch.setattr(F, "_col2im_array", spy_col2im)
    monkeypatch.setattr(T, "matmul", spy_matmul)

    x = Tensor(rng.normal(size=(4, 3, 8, 8)))  # data: no grad
    w = Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True)
    F.conv2d(x, w).sum().backward()

    assert w.grad is not None and x.grad is None
    assert col2im_calls == []
    (g_weight, g_patches), = returned
    assert g_weight is not None and g_patches is None
