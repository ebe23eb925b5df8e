"""Graph lifetime: backward() frees what it ran through.

Like PyTorch without ``retain_graph``, each interior node drops its
parents and backward closure once its gradient has been propagated, so
saved activations (the conv patch buffer above all) are released during
backward() even while the caller still holds the output and the loss.  A
second backward through a freed node raises.
"""

import weakref

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import functional as F


def _conv_loss(rng, x_requires_grad=True):
    x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=x_requires_grad)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    out = F.conv2d(x, w)
    return x, w, out, (out * out).sum()


class TestSecondBackward:
    def test_second_backward_raises(self, rng):
        _, w, _, loss = _conv_loss(rng)
        loss.backward()
        with pytest.raises(RuntimeError, match="backward through the graph a second time"):
            loss.backward()

    def test_reusing_freed_intermediate_raises(self, rng):
        _, _, out, loss = _conv_loss(rng)
        loss.backward()
        with pytest.raises(RuntimeError, match="second time"):
            (out * 2.0).sum().backward()

    def test_fresh_forward_accumulates_into_leaves(self, rng):
        x, w, _, loss = _conv_loss(rng)
        loss.backward()
        first = w.grad.copy()
        loss2 = (F.conv2d(x, w) ** 2).sum()
        loss2.backward()
        np.testing.assert_allclose(w.grad, 2 * first, rtol=1e-12)

    def test_freed_nodes_stay_non_leaf(self, rng):
        _, _, out, loss = _conv_loss(rng)
        loss.backward()
        assert loss._parents == () and out._parents == ()
        assert not loss.is_leaf and not out.is_leaf
        assert loss.grad is None  # interior nodes never hold .grad

    def test_leaves_are_untouched(self, rng):
        x, w, _, loss = _conv_loss(rng)
        loss.backward()
        assert x.is_leaf and w.is_leaf
        assert x.requires_grad and w.requires_grad


class TestPatchBufferReleased:
    @pytest.mark.parametrize("x_requires_grad", [True, False])
    def test_patch_buffer_unreachable_after_backward(self, rng, monkeypatch, x_requires_grad):
        refs = []
        real = F._im2col_array

        def capture(*args):
            col = real(*args)
            base = col
            while base.base is not None:
                base = base.base
            refs.append(weakref.ref(base))
            return col

        monkeypatch.setattr(F, "_im2col_array", capture)
        x, w, out, loss = _conv_loss(rng, x_requires_grad)
        (ref,) = refs
        assert ref() is not None  # held by the graph until backward
        loss.backward()
        # No gc.collect(): the graph holds no reference cycles, so the
        # buffer goes by reference counting while out and loss live on.
        assert ref() is None
        assert out.data is not None and w.grad is not None


class TestDeepGraph:
    def test_chain_deeper_than_recursion_limit(self):
        x = Tensor(np.array(0.5), requires_grad=True)
        y = x
        for _ in range(1200):
            y = y + 1.0
        y.backward()
        assert float(y.item()) == pytest.approx(1200.5)
        assert float(x.grad) == 1.0

    def test_post_order_matches_recursive_definition(self, rng):
        """A diamond with shared subexpressions: gradients are exact."""
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = a * a
        c = b + a
        d = c * b + c
        d.sum().backward()
        av = a.data
        # d = (a^2 + a) a^2 + a^2 + a
        expected = 4 * av**3 + 3 * av**2 + 2 * av + 1
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)
