"""Micro-benchmark: vectorized supermesh fast path vs reference loops.

Unlike the table/figure benchmarks in this directory (full pipelines),
this is a micro-kernel check of the fused build path: the fused cascade
forward must beat the per-block op loop (the oracle in
``tests/oracles/``) by >= 3x at the paper's default K = 8, while
agreeing with it to 1e-9 on both the forward values and every
parameter gradient.

Timings use the median of several trials so a single scheduler hiccup
cannot flip the verdict.  The CI workflow additionally runs this file
as a non-gating smoke job on shared runners (see
``.github/workflows/ci.yml``).
"""

import time

import numpy as np
import pytest

from repro.core.supermesh import SuperMeshCore, SuperMeshSpace
from repro.photonics import AMF
from repro.ptc import FixedTopologyFactory, MZIMeshFactory

from oracles import build_reference, supermesh_forward_reference

K = 8
SPEEDUP_FLOOR = 3.0
TOL = 1e-9


def _median_seconds(fn, reps=20, trials=9):
    best = []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best.append((time.perf_counter() - t0) / reps)
    return float(np.median(best))


def _median_ratio(fn_ref, fn_fast, reps=20, trials=9):
    """Per-trial interleaved ref/fast ratio; the median cancels the
    common-mode machine-load drift a sequential A-then-B timing keeps."""
    ratios = []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn_ref()
        t_ref = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(reps):
            fn_fast()
        t_fast = time.perf_counter() - t0
        ratios.append(t_ref / t_fast)
    return float(np.median(ratios))


def _make_pair(seed=5):
    """(fast, reference) space+core pairs with identical init: the
    first builds with ``core()``, the second with the oracle."""
    pair = []
    for _ in range(2):
        space = SuperMeshSpace(
            k=K, pdk=AMF, f_min=240_000, f_max=300_000, b_min=4, b_max=16,
            rng=np.random.default_rng(seed),
        )
        core = SuperMeshCore(space, 2 * K, 2 * K, rng=np.random.default_rng(seed + 1))
        space.sample(tau=1.0, rng=np.random.default_rng(seed + 2))
        pair.append((space, core))
    return pair


class TestSupermeshFastPath:
    def test_forward_speedup_at_k8(self):
        (sf, cf), (sr, core_r) = _make_pair()

        def cr():
            return supermesh_forward_reference(core_r)

        cf()  # warmup (allocator, BLAS thread pools)
        cr()
        t_fast = _median_seconds(cf)
        t_ref = _median_seconds(cr)
        speedup = _median_ratio(cr, cf)
        print(
            f"\nsupermesh forward K={K}: fast {t_fast * 1e3:.2f} ms, "
            f"reference {t_ref * 1e3:.2f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"fast path only {speedup:.2f}x over reference "
            f"(floor {SPEEDUP_FLOOR}x)"
        )

    def test_forward_and_grad_parity(self):
        (sf, cf), (sr, cr) = _make_pair()
        wf, wr = cf(), supermesh_forward_reference(cr)
        assert np.abs(wf.data - wr.data).max() <= TOL
        (wf ** 2).sum().backward()
        (wr ** 2).sum().backward()
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


class TestFactoryFastPath:
    """Companion numbers for the fixed-topology and MZI factories."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda: MZIMeshFactory(K, 16, rng=np.random.default_rng(1)),
                id="mzi",
            ),
            pytest.param(
                lambda: FixedTopologyFactory(
                    K, 16, [(None, np.ones(K // 2, bool), i % 2) for i in range(8)],
                    rng=np.random.default_rng(1),
                ),
                id="fixed-b8",
            ),
        ],
    )
    def test_factory_forward_faster_than_reference(self, make):
        fast, ref = make(), make()

        def ref_build():
            return build_reference(ref)

        fast.build()
        ref_build()
        t_fast = _median_seconds(fast.build)
        t_ref = _median_seconds(ref_build)
        print(
            f"\nfactory build: fast {t_fast * 1e3:.2f} ms, "
            f"reference {t_ref * 1e3:.2f} ms, speedup {t_ref / t_fast:.1f}x"
        )
        assert t_fast < t_ref
