"""The four benchmark jobs: ADEPT search, VGG-8 retraining, the Fig. 4
Monte-Carlo grid and chip serving.

Each job has a ``setup`` (data synthesis and model / space / chip
construction, timed into ``setup_s``) and a ``run`` that does one timed
unit of work, checks its outputs and returns its measurements.  A
workload runs its own job at full size and the other three at their
``probe`` size, so that every workload reports every end-to-end metric.

Inputs come from the workload seed: datasets, model initialisation and
request vectors.  The fixed parts of a workload (footprint windows,
noise levels, the random topology of the noise grid and the chip) are
part of its definition, so the simulated serving statistics are
seed-independent and checked exactly.  ``train_test_split`` is called
through its module, the name the tracer wraps.
"""

from __future__ import annotations

import asyncio
import math
import shutil
import tempfile
import time
from statistics import median
from typing import Dict, List

import numpy as np

from repro import data
from repro.core import ADEPTConfig, ADEPTSearch, evaluate_noise_grid, random_topology
from repro.core.variation import evaluate_noise_grid_shard
from repro.experiments.common import TABLE1_WINDOWS, ExperimentScale
from repro.experiments.fig4 import NOISE_STDS
from repro.hardware import RollingMonitor, ServiceRecalibrator, SimulatedChip, StreamingServer
from repro.onn import TrainConfig, build_model, evaluate, train
from repro.photonics import AMF, DriftSpec
from repro.ptc.cache import unitary_cache_dir
from repro.service import DesignService
from repro.utils.rng import spawn_rng, stable_seed

from stats import percentile

K = 16


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verdicts: Dict[str, bool] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        ok = bool(ok)
        self.attempted += 1
        self.verdicts[name] = self.verdicts.get(name, True) and ok
        if not ok:
            self.failed += 1
            print(f"check failed: {name}: {detail}")
        return ok

    def count(self, name: str, n_ok: int, n: int) -> None:
        """Record ``n`` attempted operations of which ``n_ok`` passed."""
        self.attempted += n
        self.failed += n - n_ok
        self.verdicts[name] = self.verdicts.get(name, True) and n_ok == n
        if n_ok != n:
            print(f"check failed: {name}: {n - n_ok} of {n}")


# ---------------------------------------------------------------------------
# search-k16: Table 3's ADEPT-a2 / ADEPT-a4 searches (Table 1 windows, AMF)
# ---------------------------------------------------------------------------

class SearchJob:
    """Both 16x16 Table 3 searches through ``ADEPTSearch.run``."""

    #: (name, index into the K=16 Table 1 windows), as in Table 3.
    TOPOLOGIES = (("ADEPT-a2", 1), ("ADEPT-a4", 3))
    #: Probe runs per probe round.
    PROBE_UNITS = 1

    def __init__(self, seed: int, ref: dict, probe: bool = False):
        if probe:
            # Same flow with every phase kept (warmup, arch steps, SPL,
            # extraction), one batch per epoch and four epochs.
            self.scale = ExperimentScale(n_train=48, n_test=48, search_epochs=4,
                                         search_warmup=1, search_spl_epoch=2,
                                         seed=seed)
        else:
            self.scale = ExperimentScale(seed=seed)  # 8 epochs x 8 batches
        self.ref = ref

    def _config(self, window, seed: int) -> ADEPTConfig:
        s = self.scale
        return ADEPTConfig(
            k=K, pdk=AMF, f_min=window[0] * 1000.0, f_max=window[1] * 1000.0,
            epochs=s.search_epochs, warmup_epochs=s.search_warmup,
            spl_epoch=s.search_spl_epoch, lr=s.search_lr, batch_size=s.batch_size,
            n_train=s.n_train, n_test=s.n_test, proxy_channels=s.proxy_channels,
            seed=seed,
        )

    def setup(self):
        s = self.scale
        train_set, test_set = data.train_test_split("mnist", s.n_train, s.n_test, seed=s.seed)
        return [
            (name, ADEPTSearch(self._config(TABLE1_WINDOWS[K][idx], s.seed + 200 + idx),
                               train_set, test_set))
            for name, idx in self.TOPOLOGIES
        ]

    def run(self, searches, checks: Checks) -> Dict[str, float]:
        t0 = time.perf_counter()
        results = [(name, search.run()) for name, search in searches]
        seconds = time.perf_counter() - t0
        for name, result in results:
            lo, hi = self.ref["windows_kum2"][name]
            f = result.topology.footprint(AMF).in_paper_units()
            checks.check(f"search.{name}.footprint_in_window", lo <= f <= hi,
                         f"{f:.1f} not in [{lo}, {hi}] (1000 um^2)")
        return {"seconds": seconds}

    @staticmethod
    def summarize(runs: List[dict]) -> Dict[str, float]:
        return {"search_s": median(r["seconds"] for r in runs)}


# ---------------------------------------------------------------------------
# train-vgg8: a shortened Table 3 cell (VGG-8, CIFAR-10 proxy, MZI mesh)
# ---------------------------------------------------------------------------

class TrainJob:
    """Train a fresh VGG-8 with ``onn.train`` (no test set), then score
    it once with ``onn.evaluate``."""

    PROBE_UNITS = 1

    def __init__(self, seed: int, ref: dict, probe: bool = False):
        self.seed = seed
        self.ref = ref
        scale = ExperimentScale(seed=seed)
        self.batch_size = scale.batch_size
        self.width = scale.model_width
        self.n_train, self.n_test = (24, 24) if probe else (192, 96)
        self.batch_size = min(self.batch_size, self.n_train)
        self.epochs = 1
        self._first = None

    def setup(self):
        train_set, test_set = data.train_test_split("cifar10", self.n_train, self.n_test,
                                               seed=self.seed)
        model = build_model("vgg8", "mzi", k=K, in_channels=3, image_size=32,
                            width_mult=self.width, rng=spawn_rng(self.seed))
        return model, train_set, test_set

    def run(self, state, checks: Checks) -> Dict[str, float]:
        model, train_set, test_set = state
        cfg = TrainConfig(epochs=self.epochs, batch_size=self.batch_size, lr=2e-3)
        t0 = time.perf_counter()
        result = train(model, train_set, None, config=cfg, rng=spawn_rng(self.seed + 1))
        acc = evaluate(model, test_set)
        seconds = time.perf_counter() - t0
        losses = result.train_losses
        checks.check("train.loss_finite", all(math.isfinite(v) for v in losses),
                     f"losses {losses}")
        lo, hi = self.ref["accuracy_range"]
        checks.check("train.accuracy_in_range", lo <= acc <= hi,
                     f"accuracy {acc:.4f} not in [{lo}, {hi}]")
        # Every cell trains the same fresh model on the same data.
        if self._first is None:
            self._first = (losses, acc)
        else:
            checks.check("train.repeat_identical", (losses, acc) == self._first,
                         f"{(losses, acc)} != {self._first}")
        return {"samples": self.epochs * len(train_set), "seconds": seconds}

    @staticmethod
    def summarize(runs: List[dict]) -> Dict[str, float]:
        return {"train_samples_per_s": _rate(runs, "samples")}


# ---------------------------------------------------------------------------
# noise-grid: the Fig. 4(a) Monte-Carlo grid (cnn2 / MNIST proxy)
# ---------------------------------------------------------------------------

class NoiseJob:
    """``core.evaluate_noise_grid`` over len(NOISE_STDS) x n_runs frozen
    noisy realizations of cnn2 on a fixed seeded ``random_topology``."""

    TOPOLOGY_SEED = 5
    PROBE_UNITS = 1
    #: Trials re-scored through the sequential reference engine, which
    #: must agree exactly with the trial-batched grid.
    PARITY_TRIALS = 2

    def __init__(self, seed: int, ref: dict, probe: bool = False):
        self.seed = seed
        self.ref = ref
        scale = ExperimentScale(seed=seed)
        self.width = scale.model_width
        # A 32-sample test set keeps one grid near a second, so a run
        # holds about ten grids and reports their median.
        self.n_train, self.n_test = (48 if probe else scale.n_train), 32
        self.n_runs = 4 if probe else 20
        self._first_grid = None

    def setup(self):
        _, test_set = data.train_test_split("mnist", self.n_train, self.n_test, seed=self.seed)
        topology = random_topology(K, 8, 8, rng=np.random.default_rng(self.TOPOLOGY_SEED))
        model = build_model("cnn2", topology, k=K, in_channels=1, image_size=28,
                            width_mult=self.width, rng=spawn_rng(self.seed))
        return model, test_set

    def run(self, state, checks: Checks) -> Dict[str, float]:
        model, test_set = state
        t0 = time.perf_counter()
        grid = evaluate_noise_grid(model, test_set, NOISE_STDS, self.n_runs, seed=self.seed)
        seconds = time.perf_counter() - t0
        shape = (len(NOISE_STDS), self.n_runs)
        checks.check("noise.grid_shape", grid.shape == shape, f"{grid.shape} != {shape}")
        checks.check("noise.accuracy_in_unit_interval",
                     bool(np.all((grid >= 0.0) & (grid <= 1.0))), "accuracy outside [0, 1]")
        lo, hi = self.ref["mean_accuracy_range"]
        mean = float(np.mean(grid))
        checks.check("noise.mean_in_range", lo <= mean <= hi,
                     f"mean accuracy {mean:.4f} not in [{lo}, {hi}]")
        if self._first_grid is None:
            self._first_grid = grid
            n = grid.size
            lo_t = n - self.PARITY_TRIALS
            oracle = evaluate_noise_grid_shard(model, test_set, NOISE_STDS, self.n_runs,
                                               lo_t, n, seed=self.seed, backend="reference")
            checks.check("noise.matches_reference_engine",
                         np.array_equal(oracle, grid.reshape(-1)[lo_t:]),
                         f"{oracle} != {grid.reshape(-1)[lo_t:]}")
        else:
            checks.check("noise.repeat_identical", np.array_equal(grid, self._first_grid),
                         "a repeated grid differs from the first")
        return {"trials": grid.size, "seconds": seconds}

    @staticmethod
    def summarize(runs: List[dict]) -> Dict[str, float]:
        return {"noise_trials_per_s": _rate(runs, "trials")}


# ---------------------------------------------------------------------------
# serve-stream: a drifting chip behind the streaming server
# ---------------------------------------------------------------------------

class ServeJob:
    """A closed loop of coroutine clients against a ``StreamingServer``
    whose recalibrations go through a ``ServiceRecalibrator`` on a fresh
    ``DesignService`` root, drained in-process.

    Every client awaits its reply before sending again, all in one
    event-loop thread, so each micro-batch holds one request per client
    and the simulated statistics are a pure function of the workload.
    """

    N_BLOCKS = 8
    CHIP_SEED = 7
    TOPOLOGY_SEED = 11
    PHASE_WALK_STD = 0.1  # rad / sqrt(s) of virtual time
    N_CLIENTS = 16
    #: Two sessions per probe round: a latency percentile of four
    #: sessions still moves with the slow spells of the machine.
    PROBE_UNITS = 2

    def __init__(self, seed: int, ref: dict, workdir: str, probe: bool = False):
        self.seed = seed
        self.ref = ref
        self.workdir = workdir
        self.size = "probe" if probe else "full"
        self.per_client = 300 if probe else 500
        self.topology = random_topology(K, self.N_BLOCKS, 0,
                                        rng=np.random.default_rng(self.TOPOLOGY_SEED))
        self.sessions = 0

    def setup(self):
        chip = SimulatedChip(self.topology, drift=DriftSpec(phase_walk_std=self.PHASE_WALK_STD),
                             seed=self.CHIP_SEED, max_batch=self.N_CLIENTS)
        target = SimulatedChip(self.topology, seed=self.CHIP_SEED).transfer_matrix()
        # A fresh root per session: jobs are content-addressed, so a
        # reused root would answer recalibrations from earlier results.
        root = tempfile.mkdtemp(prefix="service-", dir=self.workdir)
        service = DesignService(root)
        recalibrator = ServiceRecalibrator(service, steps=150, lr=0.05)
        recalibrator(chip, target)  # calibrate before serving
        monitor = RollingMonitor(window=8, trigger_below=0.99, rearm_above=0.995)
        server = StreamingServer(chip, target=target, monitor=monitor,
                                 recalibrate=recalibrator, max_batch=self.N_CLIENTS)
        rng = spawn_rng(stable_seed("perfbench-serve", self.seed, self.sessions))
        self.sessions += 1
        inputs = rng.normal(size=(self.N_CLIENTS, self.per_client, K))
        return server, service, root, inputs

    def run(self, state, checks: Checks) -> Dict[str, float]:
        server, service, root, inputs = state
        latencies: List[float] = []
        answers: List[np.ndarray] = []

        async def client(xs):
            for x in xs:
                t0 = time.perf_counter()
                y = await server.submit(x)
                latencies.append(time.perf_counter() - t0)
                answers.append(y)

        async def session():
            server.start()
            try:
                await asyncio.gather(*(client(xs) for xs in inputs))
            finally:
                await server.stop()

        try:
            t0 = time.perf_counter()
            asyncio.run(session())
            seconds = time.perf_counter() - t0
        finally:
            service.close()
            shutil.rmtree(root, ignore_errors=True)
        n_ok = sum(1 for y in answers if y.shape == (K,) and bool(np.all(np.isfinite(y))))
        checks.count("serve.answer_finite_k_vector", n_ok, inputs.shape[0] * inputs.shape[1])
        report = server.report()
        ref = self.ref[self.size]
        got = {"n_batches": report["n_batches"],
               "virtual_time_s": report["virtual_time_s"],
               "recalibrations": len(report["recalibrations"])}
        for key, value in got.items():
            checks.check(f"serve.{key}", value == ref[key], f"{value!r} != {ref[key]!r}")
        return {"requests": len(answers), "seconds": seconds, "latencies": latencies,
                "batch_sizes": report["batch_sizes"], **got}

    @staticmethod
    def summarize(runs: List[dict]) -> Dict[str, float]:
        pooled = [t for r in runs for t in r["latencies"]]
        return {
            "serve_requests_per_s": _rate(runs, "requests"),
            "serve_latency_ms_p50": 1e3 * percentile(pooled, 50.0),
            "serve_latency_ms_p99": 1e3 * percentile(pooled, 99.0),
        }


def check_no_disk_cache(checks: Checks) -> None:
    """The process-global unitary cache must stay memory-only."""
    d = unitary_cache_dir()
    checks.check("no_unitary_cache_dir", d is None, f"unitary cache dir is {d}")


def _rate(runs: List[dict], work: str) -> float:
    """Median over the runs of work per second: a run that lands on a slow
    spell, or pays a first-call cost, does not move it."""
    return median(r[work] / r["seconds"] for r in runs)
