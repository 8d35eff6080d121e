"""Shared fixtures: lazily trained desk-scale checkpoints, reused across tests."""

import multiprocessing
import os
import time
import tracemalloc
from dataclasses import replace

import pytest

# numpy's BLAS gets one thread, before anything imports numpy (as in
# perfbench/run.py): the small products here gain nothing from a second
# OpenBLAS thread, which spins between calls and doubles the CPU time.
# The CLI tests' subprocesses inherit the setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from coopfuse.pipeline import Pipeline, PipelineConfig, evaluate  # noqa: E402
from coopfuse.training import train  # noqa: E402
from coopfuse.world import ChannelConfig  # noqa: E402

TOGGLES = {
    "full": (True, True, True),
    "baseline": (False, False, False),
    "stsync": (True, False, False),
    "wtden": (False, True, False),
    "adpsel": (False, False, True),
}

ACCEPTANCE_SEEDS = (1, 2, 3, 4, 5)


def desk_config(label: str, seed: int) -> PipelineConfig:
    st, wt, ad = TOGGLES[label]
    cfg = PipelineConfig(stsync=st, wtden=wt, adpsel=ad, seed=seed)
    cfg.training = replace(cfg.training, seed=seed)
    return cfg.validate()


class ModelBank:
    """Trains desk-scale checkpoints on demand and caches them for the session."""

    def __init__(self):
        self._models: dict[tuple[str, int], Pipeline] = {}
        self._evals: dict[tuple, object] = {}
        self.train_seconds: dict[tuple[str, int], float] = {}

    def get(self, label: str, seed: int) -> Pipeline:
        key = (label, seed)
        if key not in self._models:
            t0 = time.time()
            result = train(desk_config(label, seed))
            self.train_seconds[key] = time.time() - t0
            self._models[key] = result.pipeline
            self._models[key]._loss_curve = result.loss_curve
        return self._models[key]

    def metrics(self, label: str, seed: int, channel: ChannelConfig | None = None,
                wtden_override: bool | None = None):
        ch_key = None if channel is None else (channel.max_latency_ticks,
                                               channel.drop_p, channel.loc_sigma,
                                               channel.head_sigma)
        key = (label, seed, ch_key, wtden_override)
        if key not in self._evals:
            pipe = self.get(label, seed)
            if wtden_override is not None and wtden_override != pipe.cfg.wtden:
                cfg = replace(pipe.cfg, wtden=wtden_override)
                view = Pipeline(cfg)
                for name, p in view.parameters().items():
                    p.data = pipe.parameters()[name].data.copy()
                pipe = view
            self._evals[key] = evaluate(pipe, channel=channel, config_id=label)
        return self._evals[key]


@pytest.fixture(scope="session")
def model_bank():
    return ModelBank()


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fails a test that leaves a multiprocessing child alive, after ending it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    if left:
        pytest.fail(f"{len(left)} child process(es) left running: {left}")


@pytest.fixture
def traced_peak_mib():
    """A function that calls fn() under tracemalloc and returns the peak of
    the allocations traced meanwhile, in MiB; numpy reports its arrays."""
    def measure(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return measure
