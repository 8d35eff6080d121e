"""Shared fixtures: lazily trained desk-scale checkpoints, reused across tests."""

import json
import multiprocessing
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

from coopfuse.pipeline import Pipeline, PipelineConfig, TrainSpec, evaluate, fork_map
from coopfuse.training import train
from coopfuse.world import ChannelConfig

# costliest training first, so the last items left to a pool's workers are short
TOGGLES = {
    "full": (True, True, True),
    "wtden": (False, True, False),
    "stsync": (True, False, False),
    "adpsel": (False, False, True),
    "baseline": (False, False, False),
}

ACCEPTANCE_SEEDS = (1, 2, 3, 4, 5)


def tiny_config(**kw) -> PipelineConfig:
    """A 16 x 16, 4-channel config that trains in 2 steps; `kw` overrides its fields."""
    fields = dict(height=16, width=16, channels=4, buffer_k=2, scales=(4,), ssm_state_dim=4,
                  eval_scenarios=2, eval_measure_ticks=2, n_objects=4,
                  channel=ChannelConfig(max_latency_ticks=1, drop_p=0.0,
                                        loc_sigma=0.1, head_sigma=0.02),
                  training=TrainSpec(steps=2))
    return PipelineConfig(**{**fields, **kw})


def desk_config(label: str, seed: int) -> PipelineConfig:
    st, wt, ad = TOGGLES[label]
    return PipelineConfig(stsync=st, wtden=wt, adpsel=ad, seed=seed,
                          training=TrainSpec(seed=seed))


def run_under_address_limit(tmp_path, doc, limit: int = 3_000_000_000,
                            timeout: float = 120.0) -> str:
    """Run `coopfuse run` on config `doc` as a subprocess under an address-space
    limit of `limit` bytes, set on the child alone, and a timeout in seconds.
    Checks that it exits 2 in one stderr line, with no traceback and no
    metrics, and returns that line."""
    def limit_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS,
                           (limit if hard == resource.RLIM_INFINITY else min(hard, limit), hard))

    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    r = subprocess.run([sys.executable, "-m", "coopfuse.cli", "run", "--config",
                        str(cfg_path), "--out", str(out)], capture_output=True, text=True,
                       preexec_fn=limit_address_space, timeout=timeout)
    assert r.returncode == 2, r.stderr
    assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr, r.stderr
    assert not (out / "metrics.csv").exists()
    return r.stderr


class ModelBank:
    """Desk-scale checkpoints, every (label, seed) pair trained in one
    ``fork_map`` call the first time any is needed, kept for the session."""

    def __init__(self):
        self._models: dict[tuple[str, int], Pipeline] = {}
        self._evals: dict[tuple, object] = {}

    def get(self, label: str, seed: int) -> Pipeline:
        if not self._models:
            keys = [(lab, s) for lab in TOGGLES for s in ACCEPTANCE_SEEDS]
            for key, result in zip(keys, fork_map(train, [desk_config(*k) for k in keys])):
                self._models[key] = result.pipeline
                self._models[key]._loss_curve = result.loss_curve
        return self._models[(label, seed)]

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
