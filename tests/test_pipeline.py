"""Pipeline assembly: config validation, stage toggles, end-to-end runs."""

import dataclasses
import inspect
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures import process as futures_process
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from coopfuse import cli, pipeline as pipeline_module, sweeps as sweeps_module
from coopfuse import training as training_module
from coopfuse.pipeline import (ConfigError, MetricRecord, Pipeline,
                               PipelineConfig, TrainSpec, clean_reference, config_label,
                               evaluate, fork_map, occupancy_iou, simulate)
from coopfuse.sweeps import ABLATION_COMBOS, variant_sweep
from coopfuse.sync import Integrator, TemporalSync
from coopfuse.tensor import Tape, Tensor, active_tape, no_grad
from coopfuse.training import ADAM_CHUNK, Adam, DivergenceError, train
from coopfuse.world import ChannelConfig, Scenario, make_scenario, make_scene, render_bev


def pin_passthrough(pipe):
    """Integration = stream average identity, decoder = occupancy copy."""
    c = pipe.cfg.channels
    ker = np.zeros((c, 2 * c, 3, 3))
    for i in range(c):
        ker[i, i, 1, 1] = 0.5
        ker[i, c + i, 1, 1] = 0.5
    pipe.integrator.kernel.data = ker
    pipe.integrator.bias.data = np.zeros_like(pipe.integrator.bias.data)
    dec = np.zeros((1, c, 1, 1))
    dec[0, 0, 0, 0] = 4.0
    pipe.decoder_kernel.data = dec
    pipe.decoder_bias.data = np.full((1, 1, 1), -2.0)


# field patches that make the defaults and tiny_config() bad, and ones that keep them good
BAD_PATCHES = [
    {"height": 30}, {"scales": (5,)}, {"retention": 0.0},
    {"retention": 1.5}, {"buffer_k": 0}, {"n_agents": 0}, {"channels": 0},
    {"scales": (0,)}, {"scales": ()}, {"cell_size": np.inf}, {"bounds_m": 0.0},
    {"fov_ego_m": -1.0}, {"fov_collab_m": np.nan}, {"channels": 1},
]
GOOD_PATCHES = [{}, {"channels": 2, "anchor_points": 1}, {"ssm_state_dim": 64},
                {"anchor_points": 32}]


class TestConfig:
    def test_defaults_validate(self):
        assert PipelineConfig.from_json({}) == PipelineConfig()

    @pytest.mark.parametrize("patch", BAD_PATCHES)
    def test_bad_configs_rejected(self, patch):
        with pytest.raises(ConfigError):
            replace(PipelineConfig(), **patch)

    def test_bad_training_steps_rejected(self):
        with pytest.raises(ConfigError):
            replace(PipelineConfig(), training=TrainSpec(steps=0))

    @pytest.mark.parametrize("kw,message", [
        ({"retention": 2.0}, r"k must be > 0\.0 and <= 1\.0, got 2\.0"),
        ({"channels": 700}, r"C=700, anchor_points=4, ssm_state_dim=16 need 9\.2 GiB of "
                            r"parameters, over the 8\.0 GiB cap"),
        ({"training": TrainSpec(steps=0)}, r"training\.steps must be >= 1, got 0"),
    ], ids=["retention", "channels", "training.steps"])
    def test_bad_config_is_rejected_when_made(self, kw, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            PipelineConfig(**kw)

    @pytest.mark.parametrize("config,name", [(PipelineConfig(), "retention"),
                                             (TrainSpec(), "steps"),
                                             (ChannelConfig(), "drop_p")],
                             ids=["PipelineConfig", "TrainSpec", "ChannelConfig"])
    def test_configs_are_frozen(self, config, name):
        """A config that was checked stays as it was checked."""
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, getattr(config, name))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(patches=st.lists(st.sampled_from(BAD_PATCHES + GOOD_PATCHES), max_size=3))
    def test_replace_is_checked_or_round_trips(self, patches):
        """Patches from both pools, merged into tiny_config(), either raise
        from `replace` or give a config equal to its JSON round trip."""
        patch = {k: v for p in patches for k, v in p.items()}
        try:
            cfg = replace(tiny_config(), **patch)
        except ConfigError:
            return
        assert PipelineConfig.from_json(cfg.to_json()) == cfg

    def test_json_roundtrip(self):
        cfg = tiny_config(retention=0.4, stsync=False)
        back = PipelineConfig.from_json(cfg.to_json())
        assert back.to_json() == cfg.to_json()

    def test_default_json_roundtrip(self):
        doc = PipelineConfig().to_json()
        assert PipelineConfig.from_json(doc).to_json() == doc

    @pytest.mark.parametrize("doc,key", [
        ({"L_tick": 2}, "L_tick"), ({"channel": {"L_tick": 2}}, "L_tick"),
        ({"training": {"step": 3}}, "step"), ({"H": 32, "stages": True}, "stages"),
        ({"seed": 1, "channel": {"drop_p": 0.2, "sigma": 0.1}}, "sigma"),
    ])
    def test_unknown_keys_rejected(self, doc, key):
        with pytest.raises(ConfigError, match=repr(key)):
            PipelineConfig.from_json(doc)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({"H": "not-a-number"})

    def test_integral_floats_read_as_ints(self):
        cfg = PipelineConfig.from_json({"C": 8.0, "channel": {"L_ticks": 2.0},
                                        "training": {"batch_scenes": 1.0}})
        assert (cfg.channels, cfg.channel.max_latency_ticks, cfg.training.batch_scenes) == (8, 2, 1)
        assert isinstance(cfg.channels, int)

    def test_omitted_channel_keys_keep_defaults(self):
        cfg = PipelineConfig.from_json({"channel": {"L_ticks": 2}})
        default = PipelineConfig().channel
        assert cfg.channel == replace(default, max_latency_ticks=2)
        assert cfg.channel.loc_sigma == 0.2

    def test_the_desk_channel_is_the_channel_default(self):
        """`ChannelConfig()` is the desk channel, and the config table's
        `channel` defaults to it, as `training` defaults to `TrainSpec()`."""
        desk = ChannelConfig(3, 0.0, 0.2, 0.2 * math.pi / 18)
        defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
        assert defaults["channel"] == ChannelConfig() == desk
        assert defaults["training"] == TrainSpec()
        assert PipelineConfig().channel == ChannelConfig()
        partial = PipelineConfig.from_json({"channel": {"L_ticks": 2}}).channel
        assert partial == replace(desk, max_latency_ticks=2)

    @pytest.mark.parametrize("helper,names", [
        (make_scenario, ("n_agents", "n_objects", "bounds", "fov_ego", "fov_collab")),
        (make_scene, ("n_objects", "bounds")),
        (render_bev, ("channels",)),
        (TemporalSync, ("n_anchor_points",)),
        (Adam, ("lr",)),
    ], ids=["make_scenario", "make_scene", "render_bev", "TemporalSync", "Adam"])
    def test_helpers_take_config_sizes_from_the_caller(self, helper, names):
        """A size the config owns has no second default in the helpers it reaches."""
        params = inspect.signature(helper).parameters
        empty = inspect.Parameter.empty
        assert {n: params[n].default for n in names} == dict.fromkeys(names, empty)

    def test_omitted_training_keys_keep_defaults(self):
        cfg = PipelineConfig.from_json({"training": {"steps": 3}})
        assert cfg.training == replace(TrainSpec(), steps=3)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    @pytest.mark.parametrize("name", ["stsync", "wtden", "adpsel"])
    def test_stage_flags_must_be_json_booleans(self, name, value):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({name: value})

    @pytest.mark.parametrize("doc", [[], {"channel": 3}, {"training": "fast"}])
    def test_non_object_sections_rejected(self, doc):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"training": {"batch_scenes": 0}}, {"eval_measure_ticks": 0},
        {"eval_scenarios": 0}, {"cell_size": 0.0}, {"cell_size": -0.5},
    ])
    def test_nonpositive_counts_and_cell_size_rejected(self, doc):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(doc)

    def test_config_label(self):
        assert config_label(PipelineConfig()) == "full"
        assert config_label(tiny_config(stsync=False, wtden=False,
                                        adpsel=False)) == "baseline"
        assert config_label(tiny_config(wtden=False, adpsel=False)) == "stsync"


class TestSizeEstimate:
    """A config is sized from its fields alone when it is made, and one whose
    parameters or largest tick array exceed SIZE_CAP_BYTES is rejected."""

    @pytest.mark.parametrize("c", [2, 3, 8])
    @pytest.mark.parametrize("m,n", [(1, 1), (5, 3)])
    def test_parameter_count_is_exact(self, c, m, n):
        cfg = PipelineConfig(height=8, width=8, scales=(4,), channels=c, anchor_points=m,
                             ssm_state_dim=n)
        params = Pipeline(cfg).parameters().values()
        assert cfg.parameter_count() == sum(p.data.size for p in params)

    def test_cap_on_parameters(self):
        # about 2526 C^2 parameters: C=600 needs 6.8 GiB, C=700 9.2 GiB
        assert 8 * PipelineConfig(channels=600).parameter_count() \
            < pipeline_module.SIZE_CAP_BYTES
        with pytest.raises(ConfigError, match=r"^C=700, anchor_points=4, ssm_state_dim=16 "
                                              r"need 9\.2 GiB of parameters, over the 8\.0 "
                                              r"GiB cap$"):
            PipelineConfig(channels=700)

    def test_cap_on_one_array(self):
        # the anchor's C x 4 x M*H x W corners: 8 x 4 x 4 x 2048^2 take 4 GiB
        PipelineConfig(height=2048, width=2048)
        with pytest.raises(ConfigError, match=r"^H=4096, W=4096, C=8, anchor_points=4 "
                                              r"\(stsync's anchor corners\) needs 16\.0 GiB"):
            PipelineConfig(height=4096, width=4096)

    def test_cap_on_ticks(self):
        # the desk config trains 500 x 1 x (4 + 3 + 1) = 4,000 ticks and
        # evaluates 6 x (4 + 3 + 8) = 90
        cfg = PipelineConfig()
        assert cfg.tick_counts() == [("training", 4000), ("evaluation", 90)]
        # an evaluation counts the L_ticks of the channel it runs on, 6 x (4 + 5 + 8)
        assert cfg.tick_counts(replace(cfg.channel, max_latency_ticks=5)) \
            == [("training", 4000), ("evaluation", 102)]
        at_cap = replace(cfg, training=TrainSpec(steps=pipeline_module.TICK_CAP // 8))
        assert at_cap.tick_counts()[0] == ("training", pipeline_module.TICK_CAP)
        with pytest.raises(ConfigError, match=r"^training needs 1\.1e7 ticks, over the "
                                              r"1\.0e7 cap$"):
            replace(cfg, training=TrainSpec(steps=pipeline_module.TICK_CAP // 8 + 1))
        with pytest.raises(ConfigError, match=r"^training needs 2\.4e10 ticks"):
            replace(cfg, training=TrainSpec(steps=10**9, batch_scenes=3))
        with pytest.raises(ConfigError, match=r"^evaluation needs 1\.5e400 ticks"):
            replace(cfg, eval_scenarios=10**399)
        scen = cfg.scenario(1, cfg.channel, 20)
        assert cfg.check_scenario(replace(scen, ticks=pipeline_module.TICK_CAP)).ticks \
            == pipeline_module.TICK_CAP
        with pytest.raises(ConfigError, match=r"^scenario needs 1\.0e9 ticks, over the "
                                              r"1\.0e7 cap$"):
            cfg.check_scenario(replace(scen, ticks=10**9))

    def test_evaluate_checks_the_channel_it_is_handed(self):
        """A channel whose evaluation would pass the tick cap is rejected before
        any scenario is drawn, not run for hours."""
        pipe = Pipeline(PipelineConfig(eval_scenarios=1))
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"^evaluation needs 1\.1e9 ticks, over the "
                                              r"1\.0e7 cap$"):
            evaluate(pipe, channel=ChannelConfig(max_latency_ticks=10**9))
        assert time.perf_counter() - start < 1.0

    def test_cap_on_a_scenario_agent_stack(self, traced_peak_mib):
        """check_scenario sizes the stack of the scenario's own agents, which
        may outnumber n_agents, and allocates nothing to do so."""
        cfg = PipelineConfig(height=2048, width=2048, channels=2)
        few, many = (PipelineConfig(n_agents=n).scenario(1, cfg.channel, 20) for n in (3, 300))
        assert cfg.check_scenario(few) is few

        def reject():
            with pytest.raises(ConfigError, match=r"^H=2048, W=2048, C=2, n_agents=300 \(the "
                                                  r"integrator's agent stack\) needs 18\.8 GiB"):
                cfg.check_scenario(many)
        assert traced_peak_mib(reject) < 1.0

    @pytest.mark.parametrize("patch", GOOD_PATCHES)
    def test_largest_tick_array_is_allocated(self, traced_peak_mib, patch):
        """One evaluation tick's traced peak holds the estimated array and
        is within a few times of it, whichever term is the largest."""
        cfg = replace(tiny_config(), **patch)
        count, _ = cfg.largest_tick_array()
        scen = make_scenario(3, cfg.channel, cfg.warmup_ticks_for() + 1,
                             n_agents=cfg.n_agents, n_objects=cfg.n_objects, bounds=9.0,
                             fov_ego=8.0, fov_collab=9.0)
        pipe = Pipeline(cfg)
        with no_grad():
            peak = traced_peak_mib(lambda: simulate(pipe, scen, lambda t: t == scen.ticks - 1))
        assert 1.0 <= peak * 2**20 / (8 * count) < 10.0


class TestStages:
    def test_disabled_stages_are_bitwise_identity(self):
        cfg = tiny_config(stsync=False, wtden=False, adpsel=False)
        pipe = Pipeline(cfg)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 16, 16)))
        assert pipe.sync_stage([lambda: x], x) is x
        assert pipe.denoise_stage(x) is x
        assert pipe.select_stage(x) is x

    def test_seed_isolation_for_disabled_module(self):
        cfg = tiny_config(wtden=False)
        pipe_a = Pipeline(cfg)
        pipe_b = Pipeline(cfg)
        # different parameters inside the disabled module must not matter
        for name, p in pipe_b.denoiser.parameters().items():
            p.data = p.data + 1.37
        rec_a = evaluate(pipe_a, config_id="a")
        rec_b = evaluate(pipe_b, config_id="b")
        assert rec_a.occupancy_iou == rec_b.occupancy_iou
        assert rec_a.mse_to_clean == rec_b.mse_to_clean

    def test_parameter_names_unique_and_serializable(self, tmp_path):
        pipe = Pipeline(tiny_config())
        params = pipe.parameters()
        assert len(params) == len({p.name for p in params.values()})
        pipe.save(tmp_path / "p.catp")
        pipe2 = Pipeline(tiny_config())
        for p in pipe2.parameters().values():
            p.data = p.data + 0.5
        pipe2.load(tmp_path / "p.catp")
        for name, p in params.items():
            assert np.array_equal(pipe2.parameters()[name].data, p.data)


class TestRunPipeline:
    def test_lossless_passthrough_gives_perfect_iou(self):
        # single agent, instant channel, no noise, all modules off, pinned
        # integration identity and copy decoder: decoded occupancy equals the
        # ground truth wherever the scene is fully inside the ego view
        cfg = tiny_config(stsync=False, wtden=False, adpsel=False, n_agents=1,
                          fov_ego_m=100.0, channel=ChannelConfig(0, 0.0, 0.0, 0.0))
        pipe = Pipeline(cfg)
        pin_passthrough(pipe)
        rec = evaluate(pipe, config_id="pinned")
        assert rec.occupancy_iou == 1.0

    def test_total_drop_equals_ego_only(self):
        cfg_drop = tiny_config(stsync=False, wtden=False, adpsel=False,
                               channel=ChannelConfig(2, 1.0, 0.1, 0.02))
        cfg_solo = replace(cfg_drop, n_agents=1)
        rec_drop = evaluate(Pipeline(cfg_drop), config_id="drop")
        rec_solo = evaluate(Pipeline(cfg_solo), config_id="solo")
        # the decoded-occupancy metric matches the no-fusion run exactly; the
        # clean-feature MSE intentionally does not (its reference is what a
        # perfect channel would have delivered, which includes collaborators)
        assert rec_drop.occupancy_iou == rec_solo.occupancy_iou
        assert rec_drop.mse_to_clean > rec_solo.mse_to_clean

    def test_fixed_seed_bit_identical(self):
        cfg = tiny_config()
        a = evaluate(Pipeline(cfg))
        b = evaluate(Pipeline(cfg))
        assert a.occupancy_iou == b.occupancy_iou
        assert a.mse_to_clean == b.mse_to_clean

    def test_invalid_config_rejected_before_simulation(self):
        with pytest.raises(ConfigError):
            replace(tiny_config(), retention=2.0)

    def test_metric_record_fields(self):
        rec = evaluate(Pipeline(tiny_config()))
        assert isinstance(rec, MetricRecord)
        assert 0.0 <= rec.occupancy_iou <= 1.0
        assert rec.mse_to_clean >= 0.0


class TestSimulate:
    def test_step_outputs_at_requested_ticks(self):
        cfg = tiny_config()
        pipe = Pipeline(cfg)
        scen = make_scenario(3, cfg.channel, ticks=6, n_agents=cfg.n_agents,
                             n_objects=cfg.n_objects, bounds=cfg.bounds_m,
                             fov_ego=cfg.fov_ego_m, fov_collab=cfg.fov_collab_m)
        outs = simulate(pipe, scen, measure=lambda t: t >= 4)
        assert [o.tick for o in outs] == [4, 5]
        for o in outs:
            assert o.logits.data.shape == (1, 16, 16)
            assert o.gt_occupancy.shape == (16, 16)
            assert o.clean_reference.shape == (4, 16, 16)

    def test_trace_rows_cover_all_emissions(self):
        cfg = tiny_config()
        pipe = Pipeline(cfg)
        scen = make_scenario(4, replace(cfg.channel, drop_p=0.5), ticks=5, n_agents=3,
                             n_objects=cfg.n_objects, bounds=cfg.bounds_m,
                             fov_ego=cfg.fov_ego_m, fov_collab=cfg.fov_collab_m)
        rows = []
        simulate(pipe, scen, measure=lambda t: False, trace_rows=rows)
        assert len(rows) == 5 * 2          # 2 collaborators, 5 ticks
        for tick, sender, emit, arrive, dropped in rows:
            assert emit == tick
            assert dropped in (0, 1)
            assert (arrive == -1) == (dropped == 1)
        assert any(dropped for *_, dropped in rows)

    def test_python_scenario_evaluates_as_its_document(self):
        """A Scenario built in Python draws its drops, latencies and pose noise
        from its own seed, as the document it writes does."""
        cfg = tiny_config()
        drawn = cfg.scenario(5, cfg.channel, ticks=8)
        built = Scenario(seed=5, ticks=8, agents=drawn.agents, scene=drawn.scene,
                         channel=ChannelConfig(1, 0.3, 0.1, 0.02))
        back = Scenario.from_json(built.to_json())
        pipe = Pipeline(cfg)
        rows_built, rows_back = [], []
        assert (evaluate(pipe, scenario=built, trace_rows=rows_built)
                == evaluate(pipe, scenario=back, trace_rows=rows_back))
        assert rows_built == rows_back


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each process pool the caller starts while the test runs."""
    started = []
    original = futures_process.ProcessPoolExecutor.__init__

    def spy(self, max_workers=None, *args, **kwargs):
        started.append(max_workers)
        original(self, max_workers, *args, **kwargs)
    monkeypatch.setattr(futures_process.ProcessPoolExecutor, "__init__", spy)
    return started


def ablation_variants(cfg):
    return [(label, replace(cfg, stsync=st, wtden=wt, adpsel=ad))
            for label, st, wt, ad in ABLATION_COMBOS]


def evaluate_in_worker(cfg):
    """An ``evaluate`` with its trace rows, for a pool worker to run."""
    rows = []
    return evaluate(Pipeline(cfg), trace_rows=rows), rows


class TestParallelEvaluate:
    """``evaluate`` runs its scenarios on forked workers, one per usable core."""

    @staticmethod
    def use_cores(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @pytest.mark.parametrize("drop_p", [0.0, 0.4])
    def test_matches_serial_bitwise(self, monkeypatch, pools, drop_p):
        cfg = tiny_config(eval_scenarios=3)
        pipe = Pipeline(cfg)
        channel = replace(cfg.channel, drop_p=drop_p)
        results = []
        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            rows = []
            results.append((evaluate(pipe, channel=channel, trace_rows=rows), rows))
        assert pools == [2]
        assert results[0] == results[1]
        assert len(results[0][1]) == 3 * 5 * 2     # scenarios x ticks x collaborators
        assert any(dropped for *_, dropped in results[0][1]) == (drop_p > 0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error", [ValueError("scenario 1 failed"),
                                       MemoryError("scenario 1 ran out")])
    def test_worker_error_surfaces_unchanged(self, monkeypatch, pools, error):
        cfg = tiny_config(eval_scenarios=3)
        pipe = Pipeline(cfg)
        failing = pipeline_module.eval_scenario_seed(cfg, 1)
        original = pipeline_module.simulate

        def simulate_failing(pipe, scenario, *args, **kwargs):
            if scenario.seed == failing:
                raise error
            return original(pipe, scenario, *args, **kwargs)
        monkeypatch.setattr(pipeline_module, "simulate", simulate_failing)
        raised = []
        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            with pytest.raises(type(error)) as info:
                evaluate(pipe)
            raised.append((type(info.value), str(info.value)))
        assert pools == [2]
        assert raised == [(type(error), str(error))] * 2
        assert multiprocessing.active_children() == []

    @classmethod
    def kill_second_scenario(cls, monkeypatch, cfg):
        """On two cores, the worker that simulates cfg's second evaluation
        scenario kills itself with SIGKILL, as the out-of-memory killer would."""
        victim = pipeline_module.eval_scenario_seed(cfg, 1)
        caller = os.getpid()
        original = pipeline_module.simulate

        def simulate_killed(pipe, scenario, *args, **kwargs):
            if scenario.seed == victim:
                assert os.getpid() != caller, "the scenario ran in the caller's process"
                os.kill(os.getpid(), signal.SIGKILL)
            return original(pipe, scenario, *args, **kwargs)
        monkeypatch.setattr(pipeline_module, "simulate", simulate_killed)
        cls.use_cores(monkeypatch, 2)

    def test_killed_worker_raises(self, monkeypatch, pools):
        """A worker that dies mid-scenario fails the call; a
        ``multiprocessing.Pool`` would wait for it forever."""
        cfg = tiny_config(eval_scenarios=3)
        self.kill_second_scenario(monkeypatch, cfg)
        with pytest.raises(futures_process.BrokenProcessPool):
            evaluate(Pipeline(cfg))
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_killed_worker_exits_2_in_one_line(self, monkeypatch, pools, tmp_path, capsys):
        cfg = tiny_config(eval_scenarios=3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        self.kill_second_scenario(monkeypatch, cfg)
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith("worker died: "), err
        assert pools == [2]
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_workers_exit_when_their_caller_is_killed(self):
        """A caller killed by SIGKILL shuts no pool down; its workers, which
        hold its stdout, exit on their own and so close it. The caller is
        killed only once both workers have reported their pids."""
        script = ("import os, time\n"
                  "from coopfuse.pipeline import fork_map\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "def report(item):\n"
                  "    os.write(1, b'%d\\n' % os.getpid())\n"    # PYTHONUNBUFFERED splits a print
                  "    time.sleep(600)\n"
                  "fork_map(report, [0, 1])\n")
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        workers = []
        try:
            workers = [int(proc.stdout.readline()) for _ in range(2)]
            os.kill(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=20)          # the pipe closes once every worker has exited
        except BaseException:
            proc.kill()
            for pid in workers:
                os.kill(pid, signal.SIGKILL)
            raise
        assert proc.returncode == -signal.SIGKILL
        assert len(set(workers)) == 2 and proc.pid not in workers

    def test_cli_import_loads_no_pool_modules(self):
        # the exit-2 mapping of a killed worker must not import the pool
        probe = ("import sys, coopfuse.cli; print(sorted(m for m in sys.modules "
                 "if m.startswith(('concurrent.futures', 'multiprocessing'))))")
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_one_scenario_or_one_core_starts_no_pool(self, monkeypatch, pools):
        cfg = tiny_config()
        pipe = Pipeline(cfg)
        self.use_cores(monkeypatch, 2)
        evaluate(Pipeline(tiny_config(eval_scenarios=1)))
        scen = make_scenario(3, cfg.channel, ticks=6, n_agents=cfg.n_agents,
                             n_objects=cfg.n_objects, bounds=cfg.bounds_m,
                             fov_ego=cfg.fov_ego_m, fov_collab=cfg.fov_collab_m)
        evaluate(pipe, scenario=scen)
        self.use_cores(monkeypatch, 1)
        evaluate(pipe)
        assert pools == []

    def test_calls_inside_an_evaluate_worker_start_no_process(self, monkeypatch, tmp_path,
                                                              pools):
        """An ``evaluate`` or a ``train`` inside an ``evaluate`` worker, and the
        ``evaluate`` each ``variant_sweep`` worker runs after its training,
        fork nothing: every fork is made by the caller, two per pool. The
        pool's workers are not daemonic on Python 3.11, so a daemon check let
        such an evaluate fork a pool of its own."""
        cfg, inner = tiny_config(), tiny_config()
        log, fork = tmp_path / "forks", os.fork

        def logged_fork():                  # a worker's fork would log its own pid
            with open(log, "a") as f:
                print(os.getpid(), file=f)
            return fork()
        monkeypatch.setattr(os, "fork", logged_fork)
        original = pipeline_module._scenario_result

        def nested(pipe, scen):
            if pipe.cfg is cfg:
                evaluate(Pipeline(inner))
                train(inner)
            return original(pipe, scen)
        monkeypatch.setattr(pipeline_module, "_scenario_result", nested)
        self.use_cores(monkeypatch, 2)
        evaluate(Pipeline(cfg))
        variant_sweep(ablation_variants(inner)[:3])
        assert pools == [2, 2]
        assert log.read_text().split() == [str(os.getpid())] * 4

    def test_call_inside_a_pool_worker_stays_serial(self, monkeypatch):
        """A ``multiprocessing.Pool`` worker is a daemon, which may not start
        processes of its own."""
        cfg = tiny_config()
        self.use_cores(monkeypatch, 2)       # the worker inherits two cores
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            inner = pool.apply(evaluate_in_worker, (cfg,))
        finally:
            pool.terminate()
            pool.join()
        self.use_cores(monkeypatch, 1)
        assert inner == evaluate_in_worker(cfg)


class TestForkMap:
    """``fork_map`` returns what a serial loop would, in item order, from one
    pool of one forked worker per usable core."""

    use_cores = staticmethod(TestParallelEvaluate.use_cores)

    def test_two_cores_match_serial_bitwise_and_in_order(self, monkeypatch, pools):
        caller = os.getpid()

        def draw(seed):     # a closure: fn reaches the workers through the fork
            return os.getpid() != caller, np.random.default_rng(seed).standard_normal(5).tobytes()
        runs = []
        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            runs.append(fork_map(draw, range(6)))
        assert pools == [2]
        assert [x for _, x in runs[0]] == [x for _, x in runs[1]]
        assert [forked for forked, _ in runs[0]] == [False] * 6
        assert all(forked for forked, _ in runs[1])

    def test_variant_sweep_on_two_cores_matches_one_core(self, monkeypatch, pools):
        variants = ablation_variants(tiny_config())
        runs = []
        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            runs.append(variant_sweep(variants))
        assert pools == [2]
        assert runs[0] == runs[1]

    def test_workers_start_with_sigint_blocked(self, monkeypatch, pools):
        """A worker forks with SIGINT blocked, so no Ctrl-C reaches it before
        ``_start_worker`` ignores SIGINT; its tasks run with SIGINT unblocked.
        The caller's own mask comes back as it was, after a return or a raise,
        a SIGINT it had blocked itself included."""
        started = []
        original = pipeline_module._start_worker

        def start_worker():
            started.append(signal.pthread_sigmask(signal.SIG_BLOCK, set()))
            original()
        monkeypatch.setattr(pipeline_module, "_start_worker", start_worker)

        def masks(item):        # the worker's mask at its start and in this task
            return started[0], signal.pthread_sigmask(signal.SIG_BLOCK, set())

        def fail(item):
            raise ValueError("item failed")
        self.use_cores(monkeypatch, 2)
        caller = signal.pthread_sigmask(signal.SIG_BLOCK, set())
        assert signal.SIGINT not in caller
        for at_start, in_task in fork_map(masks, range(4)):
            assert signal.SIGINT in at_start
            assert signal.SIGINT not in in_task
        assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == caller
        with pytest.raises(ValueError, match="item failed"):
            fork_map(fail, range(2))
        assert signal.pthread_sigmask(signal.SIG_BLOCK, set()) == caller
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            fork_map(masks, range(2))
            assert signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, set())
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, caller)
        assert pools == [2, 2, 2]
        assert multiprocessing.active_children() == []

    def test_variant_sweep_hands_out_costliest_first(self, monkeypatch):
        """``variant_sweep`` maps the variants with the most stages on first,
        stably, and returns records and rows in the order given."""
        ran = []

        def evaluate(cfg, config_id):       # the train below hands on its config
            ran.append(config_id)
            return MetricRecord(config_id, 0.0, 0.0, cfg.channel, cfg.retention)
        monkeypatch.setattr(sweeps_module, "train",
                            lambda cfg: training_module.TrainResult(cfg, []))
        monkeypatch.setattr(sweeps_module, "evaluate", evaluate)
        self.use_cores(monkeypatch, 1)
        variants = ablation_variants(tiny_config())
        records, rows = variant_sweep(variants)
        assert ran == ["full", "+stsync+wtden", "+stsync+adpsel",
                       "+stsync", "+wtden", "+adpsel", "baseline"]
        labels = [label for label, _ in variants]
        assert [rec.config_id for rec in records] == labels
        assert [row["config_id"] for row in rows] == labels

    def test_diverging_variant_exits_3_in_one_line(self, tmp_path):
        """``ablate`` on two usable cores whose +wtden variant diverges in a
        worker: the ``DivergenceError`` reaches the caller, which exits 3."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config().to_json()))
        script = ("import os, sys\n"
                  "from dataclasses import replace\n"
                  "from coopfuse import cli, sweeps\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "caller, original = os.getpid(), sweeps.train\n"
                  "def train(cfg):\n"
                  "    assert os.getpid() != caller, 'the variant trained in the caller'\n"
                  "    if cfg.wtden and not (cfg.stsync or cfg.adpsel):\n"
                  "        cfg = replace(cfg, training=replace(cfg.training, steps=30,\n"
                  "                                            learning_rate=1e14))\n"
                  "    return original(cfg)\n"
                  "sweeps.train = train\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        out = tmp_path / "out"
        r = subprocess.run([sys.executable, "-c", script, "ablate", "--config", str(cfg_path),
                            "--out", str(out)], capture_output=True, text=True, timeout=300,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert r.returncode == 3, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert r.stderr.startswith("divergence: loss diverged at step "), r.stderr
        assert not (out / "metrics.csv").exists()


class TestOneProcessTraining:
    """``train`` runs in one process, whatever the number of usable cores."""

    use_cores = staticmethod(TestParallelEvaluate.use_cores)

    @staticmethod
    def trained(cfg):
        result = train(cfg)
        return ({name: p.data.tobytes() for name, p in result.pipeline.parameters().items()},
                result.loss_curve)

    @pytest.mark.parametrize("stages,batch_scenes", [
        pytest.param((True, True, True), 1, id="full"),
        pytest.param((False, False, False), 1, id="baseline"),
        pytest.param((False, True, False), 1, id="wtden"),
        pytest.param((True, True, True), 2, id="full-batch2")])
    def test_two_cores_fork_nothing_and_match_one_core(self, monkeypatch, stages,
                                                       batch_scenes):
        """4 desk steps on two usable cores start no process and give the
        parameter bytes and loss curve of one usable core."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        st, wt, ad = stages
        cfg = PipelineConfig(stsync=st, wtden=wt, adpsel=ad, seed=3,
                             training=TrainSpec(steps=4, batch_scenes=batch_scenes, seed=3))
        runs = []
        for cores in (1, 2):
            self.use_cores(monkeypatch, cores)
            runs.append(self.trained(cfg))
        assert forks == []
        assert runs[0] == runs[1]


class TestInterrupt:
    """A Ctrl-C while a pool runs ends the command with exit 130 and one
    line, and no worker outlives it."""

    use_cores = staticmethod(TestParallelEvaluate.use_cores)

    @staticmethod
    def run_interrupted(tmp_path, capsys, command, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        code = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 130, err
        assert err == "interrupted\n", err
        assert not (tmp_path / "out" / "metrics.csv").exists()
        assert multiprocessing.active_children() == []

    def test_training_step(self, monkeypatch, tmp_path, capsys):
        calls = []
        original = training_module.bce_with_logits

        def interrupt(*args):
            calls.append(1)
            if len(calls) == 2:         # the second step
                raise KeyboardInterrupt
            return original(*args)
        monkeypatch.setattr(training_module, "bce_with_logits", interrupt)
        self.use_cores(monkeypatch, 2)
        self.run_interrupted(tmp_path, capsys, "train", tiny_config())

    def test_evaluate_scenario(self, monkeypatch, tmp_path, capsys):
        """The worker checks that it ignores SIGINT, as every pool worker does,
        before it raises the interrupt its caller would have seen."""
        cfg = tiny_config(eval_scenarios=3)
        victim = pipeline_module.eval_scenario_seed(cfg, 1)
        caller = os.getpid()
        original = pipeline_module.simulate

        def interrupt(pipe, scenario, *args, **kwargs):
            if scenario.seed == victim:
                assert os.getpid() != caller, "the scenario ran in the caller's process"
                assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
                raise KeyboardInterrupt
            return original(pipe, scenario, *args, **kwargs)
        monkeypatch.setattr(pipeline_module, "simulate", interrupt)
        self.use_cores(monkeypatch, 2)
        self.run_interrupted(tmp_path, capsys, "run", cfg)

    @staticmethod
    def sigint_while_busy(tmp_path, command, module, busy, in_worker):
        """Runs `command` with two usable cores, where `module`.`busy` takes
        10 minutes in a worker (`in_worker`) or in the command's own process,
        and sends SIGINT to its process group, as a terminal's Ctrl-C does,
        once that call has started; returns the exit code and stderr."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(eval_scenarios=3).to_json()))
        script = ("import os, sys, time\n"
                  f"from coopfuse import cli, {module} as module\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  f"caller, original = os.getpid(), module.{busy}\n"
                  "def busy(*args, **kwargs):\n"
                  f"    if (os.getpid() != caller) == {in_worker}:\n"
                  "        print(flush=True)\n"
                  "        time.sleep(600)\n"
                  "    return original(*args, **kwargs)\n"
                  f"module.{busy} = busy\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, command, "--config", str(cfg_path),
             "--out", str(tmp_path / "out")], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        try:
            proc.stdout.readline()                    # the busy call has started
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=20)     # stdout closes once every process has exited
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        return proc.returncode, err

    @pytest.mark.parametrize("command,module,busy", [("run", "pipeline", "simulate"),
                                                     ("ablate", "training", "bce_with_logits")])
    def test_sigint_while_a_worker_is_busy(self, tmp_path, command, module, busy):
        """The command exits 130 in one line at once, its workers ended, not
        waited for."""
        code, err = self.sigint_while_busy(tmp_path, command, module, busy, in_worker=True)
        assert code == 130, err
        assert err == "interrupted\n", err

    def test_sigint_while_the_trainer_is_busy(self, tmp_path):
        """``train`` starts no worker; a SIGINT inside a step ends it with
        exit 130 in one line."""
        code, err = self.sigint_while_busy(tmp_path, "train", "training", "bce_with_logits",
                                           in_worker=False)
        assert code == 130, err
        assert err == "interrupted\n", err


def eager_once(fn, *args, **kwargs):
    """Calls ``fn`` when the thunk is made, so every view renders and every map
    integrates at its own tick: the reference for the lazy thunks."""
    value = fn(*args, **kwargs)
    return lambda: value


class TestLazyIntegration:
    @pytest.mark.parametrize("stages", [(True, True, True), (False, False, False),
                                        (True, False, False)])
    def test_matches_eager_integration_bitwise(self, stages, monkeypatch):
        st, wt, ad = stages

        def run():
            cfg = tiny_config(buffer_k=4, stsync=st, wtden=wt, adpsel=ad)
            pipe = train(cfg).pipeline
            scen = make_scenario(5, cfg.channel, ticks=8, n_agents=cfg.n_agents,
                                 n_objects=cfg.n_objects, bounds=cfg.bounds_m,
                                 fov_ego=cfg.fov_ego_m, fov_collab=cfg.fov_collab_m)
            outs = simulate(pipe, scen, measure=lambda t: t >= 5)
            return pipe.parameters(), outs

        lazy_params, lazy_outs = run()
        monkeypatch.setattr(pipeline_module, "once", eager_once)
        eager_params, eager_outs = run()
        for name, p in lazy_params.items():
            assert np.array_equal(p.data, eager_params[name].data), name
        assert len(lazy_outs) == len(eager_outs) == 3
        for a, b in zip(lazy_outs, eager_outs):
            assert np.array_equal(a.logits.data, b.logits.data)
            assert np.array_equal(a.denoised.data, b.denoised.data)

    def test_baseline_step_integrates_once_plus_clean_reference(self, monkeypatch):
        calls = {"simulate": 0, "clean_reference": 0}
        original = Integrator.__call__

        def counting(self, stack):
            # simulate integrates on the training tape; clean_reference under no_grad
            calls["simulate" if active_tape() is not None else "clean_reference"] += 1
            return original(self, stack)

        monkeypatch.setattr(Integrator, "__call__", counting)
        cfg = tiny_config(buffer_k=4, stsync=False, wtden=False, adpsel=False,
                          training=TrainSpec(steps=1))
        train(cfg)
        assert calls == {"simulate": 1, "clean_reference": 1}


class TestOccupancyIoU:
    def test_empty_union_is_one(self):
        assert occupancy_iou(np.full((4, 4), -1.0), np.zeros((4, 4))) == 1.0

    def test_disjoint_is_zero(self):
        logits = np.full((4, 4), -1.0)
        logits[0, 0] = 1.0
        gt = np.zeros((4, 4))
        gt[3, 3] = 1.0
        assert occupancy_iou(logits, gt) == 0.0

    def test_partial_overlap(self):
        logits = np.full((2, 2), -1.0)
        logits[0, :] = 1.0          # predicts two cells
        gt = np.zeros((2, 2))
        gt[:, 0] = 1.0              # truth is two cells, one shared
        assert occupancy_iou(logits, gt) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_logit_is_nan(self, bad):
        logits = np.full((4, 4), -1.0)
        logits[2, 1] = bad
        assert np.isnan(occupancy_iou(logits, np.zeros((4, 4))))


class TestTraining:
    def test_single_step_changes_parameters(self):
        cfg = tiny_config(training=TrainSpec(steps=1))
        before = {n: p.data.copy() for n, p in Pipeline(cfg).parameters().items()}
        result = train(cfg)
        after = result.pipeline.parameters()
        changed = sum(1 for n in before if not np.array_equal(before[n], after[n].data))
        assert changed > 0
        assert len(result.loss_curve) == 1

    def test_zero_learning_rate_keeps_parameters(self):
        cfg = tiny_config(training=TrainSpec(steps=2, learning_rate=0.0))
        before = {n: p.data.copy() for n, p in Pipeline(cfg).parameters().items()}
        result = train(cfg)
        for n, p in result.pipeline.parameters().items():
            assert np.array_equal(before[n], p.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_step_index(self):
        cfg = tiny_config(training=TrainSpec(steps=30, learning_rate=1e14))
        with pytest.raises(DivergenceError) as e:
            train(cfg)
        assert e.value.step >= 1

    def test_divergence_error_survives_pickle(self):
        """As it must to leave a ``fork_map`` worker."""
        error = pickle.loads(pickle.dumps(DivergenceError(3, math.nan)))
        assert type(error) is DivergenceError
        assert str(error) == "loss diverged at step 3: nan"
        assert error.step == 3 and math.isnan(error.value)

    def test_loss_curve_is_recorded(self):
        cfg = tiny_config(training=TrainSpec(steps=3))
        result = train(cfg)
        steps = [row[0] for row in result.loss_curve]
        assert steps == [0, 1, 2]
        assert all(np.isfinite(row[1]) for row in result.loss_curve)

    def test_every_parameter_moves(self):
        """Three desk steps with every stage on move every parameter tensor. A
        tensor that no gradient reaches (read outside the tape, or stuck at a
        zero fixed point such as two zero-initialised layers around a relu)
        fails here. Some move by only ~1e-14, so this checks "differs"."""
        cfg = PipelineConfig(training=TrainSpec(steps=3))
        before = {n: p.data.copy() for n, p in Pipeline(cfg).parameters().items()}
        after = train(cfg).pipeline.parameters()
        assert after.keys() == before.keys()
        still = [n for n, p in after.items() if np.array_equal(before[n], p.data)]
        assert still == []

    def test_training_deterministic(self):
        cfg = tiny_config(training=TrainSpec(steps=2))
        a = train(cfg).pipeline.parameters()
        b = train(cfg).pipeline.parameters()
        for n in a:
            assert np.array_equal(a[n].data, b[n].data)


class TestAdam:
    def test_moves_against_gradient(self):
        from coopfuse.tensor import Parameter
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([1.0, -1.0])
        opt.step()
        assert p.data[0] < 1.0 and p.data[1] > -2.0
        assert p.grad is None

    def test_in_place_update_is_bitwise_the_out_of_place_one(self):
        """Five steps on random gradients: each parameter keeps its array, its
        gradient is only read, and parameters and moments equal bitwise the
        update written out of place. "large" spans two whole update chunks
        and part of a third, so each chunk boundary falls inside it."""
        from coopfuse.tensor import Parameter
        b1, b2, eps, lr = Adam.BETA1, Adam.BETA2, Adam.EPS, 0.01
        rng = np.random.default_rng(21)
        shapes = {"kernel": (4, 3, 3, 3), "bias": (4, 1, 1), "scalar": (1,),
                  "large": (3, ADAM_CHUNK * 5 // 6 + 1)}
        params = {k: Parameter(rng.normal(size=s), k) for k, s in shapes.items()}
        buffers = {k: p.data for k, p in params.items()}
        want = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = Adam(params, lr=lr)
        for t in range(1, 6):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            for k, p in params.items():
                p.grad = grads[k].copy()
            seen = {k: p.grad for k, p in params.items()}
            opt.step()
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * g * g
                update = (m[k] / (1.0 - b1 ** t)) / (np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
                want[k] = want[k] - lr * update
                assert params[k].data is buffers[k]
                assert np.array_equal(seen[k], g)
                assert np.array_equal(params[k].data, want[k])
                assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k])

    def test_nothing_else_holds_a_parameter_array_at_the_update(self, monkeypatch):
        """Adam writes parameters in place, so when it runs no view, closure or
        saved array may still hold one: a consumed tape leaves each array one
        reference, its Parameter's (getrefcount counts its own argument too)."""
        counts, step = [], Adam.step

        def counting(opt):
            counts.extend(sys.getrefcount(p.data) for p in opt.params.values())
            step(opt)
        monkeypatch.setattr(Adam, "step", counting)
        train(PipelineConfig(training=TrainSpec(steps=2)))
        assert counts and set(counts) == {2}

    def test_pipeline_parameters_share_no_memory(self):
        """Adam writes each parameter's array in place, so no two may overlap."""
        params = list(Pipeline(PipelineConfig()).parameters().values())
        for i, p in enumerate(params):
            for q in params[i + 1:]:
                assert not np.may_share_memory(p.data, q.data), (p.name, q.name)

    def test_skips_parameters_without_grad(self):
        from coopfuse.tensor import Parameter
        p = Parameter(np.zeros(3), "p")
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.zeros(3))


class TestMemoryBudget:
    def test_desk_training_step(self, traced_peak_mib, monkeypatch):
        """One desk training step with every stage on peaks below 10.8 MiB of
        traced allocations: it peaks at about 10.0 MiB, and the bound leaves
        about 0.8 MiB of margin. It runs on one usable core, so that the whole
        step, both halves of the scan included, runs in the traced process. It
        peaked at 44.0 MiB while the scan kept whole
        L x P x C x N states and the tape held every record until the step
        ended, at 25.6 MiB while conv2d records kept their patch matrices or
        padded inputs and bilinear_sample records their gathered corners, at
        15.8 MiB while the scan record kept its whole-sequence projections,
        stsync's two convs read concat records and bilinear_sample records
        kept their corner plans, and at 11.8 MiB while tape records held
        their output tensors and Adam made whole-parameter temporaries."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = PipelineConfig(training=TrainSpec(steps=1))
        pipe = Pipeline(cfg)
        assert traced_peak_mib(lambda: train(cfg, pipe)) < 10.8


class TestRenderBudget:
    @staticmethod
    def renders_per_step(monkeypatch, **stages) -> tuple[int, int]:
        """The ``render_bev`` calls of one training step of the desk config,
        and that step's bound."""
        calls = []
        original = pipeline_module.render_bev

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(pipeline_module, "render_bev", counting)
        cfg = PipelineConfig(training=TrainSpec(steps=1), **stages)
        train(cfg)
        k, n = cfg.buffer_k, cfg.n_agents
        # with stsync on, the rollout reads K-1 maps: each renders the ego
        # view and at most n-1 packet views; the measured tick then renders
        # the n current views (anchor, clean reference) and the ground truth
        bound = k + (k - 1) * (n - 1) + n if cfg.stsync else 2 * n
        return len(calls), bound

    def test_desk_training_step(self, monkeypatch):
        """Every stage on: at most 13 renders; rendering every agent at
        every tick makes 25."""
        renders, bound = self.renders_per_step(monkeypatch)
        assert bound == 13 and renders <= bound

    def test_desk_baseline_step(self, monkeypatch):
        """Every stage off: the newest map renders the ego view and at most
        n-1 packet views, the clean reference the n-1 current collaborator
        views, and the ground truth one more: at most 6 renders of 25."""
        renders, bound = self.renders_per_step(monkeypatch, stsync=False, wtden=False,
                                               adpsel=False)
        assert bound == 6 and renders <= bound


class TestRecordBudget:
    @staticmethod
    def records_per_step(monkeypatch, **stages):
        """The tape length of one training step of the desk config."""
        lengths = []

        class CountingTape(Tape):
            def backward(self, root):
                lengths.append(len(self))
                super().backward(root)
        monkeypatch.setattr(training_module, "Tape", CountingTape)
        train(PipelineConfig(training=TrainSpec(steps=1), **stages))
        assert len(lengths) == 1, lengths
        return lengths[0]

    def test_desk_training_step(self, monkeypatch):
        """One training step with every stage on stays within 148 tape records.
        A bias added in its own record after each conv2d and perceptron
        matmul makes 220; the stsync gate's zero-initialised channel
        perceptron, which no step could move, added 7 records per gate call,
        21 in all, for 184; the gate's (1 - alpha) * hidden + alpha * warped
        as four elementwise records, not one ``blend``, 9 more for 163; and a
        concat record before each of stsync's offset and gate convs, which
        now take their two inputs as channel blocks, 6 more for 154."""
        assert self.records_per_step(monkeypatch) <= 148

    def test_desk_baseline_step(self, monkeypatch):
        """With every stage off, the integrator's and the decoder's conv each
        take their bias in one record: at most 9 records, 11 with separate adds."""
        assert self.records_per_step(monkeypatch, stsync=False, wtden=False,
                                     adpsel=False) <= 9
