"""Pipeline assembly: config validation, stage toggles, end-to-end runs."""

import json
from dataclasses import replace

import numpy as np
import pytest

from coopfuse import pipeline as pipeline_module
from coopfuse.pipeline import (ConfigError, MetricRecord, Pipeline,
                               PipelineConfig, TrainSpec, clean_reference, config_label,
                               evaluate, occupancy_iou, run_pipeline, simulate)
from coopfuse.sync import FeatureBuffer, Integrator
from coopfuse.tensor import Tensor, active_tape
from coopfuse.training import Adam, DivergenceError, train
from coopfuse.world import ChannelConfig, make_scenario


def small_config(**kw):
    cfg = PipelineConfig(height=16, width=16, channels=4, buffer_k=2,
                         scales=(4,), ssm_state_dim=4, eval_scenarios=2,
                         eval_measure_ticks=2, n_objects=4)
    cfg.channel = ChannelConfig(max_latency_ticks=1, drop_p=0.0,
                                loc_sigma=0.1, head_sigma=0.02)
    cfg.training = replace(cfg.training, steps=2)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


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


class TestConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    @pytest.mark.parametrize("patch", [
        {"height": 30}, {"scales": (5,)}, {"retention": 0.0},
        {"retention": 1.5}, {"buffer_k": 0}, {"n_agents": 0}, {"channels": 0},
    ])
    def test_bad_configs_rejected(self, patch):
        cfg = PipelineConfig()
        for k, v in patch.items():
            setattr(cfg, k, v)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_training_steps_rejected(self):
        cfg = PipelineConfig()
        cfg.training = replace(cfg.training, steps=0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_json_roundtrip(self):
        cfg = small_config(retention=0.4, stsync=False)
        back = PipelineConfig.from_json(cfg.to_json())
        assert back.to_json() == cfg.to_json()

    def test_default_json_roundtrip(self):
        doc = PipelineConfig().to_json()
        assert PipelineConfig.from_json(doc).to_json() == doc

    @pytest.mark.parametrize("doc,key", [
        ({"L_tick": 2}, "L_tick"), ({"channel": {"L_tick": 2}}, "L_tick"),
        ({"training": {"step": 3}}, "step"), ({"H": 32, "stages": True}, "stages"),
        ({"seed": 1, "channel": {"seed": 2, "sigma": 0.1}}, "sigma"),
    ])
    def test_unknown_keys_rejected(self, doc, key):
        with pytest.raises(ConfigError, match=repr(key)):
            PipelineConfig.from_json(doc)

    def test_channel_seed_accepted(self):
        assert PipelineConfig.from_json({"channel": {"seed": 5}}).channel.seed == 5

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({"H": "not-a-number"})

    def test_omitted_channel_keys_keep_defaults(self):
        cfg = PipelineConfig.from_json({"channel": {"L_ticks": 2}})
        default = PipelineConfig().channel
        assert cfg.channel == replace(default, max_latency_ticks=2)
        assert cfg.channel.loc_sigma == 0.2

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
        assert config_label(small_config(stsync=False, wtden=False,
                                         adpsel=False)) == "baseline"
        assert config_label(small_config(wtden=False, adpsel=False)) == "stsync"


class TestStages:
    def test_disabled_stages_are_bitwise_identity(self):
        cfg = small_config(stsync=False, wtden=False, adpsel=False)
        pipe = Pipeline(cfg)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 16, 16)))
        buf = FeatureBuffer(2)
        buf.push(x, 0)
        assert pipe.sync_stage(buf, x) is x
        assert pipe.denoise_stage(x) is x
        assert pipe.select_stage(x) is x

    def test_seed_isolation_for_disabled_module(self):
        cfg = small_config(wtden=False)
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
        pipe = Pipeline(small_config())
        params = pipe.parameters()
        assert len(params) == len({p.name for p in params.values()})
        pipe.save(tmp_path / "p.catp")
        pipe2 = Pipeline(small_config())
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
        cfg = small_config(stsync=False, wtden=False, adpsel=False, n_agents=1,
                           fov_ego_m=100.0)
        cfg.channel = ChannelConfig(0, 0.0, 0.0, 0.0)
        pipe = Pipeline(cfg)
        pin_passthrough(pipe)
        rec = evaluate(pipe, config_id="pinned")
        assert rec.occupancy_iou == 1.0

    def test_total_drop_equals_ego_only(self):
        cfg_drop = small_config(stsync=False, wtden=False, adpsel=False)
        cfg_drop.channel = ChannelConfig(2, 1.0, 0.1, 0.02)
        cfg_solo = small_config(stsync=False, wtden=False, adpsel=False,
                                n_agents=1)
        cfg_solo.channel = ChannelConfig(2, 1.0, 0.1, 0.02)
        rec_drop = evaluate(Pipeline(cfg_drop), config_id="drop")
        rec_solo = evaluate(Pipeline(cfg_solo), config_id="solo")
        # the decoded-occupancy metric matches the no-fusion run exactly; the
        # clean-feature MSE intentionally does not (its reference is what a
        # perfect channel would have delivered, which includes collaborators)
        assert rec_drop.occupancy_iou == rec_solo.occupancy_iou
        assert rec_drop.mse_to_clean > rec_solo.mse_to_clean

    def test_fixed_seed_bit_identical(self):
        cfg = small_config()
        a = run_pipeline(cfg)
        b = run_pipeline(cfg)
        assert a.occupancy_iou == b.occupancy_iou
        assert a.mse_to_clean == b.mse_to_clean

    def test_invalid_config_rejected_before_simulation(self):
        cfg = small_config()
        cfg.retention = 2.0
        with pytest.raises(ConfigError):
            run_pipeline(cfg)

    def test_metric_record_fields(self):
        rec = run_pipeline(small_config())
        assert isinstance(rec, MetricRecord)
        assert 0.0 <= rec.occupancy_iou <= 1.0
        assert rec.mse_to_clean >= 0.0


class TestSimulate:
    def test_step_outputs_at_requested_ticks(self):
        cfg = small_config()
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
        cfg = small_config()
        pipe = Pipeline(cfg)
        scen = make_scenario(4, cfg.channel, ticks=5, n_agents=3,
                             n_objects=cfg.n_objects, bounds=cfg.bounds_m,
                             fov_ego=cfg.fov_ego_m, fov_collab=cfg.fov_collab_m)
        rows = []
        simulate(pipe, scen, measure=lambda t: False, trace_rows=rows)
        assert len(rows) == 5 * 2          # 2 collaborators, 5 ticks
        for tick, sender, emit, arrive, dropped in rows:
            assert emit == tick
            assert dropped in (0, 1)
            assert (arrive == -1) == (dropped == 1)


class EagerBuffer(FeatureBuffer):
    """Integrates every tick when it is pushed: the reference for lazy entries."""

    def push(self, feature, tick):
        super().push(feature() if callable(feature) else feature, tick)


class TestLazyIntegration:
    @pytest.mark.parametrize("stages", [(True, True, True), (False, False, False),
                                        (True, False, False)])
    def test_matches_eager_integration_bitwise(self, stages, monkeypatch):
        st, wt, ad = stages

        def run():
            cfg = small_config(buffer_k=4, stsync=st, wtden=wt, adpsel=ad)
            pipe = train(cfg).pipeline
            scen = make_scenario(5, cfg.channel, ticks=8, n_agents=cfg.n_agents,
                                 n_objects=cfg.n_objects, bounds=cfg.bounds_m,
                                 fov_ego=cfg.fov_ego_m, fov_collab=cfg.fov_collab_m)
            outs = simulate(pipe, scen, measure=lambda t: t >= 5)
            return pipe.parameters(), outs

        lazy_params, lazy_outs = run()
        monkeypatch.setattr(pipeline_module, "FeatureBuffer", EagerBuffer)
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
        cfg = small_config(buffer_k=4, stsync=False, wtden=False, adpsel=False)
        cfg.training = replace(cfg.training, steps=1)
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


class TestTraining:
    def test_single_step_changes_parameters(self):
        cfg = small_config()
        cfg.training = replace(cfg.training, steps=1)
        before = {n: p.data.copy() for n, p in Pipeline(cfg).parameters().items()}
        result = train(cfg)
        after = result.pipeline.parameters()
        changed = sum(1 for n in before if not np.array_equal(before[n], after[n].data))
        assert changed > 0
        assert len(result.loss_curve) == 1

    def test_zero_learning_rate_keeps_parameters(self):
        cfg = small_config()
        cfg.training = replace(cfg.training, steps=2, learning_rate=0.0)
        before = {n: p.data.copy() for n, p in Pipeline(cfg).parameters().items()}
        result = train(cfg)
        for n, p in result.pipeline.parameters().items():
            assert np.array_equal(before[n], p.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_step_index(self):
        cfg = small_config()
        cfg.training = replace(cfg.training, steps=30, learning_rate=1e14)
        with pytest.raises(DivergenceError) as e:
            train(cfg)
        assert e.value.step >= 1

    def test_loss_curve_is_recorded(self):
        cfg = small_config()
        cfg.training = replace(cfg.training, steps=3)
        result = train(cfg)
        steps = [row[0] for row in result.loss_curve]
        assert steps == [0, 1, 2]
        assert all(np.isfinite(row[1]) for row in result.loss_curve)

    def test_training_deterministic(self):
        cfg = small_config()
        cfg.training = replace(cfg.training, steps=2)
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

    def test_skips_parameters_without_grad(self):
        from coopfuse.tensor import Parameter
        p = Parameter(np.zeros(3), "p")
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.zeros(3))
