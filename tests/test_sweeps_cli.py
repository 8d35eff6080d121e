"""Sweep drivers, CSV schemas, and the command-line interface."""

import csv
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coopfuse.pipeline import Pipeline, PipelineConfig, evaluate
from coopfuse.sweeps import (ABLATION_COMBOS, METRICS_COLUMNS, ablation_suite,
                             history_loss_sweep, latency_sweep, metric_row,
                             retention_sweep)
from coopfuse.training import train
from coopfuse.world import ChannelConfig

GOLDEN = Path(__file__).parent / "data" / "golden_metrics.csv"


def tiny_config(**kw):
    cfg = PipelineConfig(height=16, width=16, channels=4, buffer_k=2,
                         scales=(4,), ssm_state_dim=4, eval_scenarios=2,
                         eval_measure_ticks=2, n_objects=4)
    cfg.channel = ChannelConfig(max_latency_ticks=1, drop_p=0.0,
                                loc_sigma=0.1, head_sigma=0.02)
    cfg.training = replace(cfg.training, steps=2)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.validate()


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestAblationSuite:
    def test_seven_rows_with_expected_labels(self):
        records, rows = ablation_suite(tiny_config())
        assert len(records) == len(rows) == 7
        assert [r.config_id for r in records] == [c[0] for c in ABLATION_COMBOS]

    def test_baseline_row_matches_direct_run(self):
        cfg = tiny_config()
        records, _ = ablation_suite(cfg)
        base_cfg = tiny_config(stsync=False, wtden=False, adpsel=False)
        direct = evaluate(train(base_cfg).pipeline, config_id="baseline")
        assert records[0].occupancy_iou == direct.occupancy_iou
        assert records[0].mse_to_clean == direct.mse_to_clean


class TestLatencySweep:
    def test_one_row_per_latency(self):
        cfg = tiny_config()
        pipe = train(cfg).pipeline
        records, rows = latency_sweep(cfg, [0, 1, 3], pipe=pipe)
        assert len(rows) == 3
        assert [row["L_ticks"] for row in rows] == [0, 1, 3]

    def test_l0_matches_direct_no_latency_eval(self):
        cfg = tiny_config()
        pipe = train(cfg).pipeline
        records, _ = latency_sweep(cfg, [0], pipe=pipe)
        ch0 = replace(cfg.channel, max_latency_ticks=0)
        direct = evaluate(pipe, channel=ch0, config_id="direct")
        assert records[0].occupancy_iou == direct.occupancy_iou

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            latency_sweep(tiny_config(), [-1])


class TestRetentionSweep:
    def test_six_default_rows(self):
        cfg = tiny_config()
        records, rows = retention_sweep(cfg)
        assert len(rows) == 6
        assert [row["retention_k"] for row in rows] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

    def test_boundary_k_one_runs(self):
        cfg = tiny_config()
        records, _ = retention_sweep(cfg, [1.0])
        assert records[0].occupancy_iou >= 0.0

    def test_out_of_range_k_rejected(self):
        with pytest.raises(ValueError):
            retention_sweep(tiny_config(), [0.0])


class TestHistoryLossSweep:
    def test_rows_and_consistency_at_zero(self):
        cfg = tiny_config()
        pipe = train(cfg).pipeline
        records, rows = history_loss_sweep(cfg, [0.0, 0.5], pipe=pipe)
        assert len(rows) == 2
        direct = evaluate(pipe, channel=replace(cfg.channel, drop_p=0.0),
                          config_id="x")
        assert records[0].occupancy_iou == direct.occupancy_iou

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            history_loss_sweep(tiny_config(), [1.0])


def pinned_analytic_baseline(cfg):
    """No-compensation reference: stream-average integration, copy decoder."""
    pipe = Pipeline(cfg)
    c = cfg.channels
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
    return pipe


class TestTrendOracles:
    def test_latency_degrades_pinned_baseline_monotonically(self):
        cfg = PipelineConfig(stsync=False, wtden=False, adpsel=False, seed=0,
                             eval_scenarios=8)
        cfg.channel = ChannelConfig(3, 0.0, 0.0, 0.0)
        pipe = pinned_analytic_baseline(cfg)
        _, rows = latency_sweep(cfg, [0, 1, 2, 3, 4, 5], pipe=pipe)
        ious = [r["occupancy_iou"] for r in rows]
        assert all(ious[i + 1] <= ious[i] + 1e-9 for i in range(len(ious) - 1)), ious

    def test_packet_drop_degrades_pinned_baseline_monotonically(self):
        # fusion must be net-positive for dropping it to hurt: mild latency,
        # no pose noise
        cfg = PipelineConfig(stsync=False, wtden=False, adpsel=False, seed=0,
                             eval_scenarios=8)
        cfg.channel = ChannelConfig(1, 0.0, 0.0, 0.0)
        pipe = pinned_analytic_baseline(cfg)
        _, rows = history_loss_sweep(cfg, [0.0, 0.3, 0.6, 0.9], pipe=pipe)
        ious = [r["occupancy_iou"] for r in rows]
        assert all(ious[i + 1] <= ious[i] + 1e-9 for i in range(len(ious) - 1)), ious


class TestCsvSchema:
    def test_columns_are_stable(self):
        assert METRICS_COLUMNS == ("config_id", "L_ticks", "drop_p", "loc_sigma",
                                   "head_sigma", "retention_k", "occupancy_iou",
                                   "mse_to_clean")

    def test_golden_file_pinned_seed(self):
        cfg = tiny_config()
        rec = evaluate(Pipeline(cfg), config_id="golden")
        rows = [metric_row(rec, cfg.channel, cfg.retention)]
        got_header = list(METRICS_COLUMNS)
        golden_rows = read_csv(GOLDEN)
        assert golden_rows[0] == got_header
        assert len(golden_rows) == 2
        for col, want in zip(got_header, golden_rows[1]):
            have = rows[0][col]
            if isinstance(have, float):
                assert have == pytest.approx(float(want), abs=1e-9), col
            else:
                assert str(have) == want, col


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "coopfuse.cli", *args],
                              capture_output=True, text=True)

    def write_config(self, tmp_path, **kw):
        cfg = tiny_config(**kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json()))
        return path

    def test_run_writes_outputs(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "out"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert (out / "metrics.csv").exists()
        assert (out / "trace.csv").exists()
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == list(METRICS_COLUMNS)
        assert len(rows) == 2

    def test_run_is_byte_deterministic(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out),
                             "--seed", "7")
            assert r.returncode == 0, r.stderr
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_train_writes_params_and_curve(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "out"
        r = self.run_cli("train", "--config", str(cfg_path), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert (out / "params.catp").read_bytes()[:4] == b"CATP"
        curve = read_csv(out / "loss_curve.csv")
        assert curve[0] == ["step", "loss", "bce", "aux"]
        assert len(curve) == 3            # header + 2 steps
        assert (out / "metrics.csv").exists()

    def test_run_with_trained_params_and_scenario(self, tmp_path):
        from coopfuse.world import make_scenario, save_scenario
        cfg_path = self.write_config(tmp_path)
        out1 = tmp_path / "t"
        assert self.run_cli("train", "--config", str(cfg_path), "--out",
                            str(out1)).returncode == 0
        cfg = tiny_config()
        scen = make_scenario(11, cfg.channel, ticks=6, n_agents=3, n_objects=4)
        scen_path = tmp_path / "scenario.json"
        save_scenario(scen_path, scen)
        out2 = tmp_path / "r"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out2),
                         "--params", str(out1 / "params.catp"),
                         "--scenario", str(scen_path))
        assert r.returncode == 0, r.stderr

    def test_ablate_writes_seven_rows(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "out"
        r = self.run_cli("ablate", "--config", str(cfg_path), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert len(read_csv(out / "metrics.csv")) == 8

    def test_sweep_axes(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        for axis, n_rows in (("latency", 6), ("drop", 5)):
            out = tmp_path / axis
            r = self.run_cli("sweep", "--axis", axis, "--config", str(cfg_path),
                             "--out", str(out))
            assert r.returncode == 0, r.stderr
            assert len(read_csv(out / "metrics.csv")) == n_rows + 1

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"k": 5.0}))
        r = self.run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "config error" in r.stderr

    @pytest.mark.parametrize("doc", [
        {"training": {"batch_scenes": 0}}, {"eval_measure_ticks": 0},
        {"eval_scenarios": 0}, {"cell_size": 0.0}, {"wtden": "false"},
        {"L_tick": 2}, {"channel": {"L_tick": 2}}, {"training": {"step": 3}},
    ])
    def test_rejected_field_exit_code(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = self.run_cli("train", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error") and "Traceback" not in r.stderr

    def test_divergence_exit_code(self, tmp_path):
        cfg = tiny_config()
        cfg.training = replace(cfg.training, steps=30, learning_rate=1e14)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        r = self.run_cli("train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o"))
        assert r.returncode == 3
        assert "divergence" in r.stderr

    @pytest.mark.parametrize("keep", [8, 30])
    def test_truncated_params_exit_code(self, tmp_path, keep):
        cfg_path = self.write_config(tmp_path)
        params = tmp_path / "p.catp"
        Pipeline(tiny_config()).save(params)
        params.write_bytes(params.read_bytes()[:keep])
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                         "--params", str(params))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error") and len(r.stderr.splitlines()) == 1

    def test_nonfinite_metric_exit_code(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        pipe = Pipeline(tiny_config())
        pipe.integrator.bias.data[:] = np.nan
        params = tmp_path / "p.catp"
        pipe.save(params)
        out = tmp_path / "o"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out),
                         "--params", str(params))
        assert r.returncode == 3, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert r.stderr.startswith("divergence") and "mse_to_clean=nan" in r.stderr
        assert not (out / "metrics.csv").exists()
