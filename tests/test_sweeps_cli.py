"""Sweep drivers, CSV schemas, and the command-line interface."""

import csv
import io
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_under_address_limit, tiny_config
from coopfuse import cli
from coopfuse.pipeline import Pipeline, PipelineConfig, TrainSpec, evaluate
from coopfuse.serialize import save_params
from coopfuse.sweeps import (ABLATION_COMBOS, METRICS_COLUMNS, channel_sweep,
                             latency_sweep, metric_row, variant_sweep)
from coopfuse.tensor import Parameter
from coopfuse.training import train
from coopfuse.world import ChannelConfig, make_scenario, save_scenario

GOLDEN = Path(__file__).parent / "data" / "golden_metrics.csv"


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def ablation_variants(cfg):
    return [(label, replace(cfg, stsync=st, wtden=wt, adpsel=ad))
            for label, st, wt, ad in ABLATION_COMBOS]


def retention_variants(cfg, k_values):
    return [(f"k={k}", replace(cfg, retention=k)) for k in k_values]


def drop_points(cfg, rates):
    return [(f"drop={p}", replace(cfg.channel, drop_p=p)) for p in rates]


class TestAblationSuite:
    def test_seven_rows_with_expected_labels(self):
        records, rows = variant_sweep(ablation_variants(tiny_config()))
        assert len(records) == len(rows) == 7
        assert [r.config_id for r in records] == [c[0] for c in ABLATION_COMBOS]

    def test_baseline_row_matches_direct_run(self):
        cfg = tiny_config()
        records, _ = variant_sweep(ablation_variants(cfg))
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
        k_values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        records, rows = variant_sweep(retention_variants(cfg, k_values))
        assert len(rows) == 6
        assert [row["retention_k"] for row in rows] == k_values
        assert [r.config_id for r in records] == [f"k={k}" for k in k_values]

    def test_boundary_k_one_runs(self):
        cfg = tiny_config()
        records, _ = variant_sweep(retention_variants(cfg, [1.0]))
        assert records[0].occupancy_iou >= 0.0

    def test_out_of_range_k_rejected(self):
        with pytest.raises(ValueError):
            variant_sweep(retention_variants(tiny_config(), [0.0]))


class TestHistoryLossSweep:
    def test_rows_and_consistency_at_zero(self):
        cfg = tiny_config()
        pipe = train(cfg).pipeline
        records, rows = channel_sweep(cfg, drop_points(cfg, [0.0, 0.5]), pipe=pipe)
        assert len(rows) == 2
        direct = evaluate(pipe, channel=replace(cfg.channel, drop_p=0.0),
                          config_id="x")
        assert records[0].occupancy_iou == direct.occupancy_iou

    def test_rate_bounds(self):
        # ChannelConfig's table bounds drop_p to [0, 1]; 1.0 is a valid point
        for rate in (1.5, -0.1):
            with pytest.raises(ValueError):
                drop_points(tiny_config(), [rate])


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
                             eval_scenarios=8, channel=ChannelConfig(3, 0.0, 0.0, 0.0))
        pipe = pinned_analytic_baseline(cfg)
        _, rows = latency_sweep(cfg, [0, 1, 2, 3, 4, 5], pipe=pipe)
        ious = [r["occupancy_iou"] for r in rows]
        assert all(ious[i + 1] <= ious[i] + 1e-9 for i in range(len(ious) - 1)), ious

    def test_packet_drop_degrades_pinned_baseline_monotonically(self):
        # fusion must be net-positive for dropping it to hurt: mild latency,
        # no pose noise
        cfg = PipelineConfig(stsync=False, wtden=False, adpsel=False, seed=0,
                             eval_scenarios=8, channel=ChannelConfig(1, 0.0, 0.0, 0.0))
        pipe = pinned_analytic_baseline(cfg)
        _, rows = channel_sweep(cfg, drop_points(cfg, [0.0, 0.3, 0.6, 0.9]), pipe=pipe)
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
        rows = [metric_row(rec)]
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


# Edits to a valid scenario document (3 agents, 4 objects, 6 ticks under
# tiny_config's K=2 and L_ticks=1), each of which makes it invalid.
SCENARIO_DEFECTS = {
    "no_agents": lambda d: d.update(agents=[]),
    "integer_agent_id": lambda d: d["agents"][1].update(id=7),
    "non_object_agent": lambda d: d["agents"].__setitem__(1, "c1"),
    "duplicate_agent_ids": lambda d: d["agents"][2].update(id=d["agents"][1]["id"]),
    "nan_pose": lambda d: d["agents"][0]["pose"].update(x=float("nan")),
    "negative_fov": lambda d: d["agents"][1].update(fov_m=-1.0),
    "no_measured_tick": lambda d: d.update(ticks=3),
    "boolean_ticks": lambda d: d.update(ticks=True),
    "fractional_ticks": lambda d: d.update(ticks=12.7),
    "unknown_key": lambda d: d.update(speed=1.0),
    "infinite_velocity": lambda d: d["objects"][0].update(vx=float("inf")),
    "object_outside_arena": lambda d: d["objects"][0].update(x=d["bounds_m"] + 0.5),
    "object_outruns_arena": lambda d: d["objects"][0].update(vx=100.0),
}


class TestCli:
    def run_cli(self, *args, timeout=None):
        return subprocess.run([sys.executable, "-m", "coopfuse.cli", *args],
                              capture_output=True, text=True, timeout=timeout)

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

    @pytest.mark.parametrize("batch_scenes", [1, 2])
    def test_loss_curve_row_rule(self, tmp_path, batch_scenes):
        """Every loss_curve.csv row reads loss = bce + 0.1 * aux: per scene the
        BCE plus 0.1 times the auxiliary MSE, each averaged over the batch."""
        cfg_path = self.write_config(tmp_path,
                                     training=TrainSpec(steps=2, batch_scenes=batch_scenes))
        out = tmp_path / "out"
        r = self.run_cli("train", "--config", str(cfg_path), "--out", str(out))
        assert r.returncode == 0, r.stderr
        rows = read_csv(out / "loss_curve.csv")[1:]
        assert len(rows) == 2
        for step, loss, bce, aux in rows:
            loss, bce, aux = float(loss), float(bce), float(aux)
            assert aux > 0.0
            assert loss == pytest.approx(bce + 0.1 * aux, rel=1e-12, abs=0.0), step

    def test_run_with_trained_params_and_scenario(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out1 = tmp_path / "t"
        assert self.run_cli("train", "--config", str(cfg_path), "--out",
                            str(out1)).returncode == 0
        cfg = tiny_config()
        scen = cfg.scenario(11, cfg.channel, 6)
        scen_path = tmp_path / "scenario.json"
        save_scenario(scen_path, scen)
        out2 = tmp_path / "r"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out2),
                         "--params", str(out1 / "params.catp"),
                         "--scenario", str(scen_path))
        assert r.returncode == 0, r.stderr

    def test_run_scenario_row_carries_the_scenario_channel(self, tmp_path):
        """The row of `run --scenario` names the channel the scenario was
        evaluated on, not the config's."""
        cfg_path = self.write_config(tmp_path)
        channel = ChannelConfig(max_latency_ticks=2, drop_p=0.3, loc_sigma=0.5,
                                head_sigma=0.05)
        scen_path = tmp_path / "scenario.json"
        save_scenario(scen_path, tiny_config().scenario(11, channel, 6))
        out = tmp_path / "out"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out),
                         "--scenario", str(scen_path))
        assert r.returncode == 0, r.stderr
        header, row = read_csv(out / "metrics.csv")
        assert [float(row[header.index(c)])
                for c in ("L_ticks", "drop_p", "loc_sigma", "head_sigma")] == [2, 0.3, 0.5, 0.05]

    def test_ablate_writes_seven_rows(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "out"
        r = self.run_cli("ablate", "--config", str(cfg_path), "--out", str(out))
        assert r.returncode == 0, r.stderr
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 8
        assert [row[0] for row in rows[1:]] == [c[0] for c in ABLATION_COMBOS]

    def test_ablate_metrics_do_not_depend_on_the_blas_setting(self, tmp_path):
        """With OPENBLAS_NUM_THREADS unset the package's one-thread default
        applies: OpenBLAS's sums, and so the metrics, depend on its thread count."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"training": {"steps": 2}, "eval_scenarios": 2,
                                        "eval_measure_ticks": 1}))
        unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        metrics = []
        for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
            out = tmp_path / f"out{len(metrics)}"
            r = subprocess.run([sys.executable, "-m", "coopfuse.cli", "ablate", "--config",
                                str(cfg_path), "--out", str(out)],
                               capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            metrics.append((out / "metrics.csv").read_bytes())
        assert metrics[0] == metrics[1]

    def test_sweep_axes(self, tmp_path):
        # each axis's config_id labels and its swept column, as metrics.csv spells them
        cfg_path = self.write_config(tmp_path)
        for axis, prefix, column, values in (
                ("latency", "L", "L_ticks", ["0", "1", "2", "3", "4", "5"]),
                ("retention", "k", "retention_k", ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6"]),
                ("drop", "drop", "drop_p", ["0.0", "0.2", "0.4", "0.6", "0.8"])):
            out = tmp_path / axis
            r = self.run_cli("sweep", "--axis", axis, "--config", str(cfg_path),
                             "--out", str(out))
            assert r.returncode == 0, r.stderr
            header, *rows = read_csv(out / "metrics.csv")
            assert [row[0] for row in rows] == [f"{prefix}={v}" for v in values]
            assert [row[header.index(column)] for row in rows] == values

    def test_tiny_retention_keeps_one_window(self, tmp_path):
        # ceil(k * n_eligible) is 0 for k = 1e-300; the selector keeps one window
        cfg_path = self.write_config(tmp_path, retention=1e-300)
        out = tmp_path / "out"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert r.returncode == 0, r.stderr
        header, row = read_csv(out / "metrics.csv")
        assert row[header.index("retention_k")] == "1e-300"
        assert all(np.isfinite(float(row[header.index(m)]))
                   for m in ("occupancy_iou", "mse_to_clean"))

    @pytest.mark.parametrize("argv,message", [
        (["run", "--seed", "x", "--out", "o"], "argument --seed: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        (["train", "--out", "o", "--scenario", "x"], "unrecognized arguments: --scenario x"),
        (["--help"], None)], ids=["bad-int", "no-command", "unknown-flag", "help"])
    def test_usage_error_is_one_line(self, tmp_path, monkeypatch, capsys, argv, message):
        """A usage error exits 2 with one stderr line; ``--help`` prints its
        text to stdout and exits 0."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        out, err = capsys.readouterr()
        if message is None:
            assert info.value.code == 0 and err == "", err
            assert out.startswith("usage: coopfuse") and len(out.splitlines()) > 1, out
        else:
            assert info.value.code == 2 and out == "", out
            assert err == f"usage error: {message}\n", err
        assert list(tmp_path.iterdir()) == []

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
        {"scales": [0]}, {"scales": []}, {"cell_size": float("inf")},
        {"training": {"learning_rate": float("nan")}},
        {"training": {"learning_rate": -1e-3}}, {"fov_ego_m": -1},
        {"fov_collab_m": 0}, {"bounds_m": 0}, {"H": 32.5}, {"K": 2.9},
        {"channel": {"L_ticks": 2.7}}, {"C": True}, {"scales": [2, 4.5]},
        {"training": {"steps": False}}, {"k": True}, {"channel": {"loc_sigma": float("inf")}},
        {"channel": {"seed": 5}}, {"scales": 4}, {"cell_size": 1e-300},
        {"channel": {"head_sigma": 1e308}}, {"bounds_m": 0.5}, {"C": 700}, {"C": 10**400},
    ])
    def test_rejected_field_exit_code(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))          # inf and nan go out as Infinity and NaN
        r = self.run_cli("train", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error") and len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("defect", sorted(SCENARIO_DEFECTS))
    def test_rejected_scenario_exit_code(self, tmp_path, defect):
        doc = tiny_config().scenario(11, tiny_config().channel, 6).to_json()
        SCENARIO_DEFECTS[defect](doc)
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(doc))
        r = self.run_cli("run", "--config", str(self.write_config(tmp_path)),
                         "--scenario", str(scen_path), "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error") and len(r.stderr.splitlines()) == 1

    def test_scenario_agent_stack_over_the_cap(self, tmp_path):
        # the config's own 3-agent stack takes 96 MiB, the scenario's 300 agents 18.8 GiB
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"H": 2048, "W": 2048, "C": 2}))
        save_scenario(tmp_path / "scenario.json",
                      make_scenario(11, tiny_config().channel, 6, 300, 5, 9.0, 8.0, 9.0))
        r = self.run_cli("run", "--config", str(cfg_path), "--scenario",
                         str(tmp_path / "scenario.json"), "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error: H=2048, W=2048, C=2, n_agents=300 ")
        assert len(r.stderr.splitlines()) == 1

    def test_training_over_the_tick_cap(self, tmp_path):
        # 10^9 steps of K + L_ticks + 1 = 8 ticks at the desk config
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"training": {"steps": 1000000000}}))
        r = self.run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr == "config error: training needs 8.0e9 ticks, over the 1.0e7 cap\n"

    def test_sweep_evaluation_over_the_tick_cap(self, tmp_path):
        """The config's own evaluation, 830,000 x (4 + 0 + 8) = 9.96e6 ticks,
        is under the cap, but the latency sweep's L = 1 point needs
        830,000 x 13 = 1.079e7: it is rejected before anything trains."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"eval_scenarios": 830000, "channel": {"L_ticks": 0}}))
        r = self.run_cli("sweep", "--axis", "latency", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o"), timeout=60)
        assert r.returncode == 2, r.stderr
        assert r.stderr == "config error: evaluation needs 1.1e7 ticks, over the 1.0e7 cap\n"

    def test_scenario_over_the_tick_cap(self, tmp_path):
        doc = make_scenario(11, tiny_config().channel, 6, 3, 5, 9.0, 8.0, 9.0).to_json()
        doc["ticks"] = 1000000000
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(doc))
        r = self.run_cli("run", "--config", str(self.write_config(tmp_path)),
                         "--scenario", str(scen_path), "--out", str(tmp_path / "o"))
        assert r.returncode == 2, r.stderr
        assert r.stderr == "config error: scenario needs 1.0e9 ticks, over the 1.0e7 cap\n"

    def test_divergence_exit_code(self, tmp_path):
        cfg = tiny_config(training=TrainSpec(steps=30, learning_rate=1e14))
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

    def test_trailing_params_byte_exit_code(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        params = tmp_path / "p.catp"
        Pipeline(tiny_config()).save(params)
        params.write_bytes(params.read_bytes() + b"\0")
        out = tmp_path / "o"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out),
                         "--params", str(params))
        assert r.returncode == 2, r.stderr
        assert r.stderr == "config error: trailing bytes in parameter file: 1\n"
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("flag", ["--config", "--scenario"])
    def test_deeply_nested_document_exit_code(self, tmp_path, flag):
        """A document of 200,000 nested arrays, past Python's recursion limit,
        is rejected in one config error line, not with a traceback."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "o"
        r = self.run_cli("run", flag, str(deep), "--out", str(out))
        assert r.returncode == 2, r.stderr
        assert r.stderr == f"config error: {deep} is nested too deeply to read\n"
        assert not (out / "metrics.csv").exists()

    def test_nonfinite_metric_exit_code(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        pipe = Pipeline(tiny_config())
        # finite, so the checkpoint loads, but the integrated maps overflow
        pipe.integrator.bias.data[:] = 1e308
        params = tmp_path / "p.catp"
        pipe.save(params)
        out = tmp_path / "o"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out),
                         "--params", str(params))
        assert r.returncode == 3, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert r.stderr.startswith("divergence") and "mse_to_clean=nan" in r.stderr
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("name", ["decoder.bias", "select.split.b1"])
    def test_nonfinite_params_exit_code(self, tmp_path, name):
        cfg_path = self.write_config(tmp_path)
        pipe = Pipeline(tiny_config())
        pipe.parameters()[name].data.reshape(-1)[0] = np.nan
        params = tmp_path / "p.catp"
        pipe.save(params)
        out = tmp_path / "o"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out),
                         "--params", str(params))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error") and len(r.stderr.splitlines()) == 1
        assert repr(name) in r.stderr
        assert not (out / "metrics.csv").exists()

    def test_duplicate_params_exit_code(self, tmp_path):
        # the model's parameters, then a second decoder.bias record
        cfg_path = self.write_config(tmp_path)
        params, extra = tmp_path / "p.catp", tmp_path / "extra.catp"
        Pipeline(tiny_config()).save(params)
        save_params(extra, {"decoder.bias": Parameter(np.full((1, 1, 1), 50.0), "decoder.bias")})
        raw = bytearray(params.read_bytes())
        struct.pack_into("<I", raw, 8, struct.unpack_from("<I", raw, 8)[0] + 1)
        params.write_bytes(bytes(raw) + extra.read_bytes()[12:])
        out = tmp_path / "o"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out),
                         "--params", str(params))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("config error") and len(r.stderr.splitlines()) == 1
        assert repr("decoder.bias") in r.stderr
        assert not (out / "metrics.csv").exists()

    def test_overflowing_logits_exit_code(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        pipe = Pipeline(tiny_config())
        pipe.selector.agg_bias.data[:] = 1e308       # finite, but the decoder's logits are not
        params = tmp_path / "p.catp"
        pipe.save(params)
        out = tmp_path / "o"
        r = self.run_cli("run", "--config", str(cfg_path), "--out", str(out),
                         "--params", str(params))
        assert r.returncode == 3, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert r.stderr.startswith("divergence") and "occupancy_iou=nan" in r.stderr
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("doc,needs", [
        ({"C": 100000}, "183.8 TiB of parameters"),
        ({"ssm_state_dim": 1000000000}, "566.2 GiB of parameters"),
        ({"H": 400000, "W": 400000, "scales": [4]}, "149.0 TiB in one array"),
        ({"anchor_points": 100000000}, "20.1 GiB of parameters"),
    ], ids=["C", "ssm_state_dim", "HW", "anchor_points"])
    def test_out_of_memory_exit_code(self, tmp_path, doc, needs):
        """A config whose size estimate is over the cap (C=100000 asks for
        184 TiB of parameters) is rejected when it is made, with one config
        error line, before anything is allocated."""
        stderr = run_under_address_limit(tmp_path, doc)
        assert stderr.startswith("config error") and needs in stderr, stderr
        assert "over the 8.0 GiB cap" in stderr

    def test_memory_error_under_the_cap_exits_2(self, tmp_path):
        """C=500 passes the estimate (4.7 GiB of parameters, under the cap) but
        cannot allocate its 4.6 GB inner kernel under the limit: the
        MemoryError backstop reports it in one line."""
        stderr = run_under_address_limit(tmp_path, {"C": 500})
        assert stderr.startswith("out of memory"), stderr

    def test_memory_error_in_a_worker_exits_2(self, tmp_path):
        """anchor_points=4096 passes the estimate (stsync's anchor corners take
        1 GiB, under the cap) but not a 1 GB limit. On two or more cores the
        two evaluation scenarios run on fork_map workers, where the anchor's
        MemoryError rises; it reaches the caller, which reports it in one line."""
        doc = {"anchor_points": 4096, "eval_scenarios": 2, "eval_measure_ticks": 1}
        PipelineConfig.from_json(doc)
        stderr = run_under_address_limit(tmp_path, doc, limit=1_000_000_000)
        assert stderr.startswith("out of memory"), stderr


# argv words for the property below; relative paths name the files that
# make_argv_inputs writes in each draw's own working directory
ARGV_COMMANDS = ("run", "train", "ablate", "sweep", "walk", "", "\udcff")
ARGV_FLAGS = ("--out", "--seed", "--scenario", "--params", "--axis")
ARGV_JUNK_FLAGS = ("--bogus", "-x", "--seed=", "--", "-", "-h")
ARGV_VALUES = ("x", "-1", "1.5", "99999999999999999999", "", "0",
               "missing.json", "dir", "file.txt", "file.txt/sub", "latin1.json",
               "\udcff.json", "array.json", "cfg.json", "scenario.json", "params.catp",
               "out", "latency", "retention", "drop")


def make_argv_inputs(root: Path) -> None:
    """A tiny valid config (2 training steps, 1 evaluation scenario), a
    scenario and a checkpoint that fit it, a JSON array, a non-UTF-8 file, a
    directory and a regular file, under root."""
    cfg = tiny_config(eval_scenarios=1, eval_measure_ticks=1)
    (root / "cfg.json").write_text(json.dumps(cfg.to_json()))
    save_scenario(root / "scenario.json",
                  cfg.scenario(3, cfg.channel, 4))
    Pipeline(cfg).save(root / "params.catp")
    (root / "array.json").write_text("[1, 2]")
    (root / "latin1.json").write_bytes(b'{"H": "\xff"}')
    (root / "dir").mkdir()
    (root / "file.txt").write_text("x")


@st.composite
def argvs(draw):
    """A subcommand or a junk word, then --config, any of the parser's other
    flags and up to two junk flags in any order, each followed by a value
    from the pool. --config is always given: without it a draw would train
    the 500-step default config; half of its values are the tiny config."""
    flags = ["--config"] + [f for f in ARGV_FLAGS if draw(st.booleans())]
    flags += draw(st.lists(st.sampled_from(ARGV_JUNK_FLAGS), max_size=2))
    argv, pool = [draw(st.sampled_from(ARGV_COMMANDS))], st.sampled_from(ARGV_VALUES)
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(st.just("cfg.json") | pool if flag == "--config" else pool)]
    return argv


@settings(max_examples=40, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_0_2_or_3_in_one_line(argv):
    """cli.main, in-process, exits 0, 2 or 3 on any argv; a nonzero exit
    prints one stderr line, no draw prints a traceback or leaves a child
    process. A usage error leaves main as SystemExit(2). Each draw runs in a
    temporary directory of its own, since `--out ""` writes into the cwd."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        make_argv_inputs(Path(root))
        os.chdir(root)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()
    assert len(err.getvalue().splitlines()) == (1 if code else 0), err.getvalue()
    assert multiprocessing.active_children() == []
