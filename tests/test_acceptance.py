"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Heavy criteria share the session-scoped model bank (500-step desk-scale
trainings, five seeds per configuration). Run with -m "not slow" to skip
the training-dependent criteria during development.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_SEEDS
from coopfuse import ops
from coopfuse.denoise import (interleaved_order, progressive_order, subband_tokens,
                              token_subbands)
from coopfuse.gradcheck import grad_check
from coopfuse.select import BlockGrid, propagate_mask, score_blocks, topk_select
from coopfuse.sync import TemporalSync
from coopfuse.tensor import Tensor
from coopfuse.wavelet import haar_iwt2d, haar_wt2d
from coopfuse.world import Channel, ChannelConfig, Pose2D, stream, transform_to_ego
from grad_cases import CASES

CHI2_99_DF5 = 15.086
NOISE_02 = ChannelConfig(3, 0.0, 0.2, 0.2 * np.pi / 18)


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_wavelet_correctness():
    t0 = time.time()
    worst_recon = 0.0
    worst_energy = 0.0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 32, 32))
        bands = haar_wt2d(Tensor(x))
        back = haar_iwt2d(bands)
        worst_recon = max(worst_recon, float(np.max(np.abs(back.data - x))))
        e_in = float((x ** 2).sum())
        e_bands = sum(float((t.data ** 2).sum()) for t in bands.bands())
        worst_energy = max(worst_energy, abs(e_bands - e_in) / e_in)
    elapsed = time.time() - t0
    report("wavelet correctness",
           worst_recon < 1e-12 and worst_energy < 1e-9 and elapsed < 5.0,
           f"recon={worst_recon:.2e} energy={worst_energy:.2e} t={elapsed:.2f}s")


def _sync_case(seed):
    rng = np.random.default_rng(seed)
    sync = TemporalSync(2, stream(seed, "gs"))
    sync.offset_kernel.data = 0.05 * rng.standard_normal(sync.offset_kernel.data.shape)
    sync.update_offset_kernel.data = 0.05 * rng.standard_normal(
        sync.update_offset_kernel.data.shape)
    sync.anchor_kernel.data = 0.05 * rng.standard_normal(sync.anchor_kernel.data.shape)
    sync.gate_channel_bias.data = rng.standard_normal(sync.gate_channel_bias.data.shape)
    ego = rng.uniform(-1, 1, size=(2, 8, 8))
    entries = [rng.uniform(-1, 1, size=(2, 8, 8)) for _ in range(3)]
    probe = seed % 3

    def f(t):
        buf = [lambda j=j, e=e: t if j == probe else Tensor(e) for j, e in enumerate(entries)]
        return ops.tsum(sync.anchor(sync.rollout(buf), Tensor(ego)))
    return f, Tensor(entries[probe])


def _wtden_case(seed):
    from coopfuse.denoise import WaveletDenoiser
    rng = np.random.default_rng(seed)
    den = WaveletDenoiser(2, 3, stream(seed, "gd"))
    den.inner_kernel.data += 0.05 * rng.standard_normal(den.inner_kernel.data.shape)
    den.skip_kernel.data += 0.05 * rng.standard_normal(den.skip_kernel.data.shape)
    w_out, b_out = (den.params[f"denoise.ssm.{name}"] for name in ("w_out", "b_out"))
    for p in range(len(w_out.data)):      # per scan path, as when each path had its own block
        w_out.data[p] = 0.3 * rng.standard_normal(w_out.data[p].shape)
        b_out.data[p] = 0.3 * rng.standard_normal(b_out.data[p].shape)
    x = Tensor(rng.uniform(-1.2, 1.2, size=(2, 8, 8)))
    return (lambda t: ops.tsum(den(t))), x


def _adpsel_case(seed):
    from coopfuse.select import FeatureSelector
    rng = np.random.default_rng(seed)
    sel = FeatureSelector(2, (2, 4), 0.5, stream(seed, "ga"))
    sel.attention.wg.data = 0.2 * rng.standard_normal((2, 2))
    sel.bottleneck.w2.data = 0.2 * rng.standard_normal(sel.bottleneck.w2.data.shape)
    x = Tensor(rng.uniform(-1.2, 1.2, size=(2, 8, 8)))
    return (lambda t: ops.tsum(sel(t))), x


def test_02_gradient_suite():
    t0 = time.time()
    worst = {}
    for name, build in CASES.items():
        errs = [grad_check(*build(seed), eps=1e-4) for seed in range(10)]
        worst[name] = max(errs)
    missing = [n for n in ops.DIFFERENTIABLE_OPS if n not in worst]
    for label, case in (("module:sync", _sync_case), ("module:wtden", _wtden_case),
                        ("module:adpsel", _adpsel_case)):
        errs = [grad_check(*case(seed), eps=1e-4) for seed in range(10)]
        worst[label] = max(errs)
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    report("gradient suite",
           not bad and not missing and elapsed < 120.0,
           f"{len(worst)} cases, worst={max(worst.values()):.2e}, "
           f"missing={missing}, bad={bad}, t={elapsed:.1f}s")


def test_03_scan_bijectivity():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        bands = Tensor(rng.normal(size=(12, 4, 4)))       # 4C x h2 x w2 subbands, C = 3
        for order_fn in (progressive_order, interleaved_order):
            for direction in ("forward", "reverse"):
                order = order_fn(4, 4, direction)
                seq = ops.take_rows(subband_tokens(bands), order)
                back = token_subbands(ops.take_rows(seq, np.argsort(order)), 4, 4)
                ok = ok and np.array_equal(back.data, bands.data)
    report("scan bijectivity", ok, "4 orders x 100 subband sets, bitwise")


def test_04_mask_algebra():
    partition_ok = retention_ok = monotone_ok = scaling_ok = True
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        grid = BlockGrid(16, 16, int(rng.choice([2, 4, 8])))
        scores = rng.normal(size=grid.n_blocks)
        n_off = int(rng.integers(0, grid.n_blocks // 2 + 1))
        if n_off:
            scores[rng.choice(grid.n_blocks, size=n_off, replace=False)] = -np.inf
        k = float(rng.uniform(0.05, 1.0))
        sel = topk_select(scores, k, grid)
        f = rng.normal(size=(2, 16, 16))
        partition_ok = partition_ok and np.array_equal(
            sel.pixel_mask * f + (1.0 - sel.pixel_mask) * f, f)
        n_eligible = int(np.isfinite(scores).sum())
        retention_ok = retention_ok and (
            sel.retained_count == int(np.ceil(k * n_eligible - 1e-9)))
        finite = np.where(np.isfinite(scores), scores, 0.0)
        scaled = np.where(np.isfinite(scores), finite * float(rng.uniform(0.5, 10.0)),
                          -np.inf)
        scaling_ok = scaling_ok and np.array_equal(
            topk_select(scaled, k, grid).block_mask, sel.block_mask)
    for trial in range(1000):
        rng = np.random.default_rng(5000 + trial)
        feat = rng.normal(size=(2, 16, 16))
        elig = np.ones((16, 16))
        for s in (2, 4, 8):
            grid = BlockGrid(16, 16, s)
            scores = score_blocks(feat, grid, elig)
            if not np.any(np.isfinite(scores)):
                break
            nxt = propagate_mask(elig, topk_select(scores, 0.4, grid))
            monotone_ok = monotone_ok and np.all(nxt <= elig + 1e-12)
            elig = nxt
    report("mask algebra",
           partition_ok and retention_ok and monotone_ok and scaling_ok,
           f"partition={partition_ok} retention={retention_ok} "
           f"monotone={monotone_ok} scaling={scaling_ok}")


def test_05_convex_gate_bound():
    ok = True
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        if trial % 50 == 0:
            sync = TemporalSync(3, stream(trial, "cg"))
            sync.gate_spatial_kernel.data = 0.3 * rng.standard_normal(
                sync.gate_spatial_kernel.data.shape)
            sync.gate_spatial_bias.data = rng.standard_normal((1, 1, 1))
            sync.gate_channel_bias.data = rng.standard_normal(
                sync.gate_channel_bias.data.shape)
        h = rng.normal(size=(3, 8, 8))
        w = rng.normal(size=(3, 8, 8))
        out = sync.gate(Tensor(h), Tensor(w))
        inside = (np.all(out.fused.data >= np.minimum(h, w) - 1e-12)
                  and np.all(out.fused.data <= np.maximum(h, w) + 1e-12))
        ok = ok and inside and np.all(out.alpha.data > 0) and np.all(out.alpha.data < 1)
    report("convex gate bound", ok, "1000 random pairs, tol 1e-12")


def test_06_channel_statistics():
    channel = Channel(ChannelConfig(max_latency_ticks=5, drop_p=0.3))
    channel.rng = stream(123, "stats")
    f = Tensor(np.zeros((1, 4, 4)))
    for i in range(10000):
        channel.send(f"s{i % 4}", f, Pose2D(0, 0, 0), 0)
    out = channel.deliver(10)
    drop_rate = 1.0 - len(out) / 10000.0
    lat = np.array([p.arrive_tick - p.emit_tick for p in out])
    observed = np.bincount(lat, minlength=6)
    expected = len(out) / 6.0
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    report("channel statistics",
           abs(drop_rate - 0.3) < 0.02 and chi2 < CHI2_99_DF5
           and lat.min() >= 0 and lat.max() <= 5,
           f"drop={drop_rate:.4f} chi2={chi2:.2f} (crit {CHI2_99_DF5})")


def test_07_transform_composition():
    def smooth_field(seed, h=32, w=32):
        rr, cc = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(0.3, 1.0, size=3)
        return np.stack([np.sin(2 * np.pi * (a * rr + b * cc)),
                         np.cos(2 * np.pi * (c * rr - a * cc))])

    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        pa, pb, pc = [Pose2D(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                             rng.uniform(-0.35, 0.35)) for _ in range(3)]
        f = Tensor(smooth_field(seed))
        via = transform_to_ego(transform_to_ego(f, pa, pb, 1.0), pb, pc, 1.0)
        direct = transform_to_ego(f, pa, pc, 1.0)
        interior = (slice(None), slice(8, -8), slice(8, -8))
        worst = max(worst, float(np.abs(via.data[interior]
                                        - direct.data[interior]).mean()))
    report("transform composition", worst < 1e-2,
           f"worst mean-abs={worst:.2e} over 50 pose triples")


@pytest.mark.slow
def test_08_latency_compensation_trend(model_bank):
    t0 = time.time()
    gaps = []
    for seed in ACCEPTANCE_SEEDS:
        full = model_bank.metrics("full", seed, channel=NOISE_02).occupancy_iou
        base = model_bank.metrics("baseline", seed, channel=NOISE_02).occupancy_iou
        gaps.append(full - base)
    mean_gap = float(np.mean(gaps))
    elapsed = time.time() - t0
    # training-run oracle from the same checkpoints: loss decreased
    curve = model_bank.get("full", ACCEPTANCE_SEEDS[0])._loss_curve
    first, last = curve[0][1], curve[-1][1]
    print(f"experiment log: 500-step loss {first:.4f} -> {last:.4f} (seed "
          f"{ACCEPTANCE_SEEDS[0]})")
    report("latency compensation trend",
           mean_gap >= 0.05 and elapsed < 900.0 and last < first,
           f"mean gap {mean_gap:+.4f} over {len(gaps)} seeds "
           f"(per-seed {[f'{g:+.3f}' for g in gaps]}), t={elapsed:.0f}s")


@pytest.mark.slow
def test_09_denoising_trend(model_bank):
    wins, total = 0, 0
    details = []
    required = True
    for sigma in (0.1, 0.2, 0.4):
        ch = ChannelConfig(0, 0.0, sigma, sigma * np.pi / 18)
        for seed in ACCEPTANCE_SEEDS:
            on = model_bank.metrics("full", seed, channel=ch).mse_to_clean
            off = model_bank.metrics("full", seed, channel=ch,
                                     wtden_override=False).mse_to_clean
            win = on < off
            wins += win
            total += 1
            if sigma in (0.2, 0.4):
                required = required and win
            details.append(f"s{seed}@{sigma}:{'W' if win else 'L'}")
    report("denoising trend", required,
           f"{wins}/{total} wins incl. 0.1; criterion sigmas 0.2/0.4 "
           f"all-win={required}")


@pytest.mark.slow
def test_10_ablation_monotonicity(model_bank):
    means = {}
    for label in ("full", "baseline", "stsync", "wtden", "adpsel"):
        ious = [model_bank.metrics(label, s, channel=NOISE_02).occupancy_iou
                for s in ACCEPTANCE_SEEDS]
        means[label] = float(np.mean(ious))
    tie = 0.005
    ok = all(means["full"] >= means[m] - tie for m in ("stsync", "wtden", "adpsel"))
    sync_beats_base = means["stsync"] >= means["baseline"]
    report("ablation monotonicity", ok and sync_beats_base,
           " ".join(f"{k}={v:.4f}" for k, v in means.items()))


@pytest.mark.slow
def test_11_run_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = subprocess.run([sys.executable, "-m", "coopfuse.cli", "run",
                            "--out", str(out), "--seed", "3"],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append((out / "metrics.csv").read_bytes())
    report("run determinism", outputs[0] == outputs[1],
           f"{len(outputs[0])} bytes, byte-identical")
