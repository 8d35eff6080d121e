"""In-memory span tracer wrapped around coopfuse's public callables.

Nothing in coopfuse is edited. ``Tracer.install`` swaps each traced callable
for a timing wrapper wherever coopfuse looks it up (the op kernels and the
world functions are imported by name into several modules), and
``Tracer.uninstall`` puts the originals back. ``Tape.record`` is wrapped so
that every backward closure carries the stage and kernel that were open
when it was recorded, and times itself when it fires.

A span is ``[name, start, end, parent index or -1, phase]``. Per-layer
metrics are read from the spans of the ``timed`` phase only.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

KERNELS = ("conv2d", "bilinear_sample", "linear_recurrence", "take_rows")

# span name -> tape stage label; records made outside all of them belong to the loss
STAGES = {
    "sync.integrate": "integrate",
    "sync.stsync": "stsync",
    "denoise.wtden": "wtden",
    "select.adpsel": "adpsel",
    "pipeline.decode": "decode",
}
TAPE_STAGES = ("integrate", "stsync", "wtden", "adpsel", "decode", "loss")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # keyed by (phase, stage, kernel)
        self.records: Counter = Counter()
        self.fired: Counter = Counter()
        self.backward_s: dict = defaultdict(float)
        self.conv_flop: Counter = Counter()   # keyed by phase

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, tracer = self.spans, self._open, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _everywhere(self, home, attr: str, new) -> None:
        """Replace ``home.attr`` in every coopfuse module that imported it by name."""
        orig = getattr(home, attr)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "coopfuse" or mod_name.startswith("coopfuse.")) \
                    and mod.__dict__.get(attr) is orig:
                self._swap(mod, attr, new)

    def install(self) -> None:
        from coopfuse import (ops, pipeline, serialize, sweeps, sync, tensor, training,
                              world)

        for k in KERNELS:
            fn = getattr(ops, k)
            self._everywhere(ops, k, self.wrap(f"ops.{k}",
                                               self._count_flop(fn) if k == "conv2d" else fn))
        for attr in ("render_bev", "transform_to_ego", "make_scenario"):
            self._everywhere(world, attr, self.wrap(f"world.{attr}", getattr(world, attr)))
        for attr in ("simulate", "clean_reference"):
            self._everywhere(pipeline, attr, self.wrap(f"pipeline.{attr}",
                                                       getattr(pipeline, attr)))
        for attr, name in (("save_params", "serialize.save"), ("load_params", "serialize.load")):
            self._everywhere(serialize, attr, self.wrap(name, getattr(serialize, attr)))
        self._swap(sweeps, "evaluate", self.wrap("sweeps.evaluate", sweeps.evaluate))
        self._swap(sweeps, "latency_sweep",
                   self.wrap("sweeps.latency_sweep", sweeps.latency_sweep))
        self._swap(training, "train", self.wrap("training.train", training.train))
        for attr, name in (("sync_stage", "sync.stsync"), ("denoise_stage", "denoise.wtden"),
                           ("select_stage", "select.adpsel"), ("decode", "pipeline.decode")):
            self._swap(pipeline.Pipeline, attr, self.wrap(name, getattr(pipeline.Pipeline, attr)))
        self._swap(sync.Integrator, "__call__",
                   self.wrap("sync.integrate", sync.Integrator.__call__))
        self._swap(tensor.Tape, "backward", self.wrap("tensor.backward", tensor.Tape.backward))
        self._swap(training.Adam, "step", self.wrap("training.adam", training.Adam.step))
        self._swap(tensor.Tape, "record", self._tagged_record(tensor.Tape.record))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _count_flop(self, conv2d):
        tracer = self

        @functools.wraps(conv2d)
        def counted(x, kernel, *args, **kwargs):
            out = conv2d(x, kernel, *args, **kwargs)
            c_out, c_in, k, _ = getattr(kernel, "data", kernel).shape
            tracer.conv_flop[tracer.phase] += 2 * c_in * k * k * out.data.size
            return out
        return counted

    def _tags(self) -> tuple[str, str]:
        kernel = "other"
        if self._open:
            top = self.spans[self._open[-1]][0]
            if top.startswith("ops."):
                kernel = top[4:]
        for idx in reversed(self._open):
            stage = STAGES.get(self.spans[idx][0])
            if stage is not None:
                return stage, kernel
        return "loss", kernel

    def _tagged_record(self, record):
        tracer = self

        @functools.wraps(record)
        def tagged(tape, out, backward_fn):
            key = (tracer.phase, *tracer._tags())
            tracer.records[key] += 1

            def timed_backward(g):
                t = perf_counter()
                backward_fn(g)
                tracer.backward_s[key] += perf_counter() - t
                tracer.fired[key] += 1
            record(tape, out, timed_backward)
        return tagged

    # -- reading the spans ---------------------------------------------------

    def totals(self, phase: str) -> tuple[Counter, dict, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, ph in self.spans:
            if ph != phase:
                continue
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        for idx, covered in child.items():
            span = self.spans[idx]
            if span[4] == phase:
                own[span[0]] -= covered
        for name in total:
            own[name] += total[name]
        return calls, total, own

    def layer_metrics(self, units: int, checkpoint_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per timed unit (serialize.* per call, from set-up)."""
        calls, total, own = self.totals("timed")

        def ms(name):
            return 1e3 * total[name] / units

        def bwd_ms(stage=None, kernel=None):
            return 1e3 * sum(v for (ph, st, k), v in self.backward_s.items()
                             if ph == "timed" and stage in (None, st)
                             and kernel in (None, k)) / units

        setup_calls, setup_total, _ = self.totals("setup")

        def per_call_ms(name):
            n = setup_calls[name]
            return 1e3 * setup_total[name] / n if n else 0.0

        records = {st: sum(v for (ph, s, _), v in self.records.items()
                           if ph == "timed" and s == st) for st in TAPE_STAGES}
        n_records = sum(records.values())
        n_fired = sum(v for (ph, _, _), v in self.fired.items() if ph == "timed")
        backward = ms("tensor.backward")
        adam = ms("training.adam")

        m: dict[str, tuple[float, str]] = {}
        for attr in ("render_bev", "transform_to_ego"):
            m[f"world.{attr}_ms"] = (ms(f"world.{attr}"), "ms")
            m[f"world.{attr}_calls"] = (calls[f"world.{attr}"] / units, "count")
        m["world.make_scenario_ms"] = (ms("world.make_scenario"), "ms")
        m["sync.integrate_fwd_ms"] = (ms("sync.integrate"), "ms")
        m["sync.integrate_bwd_ms"] = (bwd_ms("integrate"), "ms")
        m["sync.integrate_calls"] = (calls["sync.integrate"] / units, "count")
        for span, stage in (("sync.stsync", "stsync"), ("denoise.wtden", "wtden"),
                            ("select.adpsel", "adpsel")):
            m[f"{span}_fwd_ms"] = (ms(span), "ms")
            m[f"{span}_bwd_ms"] = (bwd_ms(stage), "ms")
        m["pipeline.decode_fwd_ms"] = (ms("pipeline.decode"), "ms")
        m["pipeline.clean_reference_ms"] = (ms("pipeline.clean_reference"), "ms")
        m["pipeline.simulate_self_ms"] = (1e3 * own["pipeline.simulate"] / units, "ms")
        m["tensor.records_per_step"] = (n_records / units, "count")
        for st in TAPE_STAGES:
            m[f"tensor.records.{st}"] = (records[st] / units, "count")
        m["tensor.fired_ratio"] = (n_fired / n_records if n_records else 0.0, "ratio")
        m["tensor.backward_ms"] = (bwd_ms(), "ms")
        for k in KERNELS:
            m[f"ops.{k}_fwd_ms"] = (ms(f"ops.{k}"), "ms")
            m[f"ops.{k}_bwd_ms"] = (bwd_ms(kernel=k), "ms")
            m[f"ops.{k}_calls"] = (calls[f"ops.{k}"] / units, "count")
        m["ops.conv2d_mflop"] = (self.conv_flop["timed"] / units / 1e6, "MFLOP")
        m["training.forward_ms"] = (ms("training.train") - backward - adam, "ms")
        m["training.backward_ms"] = (backward, "ms")
        m["training.adam_ms"] = (adam, "ms")
        m["serialize.save_ms"] = (per_call_ms("serialize.save"), "ms")
        m["serialize.load_ms"] = (per_call_ms("serialize.load"), "ms")
        m["serialize.checkpoint_bytes"] = (float(checkpoint_bytes), "bytes")
        m["sweeps.evaluate_ms"] = (ms("sweeps.evaluate"), "ms")
        return m

    def self_time_table(self, units: int) -> list[str]:
        calls, total, own = self.totals("timed")
        lines = [f"{'span (timed phase, per unit)':32s} {'calls':>9s} {'total ms':>10s} "
                 f"{'self ms':>10s}"]
        for name in sorted(total, key=lambda n: -own[n]):
            lines.append(f"{name:32s} {calls[name] / units:9.1f} "
                         f"{1e3 * total[name] / units:10.3f} {1e3 * own[name] / units:10.3f}")
        lines.append(f"{'backward closure (stage/kernel)':32s} {'fired':>9s} {'ms':>10s}")
        for (ph, st, k), v in sorted(self.backward_s.items(), key=lambda kv: -kv[1]):
            if ph == "timed":
                lines.append(f"{st + '/' + k:32s} {self.fired[(ph, st, k)] / units:9.1f} "
                             f"{1e3 * v / units:10.3f}")
        return lines

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, phase in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase}) + "\n")
