"""Per-layer spans recorded from the benchmark's side of each call boundary.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` swaps each
traced name for a timing wrapper at the place its caller looks it up (a
module attribute, a class attribute or a dict entry) and ``uninstall`` puts
the originals back, so an untraced call runs exactly the library's code.

Spans nest. A span's self time is its duration minus the time of the spans of
the same group opened inside it: ``channel_norm`` over the ops it is built
from, ``saliency_net.decoder`` over ``saliency_net.global_head``,
``metrics.evaluate_pair`` over the metric functions it calls. Spans of other
groups do not count as children, so a network stage keeps the tensor ops it
runs and ``tensor.backward`` keeps the backward closures it replays.

Model-path spans (tensor ops, network stages, loss, backward, Adam) are
counted only inside the workload's unit span, one training step or one
inference call, and are reported per unit. File, config, baseline and metric
spans are counted everywhere and reported per call.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import time
from collections import defaultdict

import numpy as np

import specsal.cli
import specsal.metrics
import specsal.model
import specsal.saliency_net
import specsal.spectral_attention
import specsal.tensor
import specsal.training

# Ops reported one by one; every other taped op is summed into "other".
OPS = (
    "conv2d", "channel_norm", "mul", "add", "sub", "mean_over", "power", "reshape",
    "relu", "matmul", "narrow", "gelu", "softmax", "upsample_nearest", "downsample_avg",
)
OTHER_OPS = (
    "div", "neg", "absolute", "log", "exp", "clip", "sigmoid", "transpose2d", "concat",
    "sum_over", "channel_conv1d", "pool_global", "pixel_shuffle", "pixel_unshuffle",
)
# channel_norm is composed of taped ops, so it records no backward of its own.
BACKWARD_OPS = tuple(op for op in OPS if op != "channel_norm")

TRAIN, INFER, SCORE = "train-demo", "infer-spectral", "score-baselines"
MODEL_WORKLOADS = (TRAIN, INFER)


def _op_span(op: str) -> str:
    return f"tensor.{op if op in OPS else 'other'}"


def _bindings():
    """(owner, attribute, span name, group, counted only inside a unit)."""
    T, cli, metrics = specsal.tensor, specsal.cli, specsal.metrics
    table = [(T, op, _op_span(op) + ".fwd", "op", True) for op in OPS + OTHER_OPS]
    table += [
        (T.Tape, "backward", "tensor.backward", "step", True),
        (specsal.model.SaliencyModel, "__call__", "model.forward", "step", True),
        (specsal.training, "compute_losses", "losses.compute", "step", True),
        (specsal.training.AdamOptimizer, "step", "training.adam", "step", True),
        (specsal.training, "train_step", "training.step", "step", False),
        (specsal.spectral_attention.SpectralEncoder, "__call__",
         "spectral_attention.encoder", "network", True),
        (specsal.saliency_net.HighResBackbone, "__call__",
         "saliency_net.backbone", "network", True),
        (specsal.saliency_net.SaliencyDecoder, "__call__",
         "saliency_net.decoder", "network", True),
        (specsal.saliency_net.GlobalSaliencyHead, "__call__",
         "saliency_net.global_head", "network", True),
        (cli, "load_json_document", "configio.load", "io", False),
        (specsal.model.SaliencyModel, "__init__", "model.build", "io", False),
        (cli, "load_checkpoint", "checkpoint.load", "io", False),
        (cli, "apply_state", "checkpoint.apply", "io", False),
        (cli, "save_checkpoint", "checkpoint.save", "io", False),
        (cli, "read_cube", "cube.read", "io", False),
        (cli, "write_pgm", "imageio.write_pgm", "io", False),
        (cli, "write_float_map", "imageio.write_float_map", "io", False),
        (cli, "read_float_map", "imageio.read_float_map", "io", False),
        (cli, "read_mask", "masks.read", "io", False),
        (cli, "load_manifest", "manifest.load", "io", False),
        (cli, "evaluate_pair", "metrics.evaluate_pair", "metrics", False),
    ]
    table += [(cli.BASELINES, name, f"baselines.{name}", "io", False) for name in ("sad", "sed", "sg")]
    table += [
        (metrics, name, f"metrics.{name}", "metrics", False)
        for name in ("mae", "precision_recall", "average_f1", "roc_auc", "pearson_cc")
    ]
    return table


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


class Tracer:
    """In-memory span totals for one traced run."""

    def __init__(self, unit_span):
        self.unit_span = unit_span
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.step_s = []  # inclusive training.step durations
        self.tape_records = 0
        self.units = 0
        self.distinct_values = []  # per evaluated image
        self._in_unit = 0
        self._stacks = defaultdict(list)
        self._originals, self._wrapped = [], []
        for owner, name, span, group, scoped in _bindings():
            original = _get(owner, name)
            self._originals.append((owner, name, original))
            self._wrapped.append((owner, name, self.wrap(original, span, group, scoped)))
        record = specsal.tensor.Tape.record
        self._originals.append((specsal.tensor.Tape, "record", record))
        self._wrapped.append((specsal.tensor.Tape, "record", self._wrap_record(record)))

    def install(self) -> None:
        for owner, name, wrapper in self._wrapped:
            _set(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in self._originals:
            _set(owner, name, original)

    def wrap(self, fn, span: str, group: str, scoped: bool):
        stack = self._stacks[group]
        is_unit = span == self.unit_span
        is_step = span == "training.step"
        is_eval = span == "metrics.evaluate_pair"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_unit:
                self._in_unit += 1
            cell = [0.0]
            stack.append(cell)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                if is_unit:
                    self._in_unit -= 1
                    self.units += 1
                if self._in_unit or not scoped:
                    self.self_s[span] += elapsed - cell[0]
                    self.calls[span] += 1
                if is_step:
                    self.step_s.append(elapsed)
                if is_eval:
                    self.distinct_values.append(np.unique(args[0]).size)

        return traced

    def _wrap_record(self, record):
        wrap = self.wrap

        @functools.wraps(record)
        def traced_record(tape, out, inputs, back):
            if self._in_unit:
                self.tape_records += 1
            op = back.__qualname__.split(".")[0]
            return record(tape, out, inputs, wrap(back, _op_span(op) + ".bwd", "op", True))

        return traced_record

    def unit(self, fn, *args):
        """Run fn(*args) as one unit span (used when no library call marks the unit)."""
        return self.wrap(fn, self.unit_span, "bench", False)(*args)


# ---------------------------------------------------------------------------
# per-layer metric table


def _per_unit(tracer, key):
    return tracer.self_s[key] * 1000.0 / tracer.units if tracer.units else 0.0


def _per_call(tracer, key):
    return tracer.self_s[key] * 1000.0 / tracer.calls[key] if tracer.calls[key] else 0.0


def _calls_per_unit(tracer, key):
    return tracer.calls[key] / tracer.units if tracer.units else 0.0


def percentile_ms(seconds, q: int) -> float:
    """q-th percentile of durations in seconds, in ms (0 when there are none)."""
    if len(seconds) < 2:
        return sum(seconds) * 1000.0
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1000.0


def _metric_specs():
    """(name, unit, value fn, span whose calls prove it ran, exercising workloads)."""
    specs = [
        ("tensor.backward_ms", "ms", lambda t: _per_unit(t, "tensor.backward"),
         "tensor.backward", (TRAIN,)),
        ("tensor.tape_records", "count",
         lambda t: t.tape_records / t.units if t.units else 0.0, "tensor.backward", (TRAIN,)),
    ]
    for op in OPS + ("other",):
        fwd = f"tensor.{op}.fwd"
        specs.append((f"tensor.{op}.fwd_ms", "ms", functools.partial(_per_unit, key=fwd),
                      fwd, MODEL_WORKLOADS))
        specs.append((f"tensor.{op}.calls", "count",
                      functools.partial(_calls_per_unit, key=fwd), fwd, MODEL_WORKLOADS))
    for op in BACKWARD_OPS + ("other",):
        bwd = f"tensor.{op}.bwd"
        specs.append((f"tensor.{op}.bwd_ms", "ms", functools.partial(_per_unit, key=bwd),
                      bwd, (TRAIN,)))
    for span in ("spectral_attention.encoder", "saliency_net.backbone",
                 "saliency_net.decoder", "saliency_net.global_head", "model.forward"):
        specs.append((f"{span}_ms", "ms", functools.partial(_per_unit, key=span),
                      span, MODEL_WORKLOADS))
    specs += [
        ("losses.compute_ms", "ms", lambda t: _per_unit(t, "losses.compute"),
         "losses.compute", (TRAIN,)),
        ("training.step_ms_p50", "ms", lambda t: percentile_ms(t.step_s, 50),
         "training.step", (TRAIN,)),
        ("training.step_ms_p90", "ms", lambda t: percentile_ms(t.step_s, 90),
         "training.step", (TRAIN,)),
        ("training.adam_ms", "ms", lambda t: _per_unit(t, "training.adam"),
         "training.adam", (TRAIN,)),
    ]
    io = [
        ("configio.load", MODEL_WORKLOADS), ("model.build", MODEL_WORKLOADS),
        ("checkpoint.load", MODEL_WORKLOADS), ("checkpoint.apply", MODEL_WORKLOADS),
        ("checkpoint.save", (TRAIN,)), ("manifest.load", (TRAIN, SCORE)),
        ("cube.read", (TRAIN, INFER, SCORE)), ("imageio.write_pgm", (TRAIN, INFER, SCORE)),
        ("imageio.write_float_map", (INFER, SCORE)),
        ("baselines.sad", (SCORE,)), ("baselines.sed", (SCORE,)),
        ("baselines.sg", (SCORE,)),
        ("metrics.evaluate_pair", (TRAIN, SCORE)), ("metrics.mae", (TRAIN, SCORE)),
        ("metrics.precision_recall", (TRAIN, SCORE)),
        ("metrics.average_f1", (TRAIN, SCORE)), ("metrics.roc_auc", (TRAIN, SCORE)),
        ("metrics.pearson_cc", (TRAIN, SCORE)),
        ("imageio.read_float_map", (SCORE,)), ("masks.read", (TRAIN, SCORE)),
    ]
    for span, workloads in io:
        specs.append((f"{span}_ms", "ms", functools.partial(_per_call, key=span), span, workloads))
    specs += [
        ("metrics.distinct_values_per_image", "count",
         lambda t: statistics.fmean(t.distinct_values) if t.distinct_values else 0.0,
         "metrics.evaluate_pair", (TRAIN, SCORE)),
        ("metrics.precision_recall_calls_per_image", "count",
         lambda t: (t.calls["metrics.precision_recall"] / t.calls["metrics.evaluate_pair"]
                    if t.calls["metrics.evaluate_pair"] else 0.0),
         "metrics.precision_recall", (TRAIN, SCORE)),
    ]
    return specs


PER_LAYER_EXTRA = (
    ("tensor.import_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
)


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    return [(name, unit) for name, unit, *_ in _metric_specs()] + list(PER_LAYER_EXTRA)


def report(tracer, workload):
    """Per-layer values, plus the names that should have calls on this workload but have none."""
    values, silent = {}, []
    for name, unit, value, span, workloads in _metric_specs():
        values[name] = (value(tracer), unit)
        if workload in workloads and tracer.calls[span] == 0:
            silent.append(name)
    return values, silent


_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_times_ms(command, env, cwd, repeats):
    """Median cumulative import time of specsal.tensor and specsal.cli from -X importtime."""
    samples = defaultdict(list)
    for _ in range(repeats):
        done = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"import probe exited {done.returncode}: {done.stderr[-300:]}")
        for line in done.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(2) in ("specsal.tensor", "specsal.cli"):
                samples[match.group(2)].append(int(match.group(1)) / 1000.0)
    return {
        "tensor.import_ms": statistics.median(samples["specsal.tensor"]),
        "cli.import_ms": statistics.median(samples["specsal.cli"]),
    }
