"""Training loop, adaptive-moment optimizer, and the gradient-check harness.

Everything here is deterministic: given the same seed, build, and inputs, the
loss trajectory reproduces bit for bit (pure numpy math, fixed iteration
order, no threading). Training, the reconstruction fit and the audit take
every gradient through backprop, so a non-finite loss or gradient stops all
three with the first offending op or the parameter named.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, NumericError
from .losses import compute_losses, mean_absolute_error
from .model import SaliencyModel, tiny_model_config
from .tensor import Tape, branch_pattern, first_non_finite


@dataclass
class TrainConfig:
    seed: int = 0
    steps: int = 100
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"step count must be >= 1, got {self.steps}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )


class AdamOptimizer:
    """Bias-corrected adaptive moments over the given parameters.

    The moment decays and epsilon are Kingma & Ba's defaults (arXiv:1412.6980).
    The parameters are read as runs, (store, start, stop) slices of adjacent
    parameters of one Store: one run for a whole model, a few for a subset of
    one, one per Parameter that no pack joined. The two moments are flat
    arrays over the runs. step() updates moments
    and values in place from the flat gradients backprop left, ``chunk``
    scalars at a time, so every array a pass touches stays in cache; each
    element sees the textbook update's arithmetic in its order.
    """

    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-8
    chunk = 1 << 14

    def __init__(self, parameters, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.runs = []
        for p in parameters:
            if self.runs and self.runs[-1][0] is p.store and self.runs[-1][2] == p.offset:
                self.runs[-1][2] += p.size
            else:
                self.runs.append([p.store, p.offset, p.offset + p.size])
        size = sum(stop - start for _, start, stop in self.runs)
        self.first = np.zeros(size)
        self.second = np.zeros(size)
        self._scratch = np.empty((2, min(size, self.chunk)))
        self.updates = 0

    def step(self) -> None:
        self.updates += 1
        scale1 = 1.0 - self.beta1 ** self.updates
        scale2 = 1.0 - self.beta2 ** self.updates
        at = 0
        for store, start, stop in self.runs:
            for lo in range(start, stop, self.chunk):
                hi = min(lo + self.chunk, stop)
                g, n = store.grad[lo:hi], hi - lo
                m, v = self.first[at : at + n], self.second[at : at + n]
                t, u = self._scratch[0, :n], self._scratch[1, :n]
                m *= self.beta1  # m = beta1 m + (1 - beta1) g
                np.multiply(g, 1.0 - self.beta1, out=t)
                m += t
                v *= self.beta2  # v = beta2 v + (1 - beta2) g g
                np.multiply(g, 1.0 - self.beta2, out=t)
                t *= g
                v += t
                np.divide(m, scale1, out=t)  # p -= lr (m / scale1) / (sqrt(v / scale2) + eps)
                t *= self.learning_rate
                np.divide(v, scale2, out=u)
                np.sqrt(u, out=u)
                u += self.epsilon
                t /= u
                store.data[lo:hi] -= t
                at += n


def backprop(named_parameters, build, context: str):
    """Drop the gradients of the parameters' stores, run build() under a Tape,
    give each store one zeroed flat gradient, backpropagate the scalar loss
    build() returns into it and return that loss. The gradients stay readable
    until the next backprop. A non-finite loss raises NumericError naming the
    first non-finite op (build() reruns under first_non_finite); a non-finite
    gradient raises one naming the parameter. ``context`` says where, e.g.
    "update 3"."""
    named_parameters = list(named_parameters)
    stores = dict.fromkeys(p.store for _, p in named_parameters)
    for store in stores:
        store.grad = None
    with Tape() as tape:
        loss = build()
    if not math.isfinite(loss.item()):
        found = first_non_finite(build)
        where = "every op output is finite" if found is None else (
            f"first non-finite tensor came from op '{found[1]}' "
            f"(op {found[0] + 1} of the forward pass, shape {found[2].shape})")
        raise NumericError(f"loss is {loss.item()} at {context}; {where}")
    for store in stores:
        store.grad = np.zeros_like(store.data)
    tape.backward(loss)
    if not all(np.isfinite(store.grad).all() for store in stores):
        for name, p in named_parameters:
            if not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient for {name} at {context}")
    return loss


def train_step(model, cube_values, mask, optimizer):
    """One forward/backward/update on a single (cube, mask) pair."""
    report = None

    def build():
        nonlocal report
        total, report = compute_losses(model(cube_values), cube_values, mask)
        return total

    backprop(model.parameters_by_name.items(), build, f"update {optimizer.updates + 1}")
    optimizer.step()
    return report


def write_log_line(stream, step: int, report) -> None:
    """One JSON line per step with the fixed wire keys."""
    stream.write(
        json.dumps(
            {
                "step": step,
                "L_s": report.reconstruction,
                "L_sod": report.saliency,
                "L_g": report.global_guidance,
                "L_m": report.total,
            }
        )
        + "\n"
    )


def train_loop(model, examples, config: TrainConfig, log_stream=None):
    """Cycle through (cube, mask) examples for config.steps updates.

    Returns the per-step LossReport list; each report is evaluated at the
    parameters before that step's update, so reports[0] is the untrained loss.
    """
    if not examples:
        raise ConfigError("training needs at least one (cube, mask) example")
    optimizer = AdamOptimizer(model.parameters(), config.learning_rate)
    reports = []
    for step in range(1, config.steps + 1):
        cube_values, mask = examples[(step - 1) % len(examples)]
        report = train_step(model, cube_values, mask, optimizer)
        reports.append(report)
        if log_stream is not None:
            write_log_line(log_stream, step, report)
    return reports


def fit_reconstruction(encoder, cube_values, steps: int, learning_rate: float = 1e-3):
    """Train only the encoder on its reconstruction error for one cube.

    Returns the per-step loss values (pre-update, so index 0 is the initial
    error). Used to show the restoration head actually learns the spectra.
    """
    cube_values = np.asarray(cube_values, dtype=float)
    named_parameters = list(encoder.named_parameters())
    optimizer = AdamOptimizer([p for _, p in named_parameters], learning_rate)
    history = []
    for step in range(1, steps + 1):
        loss = backprop(named_parameters,
                        lambda: mean_absolute_error(encoder.restore(encoder(cube_values)), cube_values),
                        f"reconstruction step {step}")
        optimizer.step()
        history.append(loss.item())
    return history


# ---------------------------------------------------------------------------
# finite-difference gradient audit

# The relative error the audit accepts; never loosen it.
GRADCHECK_TOLERANCE = 1e-4


def jitter_parameters(parameters, seed: int = 0) -> None:
    """Nudge every parameter by up to 1e-3 so the model sits at a generic point.

    Symmetric initialization puts some activations exactly on relu kinks
    (zero-init biases plus exactly-mean-free normalized maps cancel to 0 on
    degenerate 1x1 levels), where finite differences and subgradients
    legitimately disagree, and the audit skips such scalars: unjittered, whole
    groups of the tiny model would check none and fail. Gradient checks
    perturb away from that measure-zero set first; training never needs this.
    """
    rng = np.random.default_rng(seed)
    for p in parameters:
        p.data += rng.uniform(-1e-3, 1e-3, size=p.shape)


def tiny_model_audit(seed: int):
    """(model, loss_builder) that `specsal gradcheck --seed` audits: the tiny model
    built and jittered from ``seed`` on a random cube and a mask drawn from seed + 1."""
    config = tiny_model_config()
    model = SaliencyModel(np.random.default_rng(seed), config)
    jitter_parameters(model.parameters(), seed=seed)
    rng = np.random.default_rng(seed + 1)
    size = 8 * config.stem_stride  # the smallest cube the tiny config admits
    cube = rng.random((config.encoder.bands, size, size))
    mask = (rng.random((size, size)) > 0.6).astype(np.float64)
    return model, lambda: compute_losses(model(cube), cube, mask)[0]


def parameter_group(name: str) -> str:
    """Bucket a dotted parameter path for the gradient audit."""
    parts = name.split(".")
    leaf = parts[-1]
    if leaf == "head_scales":
        return "attention_scales"
    if leaf in ("avg_gain", "max_gain"):
        return "pool_gains"
    if len(parts) >= 2 and parts[-2] == "norm":
        return "norm_affine"
    if leaf == "bias":
        return "biases"
    parent = parts[-2] if len(parts) >= 2 else ""
    if parent in ("to_query", "to_key", "to_value", "project",
                  "refine_hidden", "refine_out"):
        return "attention_projections"
    if parent == "to_out":
        return "attention_output"
    return "conv_kernels"


@dataclass
class GroupCheckReport:
    group: str
    checked: int
    max_rel_error: float
    worst_parameter: str
    worst_index: tuple


def _kink_free_derivative(loss_builder, values, idx, pattern):
    """Richardson value (4 fd(h/2) - fd(h)) / 3 of d(loss)/d(values[idx]) at the widest
    h of 1e-5, 1e-6, ..., 1e-9 whose probes x +- h, x +- h/2 all take ``pattern``, else None."""
    origin = values[idx]
    for step in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        losses = []
        for offset in (step, -step, step / 2.0, -step / 2.0):
            values[idx] = origin + offset
            loss, probe = branch_pattern(loss_builder)
            if probe != pattern:
                break
            losses.append(float(loss.data))
        values[idx] = origin
        if len(losses) == 4:
            fd, fd_half = (losses[0] - losses[1]) / (2.0 * step), (losses[2] - losses[3]) / step
            return (4.0 * fd_half - fd) / 3.0
    return None


def grad_check_suite(named_parameters, loss_builder, samples_per_group: int = 20, seed: int = 0):
    """Tape gradients vs. central finite differences, sampled per group.

    ``loss_builder`` must rebuild the scalar loss from the parameters' current
    values; it runs once through backprop, with its checks, then under the
    observer of branch_pattern at x and at every probe. Relative errors floor the scale at 1e-5, the
    noise level of a finite difference; one that is not finite scores inf. The loss is piecewise smooth, its kinks located by
    the branch pattern of tensor.KINKED_OPS (Griewank 2013, "On stable
    piecewise linearization and generalized algorithmic differentiation"): a
    scalar is scored only from probes that take the pattern at x
    (_kink_free_derivative), else swapped for the next of its group. A group
    that checks fewer than min(samples_per_group, its scalar count) raises
    NumericError naming it.
    """
    params = list(named_parameters)
    backprop(params, loss_builder, "the audited point")
    _, pattern = branch_pattern(loss_builder)

    groups = {}
    for name, p in params:
        groups.setdefault(parameter_group(name), []).append((name, p))

    rng, reports = np.random.default_rng(seed), []
    for group in sorted(groups):
        coords = [(name, p, idx) for name, p in groups[group] for idx in np.ndindex(p.shape)]
        wanted = min(samples_per_group, len(coords))
        worst_rel, worst_name, worst_index, checked = 0.0, "", (), 0
        for pos in rng.permutation(len(coords)):
            if checked == wanted:
                break
            name, p, idx = coords[pos]
            fd = _kink_free_derivative(loss_builder, p.data, idx, pattern)
            if fd is None:
                continue
            checked += 1
            got = float(p.grad[idx])
            rel = abs(fd - got) / max(1e-5, abs(fd), abs(got)) if math.isfinite(fd) else math.inf
            if rel > worst_rel:
                worst_rel, worst_name, worst_index = rel, name, idx
        if checked < wanted:
            raise NumericError(f"gradient audit checked {checked} of {wanted} scalars in group "
                               f"'{group}'; the rest sit on kinks down to h = 1e-9")
        reports.append(GroupCheckReport(group, checked, worst_rel, worst_name, worst_index))
    return reports


def failing_groups(reports, tolerance: float):
    return [r for r in reports if not r.max_rel_error < tolerance]
