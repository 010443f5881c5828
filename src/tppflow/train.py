"""Full-batch maximum-likelihood training: Adam, plateau learning-rate
halving, early stopping on validation loss, and a finite-difference gradient
checker."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .seqdata import DatasetSplit, PaddedBatch, pad_batch
from .tpp import TppModel, log_prob, log_prob_grad

__all__ = [
    "TrainConfig",
    "AdamState",
    "adam_step",
    "fit_mle",
    "grad_check",
    "GradCheckReport",
    "nll_per_event",
]

ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8
REL_IMPROVEMENT = 1e-6


@dataclass
class TrainConfig:
    lr: float = 1e-2
    l2: float = 0.0
    max_epochs: int = 5000
    plateau_patience: int = 100
    early_stop_patience: int = 300

    def __post_init__(self):
        if self.lr <= 0 or self.max_epochs < 1:
            raise ValueError("lr must be > 0 and max_epochs >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ValueError("patience values must be >= 1")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(values: np.ndarray, grads: np.ndarray, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns (new values, new state)."""
    if values.shape != grads.shape or values.shape != state.m.shape:
        raise ValueError("parameter, gradient and state shapes must match")
    t = state.step + 1
    m = ADAM_B1 * state.m + (1.0 - ADAM_B1) * grads
    v = ADAM_B2 * state.v + (1.0 - ADAM_B2) * grads * grads
    mhat = m / (1.0 - ADAM_B1**t)
    vhat = v / (1.0 - ADAM_B2**t)
    new_values = values - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return new_values, AdamState(m, v, t)


def nll_per_event(model: TppModel, batch: PaddedBatch, n_avg: float) -> float:
    """Mean negative log density divided by the reference event count."""
    return float(-log_prob(model, batch).mean() / n_avg)


@dataclass
class TrainResult:
    model: TppModel
    n_avg: float                                  # mean events per training sequence (>= 1)
    history: list = field(default_factory=list)   # (epoch, train_nll, val_nll, lr)
    test_nll: float | None = None


def fit_mle(model: TppModel, split: DatasetSplit, config: TrainConfig) -> TrainResult:
    """Minimize mean NLL / N_avg (+ L2) by full-batch Adam.

    The learning rate halves after ``plateau_patience`` iterations without
    train-loss improvement; training stops at ``max_epochs`` or once the
    validation loss has not improved for ``early_stop_patience`` epochs.
    """
    if not split.train:
        raise ValueError("training split is empty")
    train_batch = pad_batch(split.train)
    val_batch = pad_batch(split.val) if split.val else None
    n_avg = max(float(train_batch.mask.sum() / train_batch.batch_size), 1.0)
    b = train_batch.batch_size

    model = model.copy()
    state = AdamState.zeros(model.params.size)
    lr = config.lr
    best_train = np.inf
    best_val = np.inf
    plateau = 0
    stall = 0
    history = []

    for epoch in range(config.max_epochs):
        lp, grad_lp = log_prob_grad(model, train_batch)
        train_loss = float(-lp.mean() / n_avg + config.l2 * (model.params.values**2).sum())
        grad = -grad_lp / (b * n_avg) + 2.0 * config.l2 * model.params.values

        val_loss = train_loss if val_batch is None else float(
            -log_prob(model, val_batch).mean() / n_avg)
        history.append((epoch, train_loss, val_loss, lr))

        if val_loss < best_val * (1.0 - REL_IMPROVEMENT) or epoch == 0:
            best_val = val_loss
            stall = 0
        else:
            stall += 1
            if stall >= config.early_stop_patience:
                break

        if train_loss < best_train * (1.0 - REL_IMPROVEMENT):
            best_train = train_loss
            plateau = 0
        else:
            plateau += 1
            if plateau >= config.plateau_patience:
                lr *= 0.5
                plateau = 0

        model.params.values, state = adam_step(model.params.values, grad, state, lr)

    result = TrainResult(model, n_avg, history)
    if split.test:
        result.test_nll = nll_per_event(model, pad_batch(split.test), n_avg)
    return result


@dataclass
class GradCheckReport:
    worst_rel: float
    worst_slice: str
    per_slice: dict
    passed: bool

    def __str__(self):
        lines = [f"{'slice':12s} {'max rel err':>12s}"]
        for name, err in self.per_slice.items():
            lines.append(f"{name:12s} {err:12.3e}")
        lines.append(f"worst: {self.worst_slice} ({self.worst_rel:.3e}) -> "
                     f"{'ok' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def grad_check(model: TppModel, batch: PaddedBatch, h: float = 1e-5,
               tolerance: float = 1e-5) -> GradCheckReport:
    """Central-difference check of the summed log density gradient.

    Reports the worst relative error per named parameter slice; raises
    nothing, the caller decides what to do with a failing report.
    """
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    _, grad = log_prob_grad(model, batch)
    values = model.params.values

    def loss_at(v):
        probe = TppModel(model.spec, type(model.params)(model.params.names,
                                                        model.params.slices, v),
                         model.horizon)
        return float(log_prob(probe, batch).sum())

    numeric = np.zeros_like(grad)
    for i in range(values.size):
        e = np.zeros_like(values)
        e[i] = h
        numeric[i] = (loss_at(values + e) - loss_at(values - e)) / (2.0 * h)

    per_slice = {}
    worst_rel, worst_slice = 0.0, "(none)"
    for name in model.params.names:
        sl = model.params.slices[name]
        a, n = grad[sl], numeric[sl]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        rel = float((np.abs(a - n) / denom).max()) if a.size else 0.0
        per_slice[name] = rel
        if rel > worst_rel:
            worst_rel, worst_slice = rel, name
    return GradCheckReport(worst_rel, worst_slice, per_slice, worst_rel < tolerance)
