"""Model factory: the layer chains of the supported process families and
versioned JSON checkpoints."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import transforms as tr
from .tpp import TppModel

__all__ = [
    "ModelKind",
    "build_model",
    "save_checkpoint",
    "load_checkpoint",
]

KINDS = ("hpp", "ipp", "rp", "mrp", "tritpp")


@dataclass(frozen=True)
class ModelKind:
    """Which chain to build and with which hyperparameters.

    ``rate_init`` is the homogeneous-Poisson rate the freshly built model is
    exactly equal to (all learnable layers start at the identity).
    """

    kind: str
    horizon: float
    n_knots: int = 10
    block_size: int = 8
    n_blocks: int = 2
    rate_init: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {KINDS}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.n_knots < 2:
            raise ValueError(f"n_knots must be >= 2, got {self.n_knots}")
        if self.kind == "tritpp":
            if self.block_size < 2 or self.block_size % 2:
                raise ValueError(f"block_size must be even and >= 2, got {self.block_size}")
            if self.n_blocks < 1:
                raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.rate_init <= 0:
            raise ValueError(f"rate_init must be > 0, got {self.rate_init}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelKind":
        return cls(**d)


def _layers(kind: ModelKind) -> tuple:
    t, k = kind.horizon, kind.n_knots
    if kind.kind == "hpp":
        return (tr.Scale("rate"),)
    if kind.kind == "ipp":
        # elementwise cumulative intensity T -> [0, rate*T], learnable shape
        return (tr.FixedScale(1.0 / t), tr.Spline("g1", k), tr.Scale("rate"))
    if kind.kind == "rp":
        # iid inter-event times through a learnable hazard
        return (tr.Diff(), tr.Scale("rate"), tr.Bridge("psi"), tr.Spline("g2", k),
                tr.Bridge("psi_inv"), tr.Cumsum())
    if kind.kind == "mrp":
        return (tr.FixedScale(1.0 / t), tr.Spline("g1", k), tr.Scale("rate"), tr.Diff(),
                tr.Bridge("psi"), tr.Spline("g2", k), tr.Bridge("psi_inv"), tr.Cumsum())
    blocks = tuple(
        tr.BlockDiag(f"b{i + 1}", kind.block_size, (kind.block_size // 2) * (i % 2))
        for i in range(kind.n_blocks)
    )
    return ((tr.FixedScale(1.0 / t), tr.Spline("g1", k), tr.Scale("rate"), tr.Diff(),
             tr.Bridge("psi"), tr.Spline("g2", k), tr.Bridge("logit"))
            + blocks
            + (tr.Bridge("sigmoid"), tr.Spline("g3", k), tr.Bridge("psi_inv"), tr.Cumsum()))


def build_model(kind: ModelKind) -> TppModel:
    """Identity-initialized model; log densities equal HPP(rate_init) exactly."""
    spec = tr.TransformSpec(_layers(kind))
    store = tr.build_param_store(spec)
    scale = kind.rate_init if kind.kind in ("hpp", "rp") else kind.rate_init * kind.horizon
    store.view("rate")[0] = np.log(scale)
    return TppModel(spec, store, kind.horizon)


def save_checkpoint(path, model: TppModel, kind: ModelKind | None = None,
                    extra: dict | None = None) -> None:
    """Versioned JSON checkpoint: layer list, named slices, flat values."""
    store = model.params
    rec = {
        "format_version": 1,
        "horizon": model.horizon,
        "transform": model.spec.to_dict(),
        "param_names": list(store.names),
        "param_slices": {n: [store.slices[n].start, store.slices[n].stop]
                         for n in store.names},
        "param_values": store.values.tolist(),
        "model_kind": kind.to_dict() if kind is not None else None,
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
        fh.write("\n")


def load_checkpoint(path):
    """Returns (model, kind or None, extra dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    if rec.get("format_version") != 1:
        raise ValueError(f"{path}: unsupported checkpoint version {rec.get('format_version')!r}")
    spec = tr.TransformSpec.from_dict(rec["transform"])
    slices = {n: slice(a, b) for n, (a, b) in rec["param_slices"].items()}
    store = tr.ParamStore(tuple(rec["param_names"]), slices,
                          np.asarray(rec["param_values"], dtype=np.float64))
    model = TppModel(spec, store, float(rec["horizon"]))
    kind = ModelKind.from_dict(rec["model_kind"]) if rec.get("model_kind") else None
    return model, kind, rec.get("extra", {})

