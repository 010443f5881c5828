"""Temporal point processes as increasing triangular maps.

Submodules:
  seqdata     event sequences, file I/O, splits, padding, Poisson simulator
  splines     monotone rational quadratic splines
  transforms  invertible layer chain (forward / inverse / VJP)
  tpp         log densities, inversion sampling, relaxed masks, entropy
  models      model factory, checkpoints
  train       Adam, full-batch MLE, gradient checker
  metrics     counting distance, MMD, Wasserstein over lengths, KS
  mjp         Markov-modulated Poisson processes: ELBO, VI, Gibbs sampler
  cli         command-line entry points

Submodules load lazily so the CLI can cap thread counts before the numeric
stack is imported.
"""
from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("seqdata", "splines", "transforms", "tpp", "models", "train",
               "metrics", "mjp", "cli", "rng")

__all__ = list(_SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
