"""Markov-modulated Poisson processes: simulation, exact likelihood terms,
forward-backward state inference, a relaxed evidence lower bound with
reparametrized gradients, variational fitting with a flow posterior over the
jump times, a uniformization Gibbs sampler and a fine-grid discretization
oracle."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import softmax

from . import tpp
from .rng import stream
from .splines import sigmoid
from .tpp import TppModel
from .models import ModelKind, build_model

__all__ = [
    "MmppParams",
    "Trajectory",
    "HmmPosterior",
    "simulate_mmpp",
    "traj_log_prob",
    "obs_log_prob",
    "forward_backward",
    "ElboEstimate",
    "elbo_relaxed",
    "ViConfig",
    "ViResult",
    "fit_vi",
    "posterior_curves",
    "rao_teh_posterior",
    "grid_posterior",
    "grid_times",
]


@dataclass(frozen=True)
class MmppParams:
    """Initial distribution pi, transition-rate matrix A (self-jumps allowed)
    and per-state observation rates lam."""

    pi: np.ndarray
    A: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        lam = np.asarray(self.lam, dtype=np.float64)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "lam", lam)
        k = pi.size
        if A.shape != (k, k) or lam.shape != (k,):
            raise ValueError(f"inconsistent shapes: pi {pi.shape}, A {A.shape}, lam {lam.shape}")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-10:
            raise ValueError("pi must be a probability vector")
        if np.any(A <= 0):
            raise ValueError("all transition rates must be > 0")
        if np.any(lam <= 0):
            raise ValueError("all observation rates must be > 0")

    @property
    def n_states(self) -> int:
        return self.pi.size

    @property
    def total_rates(self) -> np.ndarray:
        """Per-state total jump rate (row sums, self-jumps included)."""
        return self.A.sum(axis=1)


@dataclass
class Trajectory:
    """Piecewise-constant latent path: N jump times and N+1 visited states."""

    jump_times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        self.jump_times = np.asarray(self.jump_times, dtype=np.float64).reshape(-1)
        self.states = np.asarray(self.states, dtype=np.int64).reshape(-1)
        if self.states.size != self.jump_times.size + 1:
            raise ValueError("need exactly one more state than jump times")

    def state_at(self, times: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.jump_times, np.asarray(times), side="right")
        return self.states[idx]


@dataclass
class HmmPosterior:
    """Exact state posterior given jump times: per-segment marginals and
    per-transition pairwise marginals."""

    marginals: np.ndarray   # (n_segments, K)
    pairwise: np.ndarray    # (n_segments - 1, K, K)


def simulate_mmpp(params: MmppParams, horizon: float, seed: int):
    """Draw a latent trajectory and its Poisson observations."""
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    rng = stream(seed, 4)
    totals = params.total_rates
    s = int(rng.choice(params.n_states, p=params.pi))
    t = 0.0
    jumps, states = [], [s]
    while True:
        t += rng.exponential(1.0 / totals[s])
        if t >= horizon:
            break
        jumps.append(t)
        s = int(rng.choice(params.n_states, p=params.A[s] / totals[s]))
        states.append(s)
    traj = Trajectory(np.asarray(jumps), np.asarray(states), horizon)

    bounds = np.concatenate([[0.0], traj.jump_times, [horizon]])
    obs = []
    for i, st in enumerate(traj.states):
        length = bounds[i + 1] - bounds[i]
        n = rng.poisson(params.lam[st] * length)
        obs.append(bounds[i] + length * np.sort(rng.uniform(size=n)))
    return traj, np.concatenate(obs) if obs else np.zeros(0)


def traj_log_prob(traj: Trajectory, params: MmppParams) -> float:
    """log p(jumps, states): initial + transitions + exponential survivals."""
    if np.any(traj.states < 0) or np.any(traj.states >= params.n_states):
        raise ValueError("state index out of range")
    bounds = np.concatenate([[0.0], traj.jump_times, [traj.horizon]])
    deltas = np.diff(bounds)
    out = float(np.log(params.pi[traj.states[0]]))
    if traj.jump_times.size:
        out += float(np.log(params.A[traj.states[:-1], traj.states[1:]]).sum())
    out -= float((deltas * params.total_rates[traj.states]).sum())
    return out


def obs_log_prob(obs: np.ndarray, traj: Trajectory, lam: np.ndarray) -> float:
    """log p(observations | trajectory): per-segment Poisson likelihoods."""
    lam = np.asarray(lam, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    bounds = np.concatenate([[0.0], traj.jump_times, [traj.horizon]])
    deltas = np.diff(bounds)
    seg = np.searchsorted(traj.jump_times, obs, side="right")
    counts = np.bincount(seg, minlength=traj.states.size)
    rates = lam[traj.states]
    return float((counts * np.log(rates)).sum() - (deltas * rates).sum())


# ---------------------------------------------------------------------------
# forward-backward over segments (batched, with skip steps), plus its VJP


def _checked_obs(obs, horizon):
    """Observation times as a flat float array; each must lie in [0, horizon]."""
    obs = np.asarray(obs, dtype=np.float64).reshape(-1)
    bad = ~((obs >= 0) & (obs <= horizon))
    if bad.any():
        raise ValueError(f"observations must be finite and lie in [0, {horizon}], "
                         f"got {float(obs[bad][0])}")
    return obs


def _segment_potentials(obs, boundaries, params):
    """phi[s, i, k] = -delta_i (A_k + lam_k) + count_i log lam_k.

    Segment i is [b_i, b_{i+1}); observations before b_1 count in the first
    segment and those at or after b_n in the last.  With #(obs < b_j) for the
    inner boundaries of every row, each count is a difference of neighbours.
    """
    deltas = np.diff(boundaries, axis=1)
    n = deltas.shape[1]
    obs = np.sort(obs)
    below = np.searchsorted(obs, boundaries[:, 1:n])
    counts = np.diff(below, axis=1, prepend=0, append=obs.size).astype(np.float64)
    rate_term = params.total_rates + params.lam
    phi = -deltas[:, :, None] * rate_term[None, None, :] \
        + counts[:, :, None] * np.log(params.lam)[None, None, :]
    return phi, deltas, counts


def _lse(a, axis):
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _fb_forward(log_pi, log_a, phi, real):
    """Scaled forward-backward (Rabiner 1989) in probability space, with
    per-step skip masks.

    ``real[s, i]`` marks whether transition i (state i -> i+1) exists; a
    skipped step copies the state, so the chain behaves as if the fake
    segments were never there.  With P = exp(log_a) and
    E_i = exp(phi_i - max_k phi_ik) (log_pi folded into phi_0), step i forms
    a_i = (a_{i-1} P) E_i, or a_{i-1} E_i on a skip, and divides it by
    c_i = sum_k a_ik; the backward pass mirrors it with P.T and the same
    c_i.  Then log Z = sum_i log c_i + sum_i max_k phi_ik, mu_i = a_i b_i and
    xi_i = a_i (x) P (x) E_{i+1} b_{i+1} / c_{i+1}, with the identity in
    place of P on a skip, which makes xi_i = diag(mu_i).

    The recursion runs step-major, on (N, K, S) arrays.  Returns the
    marginals (S, N, K) and pairwise marginals (S, N-1, K, K) as views of
    them, log Z (S,) and the tape that ``_fb_vjp`` reads.
    """
    s, n, k = phi.shape
    e = phi.transpose(1, 2, 0).copy()
    e[0] += log_pi[:, None]
    top = e.max(axis=1)
    e -= top[:, None]
    np.exp(e, out=e)
    real = real.T
    p = np.exp(log_a)
    alpha = np.empty((n, k, s))
    c = np.empty((n, s))
    x = e[0]
    for i in range(n):
        if i:
            x = np.where(real[i - 1], p.T @ alpha[i - 1], alpha[i - 1])
            x *= e[i]
        c[i] = x.sum(axis=0)
        np.divide(x, c[i], out=alpha[i])
    # backward pass: v[i] = E_{i+1} b_{i+1} / c_{i+1} takes the place of E_{i+1}
    v = e[1:]
    mu = np.empty((n, k, s))
    mu[n - 1] = alpha[n - 1]
    b = 1.0
    for i in range(n - 2, -1, -1):
        v[i] *= b
        v[i] /= c[i + 1]
        b = np.where(real[i], p @ v[i], v[i])
        np.multiply(alpha[i], b, out=mu[i])
    log_z = np.log(c).sum(axis=0) + top.sum(axis=0)
    xi = alpha[:-1, :, None] * v[:, None]
    xi *= p[:, :, None]
    # a skip's pairwise is diag(mu_i): its off-diagonal is 0
    xi *= real[:, None, None]
    diag = np.arange(k)
    xi[:, diag, diag] += np.where(real[:, None], 0.0, mu[:-1])
    tape = (real, p, alpha, v, mu, xi)
    return mu.transpose(2, 0, 1), xi.transpose(3, 0, 1, 2), log_z, tape


def _fb_vjp(tape, g_mu, g_xi):
    """Cotangents on (marginals, pairwise) back to (phi, log_pi, log_a).

    g_alpha and g_beta are the cotangents on the log-space forward and
    backward variables.  Their step weights are ratios of the scaled
    quantities: W[j, k] = P[j, k] v[k] / (P v)[j] reverses a backward step
    and W[j, k] = a[j] P[j, k] / (a P)[k] a forward one, the identity on a
    skip.  Each step is one (K, K) @ (K, S) product; the log_a cotangent is
    one contraction per direction after its loop.
    """
    real, p, alpha, v, mu, xi = tape
    n, k, s = alpha.shape
    g_xi = g_xi.transpose(1, 2, 3, 0)
    # a skip's pairwise is diag(mu); its cotangent moves onto mu
    e = g_mu.transpose(1, 2, 0).copy()
    e[:-1] += np.where(real[:, None], 0.0, np.einsum("ijjs->ijs", g_xi))
    e *= mu
    pw = g_xi * xi
    pw *= real[:, None, None]
    g_la = pw.sum(axis=(0, 3))
    g_alpha = e.copy()
    g_alpha[:-1] += pw.sum(axis=2)
    g_beta = e.copy()
    g_beta[1:] += pw.sum(axis=1)
    # d log Z / d log alpha_{N-1} = a_{N-1}
    g_alpha[n - 1] -= alpha[n - 1] * (e.sum(axis=(0, 1)) + pw.sum(axis=(0, 1, 2)))
    del pw    # the loops' arrays can take its place

    # reverse of the backward recursion (computed descending, reversed ascending)
    pv = p @ v
    u = np.zeros((n - 1, k, s))
    for i in range(n - 1):
        np.divide(g_beta[i], pv[i], out=u[i], where=real[i])
        g_beta[i + 1] += np.where(real[i], v[i] * (p.T @ u[i]), g_beta[i])

    # reverse of the forward recursion (computed ascending, reversed descending)
    pred = p.T @ alpha[:-1]
    w = np.zeros((n - 1, k, s))
    for i in range(n - 1, 0, -1):
        np.divide(g_alpha[i], pred[i - 1], out=w[i - 1], where=real[i - 1])
        g_alpha[i - 1] += np.where(real[i - 1], alpha[i - 1] * (p @ w[i - 1]), g_alpha[i])

    g_la += p * (np.einsum("ijs,iks->jk", u, v) + np.einsum("ijs,iks->jk", alpha[:-1], w))
    g_phi = g_alpha + g_beta - e
    return g_phi.transpose(2, 0, 1), g_alpha[0].sum(axis=1), g_la


def forward_backward(obs: np.ndarray, jump_times: np.ndarray, params: MmppParams,
                     horizon: float):
    """Exact state posterior and log evidence for fixed jump times.

    The evidence is the joint density of (jump survivals/transitions,
    observations) summed over state paths.
    """
    jump_times = np.asarray(jump_times, dtype=np.float64).reshape(-1)
    obs = _checked_obs(obs, horizon)
    if jump_times.size and (np.any(np.diff(jump_times) <= 0)
                            or jump_times[0] <= 0 or jump_times[-1] >= horizon):
        raise ValueError("jump times must be strictly increasing inside (0, horizon)")
    boundaries = np.concatenate([[0.0], jump_times, [horizon]])[None, :]
    phi, _, _ = _segment_potentials(obs, boundaries, params)
    real = np.ones((1, phi.shape[1] - 1), dtype=bool)
    mu, xi, log_z, _ = _fb_forward(np.log(params.pi), np.log(params.A), phi, real)
    return HmmPosterior(mu[0], xi[0]), float(log_z[0])


# ---------------------------------------------------------------------------
# relaxed ELBO


def _log0(x):
    """log x where x > 0, else 0 (so x * _log0(x) is x log x with 0 log 0 = 0)."""
    return np.log(np.where(x > 0, x, 1.0))


# sigmoid(x) is exactly 1.0 in float64 once exp(-x) <= 2**-53, i.e. for
# x >= 53 log 2 ~ 36.74, and below e**-37 ~ 8.5e-17 for x <= -37.
_SOFT_REACH = 37.0
_SOFT_CHUNK = 1 << 20   # most window terms evaluated at once


def _soft_counts(boundaries, obs, gamma):
    """Soft per-segment observation counts and the boundary sigmoid sums.

    sb[r, j] = sum_i sigmoid((b_rj - o_i) / gamma) and sbp[r, j] is the same
    sum of the sigmoid's derivative in b.  Observations below b - 37 gamma add
    exactly 1 (and 0 to sbp), so they enter as a count; those above
    b + 37 gamma are dropped, at most M e**-37 per boundary for M
    observations.
    Only the window in between is evaluated, once per distinct boundary
    (every row starts at 0 and padded rows repeat the horizon), with the
    windows of all boundaries laid end to end.
    """
    b, which = np.unique(boundaries.ravel(), return_inverse=True)
    obs = np.sort(obs)
    reach = _SOFT_REACH * gamma
    lo = np.searchsorted(obs, b - reach)
    width = np.searchsorted(obs, b + reach) - lo
    ends = np.cumsum(width)
    sb = lo.astype(np.float64)
    sbp = np.zeros(b.size)
    start = 0
    while start < b.size:
        # boundaries [start, stop) hold at most _SOFT_CHUNK terms, or are one boundary
        first = ends[start] - width[start]
        stop = max(start + 1, int(np.searchsorted(ends, first + _SOFT_CHUNK, side="right")))
        w = width[start:stop]
        row = np.repeat(np.arange(w.size), w)
        idx = np.repeat(lo[start:stop] - (ends[start:stop] - w - first), w)
        idx += np.arange(row.size)
        x = b[start:stop][row] - obs[idx]
        x /= gamma
        sig = sigmoid(x)
        sb[start:stop] += np.bincount(row, sig, minlength=w.size)
        sig *= 1.0 - sig
        sbp[start:stop] = np.bincount(row, sig, minlength=w.size)
        start = stop
    sb = sb[which].reshape(boundaries.shape)
    sbp = (sbp / gamma)[which].reshape(boundaries.shape)
    return sb[:, 1:] - sb[:, :-1], sb, sbp


@dataclass
class ElboEstimate:
    value: float
    grad_q: np.ndarray | None
    grad_pi: np.ndarray | None
    grad_a: np.ndarray | None
    grad_lam: np.ndarray | None
    per_sample: np.ndarray = field(default=None, repr=False)


def elbo_relaxed(q_model: TppModel, params: MmppParams, obs: np.ndarray, n_samples: int,
                 gamma: float, seed: int = 0, hard: bool = False,
                 draws: np.ndarray | None = None, want_grads: bool = True) -> ElboEstimate:
    """Monte Carlo evidence lower bound for the jump-time posterior.

    Jump times are sampled from ``q_model`` by inversion and clipped at the
    horizon; the state posterior given each sample is computed exactly by
    forward-backward on the clipped chain.  With ``hard=True`` every
    indicator keeps its exact 0/1 value (the estimator of the bound itself);
    otherwise indicators gating transitions, the state entropy, the sample
    log density and the observation-to-segment assignment are relaxed with
    sigmoids at temperature ``gamma``, which makes the estimate
    differentiable in the parameters of ``q_model`` (and of the model).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    obs = _checked_obs(obs, q_model.horizon)
    k = params.n_states

    if draws is None:
        t_ext, _ = tpp.draw_extended(q_model, n_samples, seed)
    else:
        t_ext = tpp.inverse_map(q_model, draws)
    paths = tpp.prepare_paths(q_model, t_ext, gamma)
    s, n = t_ext.shape
    gates = paths.hard_mask if hard else paths.soft_mask

    boundaries = np.concatenate([np.zeros((s, 1)), paths.clipped], axis=1)
    phi, deltas, counts = _segment_potentials(obs, boundaries, params)
    if hard:
        c_obs, sb, sbp = counts, None, None
    else:
        c_obs, sb, sbp = _soft_counts(boundaries, obs, gamma)
    real = paths.hard_mask[:, :n - 1].astype(bool)
    log_pi, log_a, log_lam = np.log(params.pi), np.log(params.A), np.log(params.lam)
    mu, xi, log_z, tape = _fb_forward(log_pi, log_a, phi, real)

    totals = params.total_rates
    t1 = mu[:, 0] @ log_pi
    t2 = -(deltas * (mu @ totals)).sum(axis=1)
    t5 = -(deltas * (mu @ params.lam)).sum(axis=1)
    t4 = (c_obs * (mu @ log_lam)).sum(axis=1)
    log_mu0 = _log0(mu[:, 0])
    t6 = -(mu[:, 0] * log_mu0).sum(axis=1)
    if n > 1:
        t3 = (gates[:, :n - 1] * (xi * log_a[None, None]).sum(axis=(2, 3))).sum(axis=1)
        # log of the transition posterior xi / mu_from, shared by the pair
        # entropy and its cotangent
        log_cond = _log0(xi)
        log_cond -= _log0(mu[:, :-1, :, None])
        ent_pair = (xi * log_cond).sum(axis=(2, 3))
        t6 -= (gates[:, :n - 1] * ent_pair).sum(axis=1)
    else:
        t3 = np.zeros(s)
    log_q = tpp.path_log_density(paths, relaxed=not hard)
    per_sample = t1 + t2 + t3 + t4 + t5 + t6 - log_q
    value = float(per_sample.mean())
    if not want_grads:
        return ElboEstimate(value, None, None, None, None, per_sample)

    # ----- gradients -----------------------------------------------------
    inv_s = 1.0 / s
    g_mu = np.zeros_like(mu)
    g_mu[:, 0] += log_pi[None, :]
    g_mu += (-deltas[:, :, None]) * (totals + params.lam)[None, None, :]
    g_mu += c_obs[:, :, None] * log_lam[None, None, :]
    g_mu[:, 0] += -(log_mu0 + 1.0) * (mu[:, 0] > 0)
    gate_cot = np.zeros((s, max(n - 1, 0)))
    if n > 1:
        g_xi = gates[:, :n - 1, None, None] * (log_a[None, None] - (log_cond + 1.0))
        g_xi = np.where(xi > 0, g_xi, 0.0)
        g_mu[:, :-1] += gates[:, :n - 1, None] * np.where(
            mu[:, :-1] > 0, xi.sum(axis=3) / np.where(mu[:, :-1] > 0, mu[:, :-1], 1.0), 0.0)
        gate_cot += (xi * log_a[None, None]).sum(axis=(2, 3)) - ent_pair
    else:
        g_xi = np.zeros((s, 0, k, k))

    g_phi, g_lp, g_la = _fb_vjp(tape, g_mu, g_xi)

    # theta gradients in natural coordinates
    grad_pi = (mu[:, 0].sum(axis=0) / params.pi + g_lp / params.pi) * inv_s
    grad_a = np.zeros((k, k))
    grad_a += -((deltas[:, :, None] * mu).sum(axis=(0, 1)))[:, None]   # survival, row sums
    if n > 1:
        grad_a += (gates[:, :n - 1, None, None] * xi).sum(axis=(0, 1)) / params.A
    grad_a += g_la / params.A
    grad_a += -(g_phi * deltas[:, :, None]).sum(axis=(0, 1))[:, None]
    grad_a *= inv_s
    grad_lam = (c_obs[:, :, None] * mu).sum(axis=(0, 1)) / params.lam \
        - (deltas[:, :, None] * mu).sum(axis=(0, 1)) \
        + (g_phi * (-deltas[:, :, None] + counts[:, :, None] / params.lam)).sum(axis=(0, 1))
    grad_lam *= inv_s

    # cotangents on segment lengths -> clipped times
    g_delta = -(mu @ (totals + params.lam)) - (g_phi * (totals + params.lam)[None, None, :]).sum(axis=2)
    g_b = np.zeros((s, n + 1))
    g_b[:, 1:] += g_delta
    g_b[:, :-1] -= g_delta
    if not hard:
        g_csoft = mu @ log_lam
        pad = np.zeros((s, 1))
        g_sb = np.concatenate([-g_csoft, pad], axis=1) + np.concatenate([pad, g_csoft], axis=1)
        g_b += g_sb * sbp
    g_tclip = g_b[:, 1:] * inv_s

    g_mask = None
    g_jext = -(gates * inv_s)
    g_zbar = np.zeros((s, n))
    g_zbar[:, -1] = inv_s
    if not hard:
        g_mask = -paths.jext.copy()
        g_mask[:, :n - 1] += gate_cot
        g_mask *= inv_s
    grad_q = tpp.path_gradients(paths, g_mask=g_mask, g_tclip=g_tclip,
                                g_jext=g_jext, g_zbar=g_zbar)
    return ElboEstimate(value, grad_q, grad_pi, grad_a, grad_lam, per_sample)


# ---------------------------------------------------------------------------
# variational fitting


@dataclass
class ViConfig:
    lr: float = 0.01
    iters: int = 300
    mc_samples: int = 512
    gamma: float = 0.1
    seed: int = 0
    n_knots: int = 10
    block_size: int = 4
    n_blocks: int = 2


@dataclass
class ViResult:
    q_model: TppModel
    params: MmppParams
    elbo_history: list


def _default_q(params: MmppParams, horizon: float, config: ViConfig) -> TppModel:
    rate = float(params.pi @ params.total_rates)
    kind = ModelKind("tritpp", horizon, n_knots=config.n_knots,
                     block_size=config.block_size, n_blocks=config.n_blocks,
                     rate_init=max(rate, 1e-3))
    return build_model(kind)


def fit_vi(obs: np.ndarray, params: MmppParams, horizon: float, mode: str = "posterior",
           config: ViConfig = ViConfig(), q_model: TppModel | None = None) -> ViResult:
    """Stochastic gradient ascent on the relaxed bound.

    ``mode="posterior"`` learns only the jump-time posterior; ``mode="learn"``
    also updates the model parameters through unconstrained coordinates
    (softmax for pi, log for the rates).
    """
    from .train import AdamState, adam_step

    if mode not in ("posterior", "learn"):
        raise ValueError(f"mode must be 'posterior' or 'learn', got {mode!r}")
    q = (q_model or _default_q(params, horizon, config)).copy()
    k = params.n_states
    u_pi = np.log(params.pi + 1e-12)
    u_a = np.log(params.A)
    u_lam = np.log(params.lam)
    st_q = AdamState.zeros(q.params.size)
    st_t = AdamState.zeros(k + k * k + k)
    history = []
    for it in range(config.iters):
        cur = MmppParams(softmax(u_pi), np.exp(u_a), np.exp(u_lam))
        est = elbo_relaxed(q, cur, obs, config.mc_samples, config.gamma,
                           seed=config.seed * 1_000_003 + it)
        if not np.isfinite(est.value) or not np.all(np.isfinite(est.grad_q)):
            raise RuntimeError(f"ELBO diverged at iteration {it}: value={est.value}")
        history.append(est.value)
        q.params.values, st_q = adam_step(q.params.values, -est.grad_q, st_q, config.lr)
        if mode == "learn":
            pi = softmax(u_pi)
            g_upi = pi * (est.grad_pi - float(pi @ est.grad_pi))
            g_ua = np.exp(u_a) * est.grad_a
            g_ulam = np.exp(u_lam) * est.grad_lam
            flat = np.concatenate([u_pi, u_a.ravel(), u_lam])
            gflat = -np.concatenate([g_upi, g_ua.ravel(), g_ulam])
            flat, st_t = adam_step(flat, gflat, st_t, config.lr)
            u_pi, u_a, u_lam = flat[:k], flat[k:k + k * k].reshape(k, k), flat[k + k * k:]
    final = MmppParams(softmax(u_pi), np.exp(u_a), np.exp(u_lam))
    return ViResult(q, final, history)


def grid_times(horizon: float, n_grid: int) -> np.ndarray:
    """Cell centers of a uniform grid on [0, horizon]."""
    dt = horizon / n_grid
    return (np.arange(n_grid) + 0.5) * dt


def posterior_curves(q_model: TppModel, params: MmppParams, obs: np.ndarray,
                     n_grid: int = 200, n_samples: int = 512, seed: int = 0) -> np.ndarray:
    """Marginal state occupancy E_q[ 1(s(t) = k) ] on the evaluation grid."""
    obs = _checked_obs(obs, q_model.horizon)
    t_ext, _ = tpp.draw_extended(q_model, n_samples, seed)
    paths = tpp.prepare_paths(q_model, t_ext, None)
    s, n = t_ext.shape
    boundaries = np.concatenate([np.zeros((s, 1)), paths.clipped], axis=1)
    phi, _, _ = _segment_potentials(obs, boundaries, params)
    real = paths.hard_mask[:, :n - 1].astype(bool)
    mu, _, _, _ = _fb_forward(np.log(params.pi), np.log(params.A), phi, real)
    grid = grid_times(q_model.horizon, n_grid)
    out = np.zeros((n_grid, params.n_states))
    for r in range(s):
        seg = np.clip(np.searchsorted(paths.clipped[r], grid, side="right"), 0, n - 1)
        out += mu[r, seg]
    return out / s


# ---------------------------------------------------------------------------
# uniformization Gibbs sampler


def rao_teh_posterior(obs: np.ndarray, params: MmppParams, horizon: float,
                      n_samples: int = 1000, burn_in: int = 100, seed: int = 0,
                      n_grid: int = 200, omega: float | None = None) -> np.ndarray:
    """Posterior state occupancy by uniformization Gibbs sampling.

    Alternates (i) resampling virtual jump candidates at the thinned rate
    given the current trajectory with (ii) an exact forward-filter
    backward-sample over the candidate grid.  Returns occupancy curves
    averaged over the retained trajectories.
    """
    obs = np.asarray(obs, dtype=np.float64).reshape(-1)
    k = params.n_states
    totals = params.total_rates
    leave = totals - np.diag(params.A)
    if omega is None:
        omega = 2.0 * float(totals.max())
    if omega <= float(totals.max()):
        raise ValueError(f"uniformization rate {omega} must exceed max total rate "
                         f"{float(totals.max())}")
    b_mat = params.A / omega
    np.fill_diagonal(b_mat, np.diag(params.A) / omega + 1.0 - totals / omega)
    rng = stream(seed, 5)
    grid = grid_times(horizon, n_grid)
    occupancy = np.zeros((n_grid, k))

    traj = Trajectory(np.zeros(0), np.array([int(np.argmax(params.pi))]), horizon)
    kept = 0
    for sweep in range(burn_in + n_samples):
        # (i) virtual candidates at rate omega - leave(state) per segment
        bounds = np.concatenate([[0.0], traj.jump_times, [horizon]])
        virtual = []
        for i, st in enumerate(traj.states):
            rate = omega - leave[st]
            length = bounds[i + 1] - bounds[i]
            n_v = rng.poisson(rate * length)
            virtual.append(bounds[i] + length * np.sort(rng.uniform(size=n_v)))
        w = np.unique(np.concatenate([traj.jump_times] + virtual))
        # (ii) forward filter over segments cut by w, then backward sample
        seg_bounds = np.concatenate([[0.0], w, [horizon]])
        deltas = np.diff(seg_bounds)
        seg = np.clip(np.searchsorted(w, obs, side="right"), 0, deltas.size - 1)
        counts = np.bincount(seg, minlength=deltas.size)
        log_e = -deltas[:, None] * params.lam[None, :] \
            + counts[:, None] * np.log(params.lam)[None, :]
        m = deltas.size
        fwd = np.empty((m, k))
        a = np.log(params.pi) + log_e[0]
        a -= a.max()
        fwd[0] = a
        log_b = np.log(b_mat)
        for i in range(1, m):
            a = _lse(fwd[i - 1][:, None] + log_b, axis=0) + log_e[i]
            a -= a.max()
            fwd[i] = a
        states = np.empty(m, dtype=np.int64)
        p = np.exp(fwd[m - 1] - _lse(fwd[m - 1], axis=0))
        states[m - 1] = rng.choice(k, p=p / p.sum())
        for i in range(m - 2, -1, -1):
            lw = fwd[i] + log_b[:, states[i + 1]]
            p = np.exp(lw - lw.max())
            states[i] = rng.choice(k, p=p / p.sum())
        changed = np.nonzero(states[1:] != states[:-1])[0]
        traj = Trajectory(w[changed], np.concatenate([[states[0]], states[changed + 1]]),
                          horizon)
        if sweep >= burn_in:
            occupancy[np.arange(n_grid), traj.state_at(grid)] += 1.0
            kept += 1
    return occupancy / kept


# ---------------------------------------------------------------------------
# fine-grid discretization oracle


def grid_posterior(params: MmppParams, obs: np.ndarray, horizon: float, n_cells: int = 2000):
    """Exact-in-the-limit HMM on a uniform time grid.

    The latent chain is discretized with the true matrix exponential of the
    effective generator; within-cell state changes are the only approximation.
    Returns (occupancy curves at the cell centers, log evidence).
    """
    obs = np.asarray(obs, dtype=np.float64).reshape(-1)
    k = params.n_states
    dt = horizon / n_cells
    q_gen = params.A.copy()
    np.fill_diagonal(q_gen, 0.0)
    np.fill_diagonal(q_gen, -q_gen.sum(axis=1))
    log_p = np.log(expm(q_gen * dt))
    cell = np.clip((obs / dt).astype(np.int64), 0, n_cells - 1)
    counts = np.bincount(cell, minlength=n_cells)
    log_e = -params.lam[None, :] * dt + counts[:, None] * np.log(params.lam)[None, :]

    alpha = np.empty((n_cells, k))
    norms = np.empty(n_cells)
    a = np.log(params.pi) + log_e[0]
    norms[0] = a.max()
    alpha[0] = a - norms[0]
    for i in range(1, n_cells):
        a = _lse(alpha[i - 1][:, None] + log_p, axis=0) + log_e[i]
        norms[i] = a.max()
        alpha[i] = a - norms[i]
    log_z = float(_lse(alpha[-1], axis=0) + norms.sum())
    beta = np.zeros((n_cells, k))
    for i in range(n_cells - 2, -1, -1):
        b = _lse(log_p + (log_e[i + 1] + beta[i + 1])[None, :], axis=1)
        beta[i] = b - b.max()
    lm = alpha + beta
    lm -= lm.max(axis=1, keepdims=True)
    mu = np.exp(lm)
    mu /= mu.sum(axis=1, keepdims=True)
    return mu, log_z
