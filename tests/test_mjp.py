import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import logsumexp

from tppflow import mjp, tpp
from tppflow import transforms as tr
from tppflow.splines import sigmoid
from tppflow.models import ModelKind, build_model


def two_state_params():
    return mjp.MmppParams(np.array([0.3, 0.7]),
                          np.array([[0.2, 0.4], [0.3, 0.1]]),
                          np.array([1.0, 4.0]))


def enumerate_posterior(obs, jumps, params, horizon):
    """Brute-force sum over all state paths (oracle for small chains)."""
    k = params.n_states
    n = len(jumps) + 1
    bounds = np.concatenate([[0.0], jumps, [horizon]])
    deltas = np.diff(bounds)
    counts = np.bincount(np.searchsorted(jumps, obs, side="right"), minlength=n)
    marg = np.zeros((n, k))
    pair = np.zeros((max(n - 1, 0), k, k))
    total = 0.0
    for path in itertools.product(range(k), repeat=n):
        lp = np.log(params.pi[path[0]])
        for i in range(n - 1):
            lp += np.log(params.A[path[i], path[i + 1]])
        for i in range(n):
            lp += (-deltas[i] * (params.total_rates[path[i]] + params.lam[path[i]])
                   + counts[i] * np.log(params.lam[path[i]]))
        w = np.exp(lp)
        total += w
        for i in range(n):
            marg[i, path[i]] += w
        for i in range(n - 1):
            pair[i, path[i], path[i + 1]] += w
    return marg / total, pair / total, float(np.log(total))


def test_params_validation():
    with pytest.raises(ValueError):
        mjp.MmppParams(np.array([0.5, 0.4]), np.full((2, 2), 0.1), np.ones(2))
    with pytest.raises(ValueError):
        mjp.MmppParams(np.array([0.5, 0.5]), np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ValueError):
        mjp.MmppParams(np.array([0.5, 0.5]), np.full((2, 2), 0.1), np.array([1.0, -1.0]))


def test_params_reject_zero_initial_probability():
    # log(pi) would be -inf and the relaxed ELBO's gradients NaN
    with pytest.raises(ValueError, match="pi"):
        mjp.MmppParams([1, 0], [[0.2, 0.4], [0.3, 0.1]], [1, 4])
    with pytest.raises(ValueError, match="pi"):
        mjp.MmppParams([np.nan, 1.0], [[0.2, 0.4], [0.3, 0.1]], [1, 4])


def test_simulate_mmpp_statistics():
    p = mjp.MmppParams(np.array([1.0]), np.array([[0.8]]), np.array([2.0]))
    jumps, obs_counts = [], []
    for s in range(4000):
        traj, obs = mjp.simulate_mmpp(p, 10.0, seed=s)
        jumps.append(traj.jump_times.size)
        obs_counts.append(obs.size)
    jumps, obs_counts = np.array(jumps), np.array(obs_counts)
    assert abs(jumps.mean() - 8.0) < 3 * jumps.std() / np.sqrt(4000)
    assert abs(obs_counts.mean() - 20.0) < 3 * obs_counts.std() / np.sqrt(4000)


def test_simulate_mmpp_determinism():
    p = two_state_params()
    a_traj, a_obs = mjp.simulate_mmpp(p, 8.0, seed=5)
    b_traj, b_obs = mjp.simulate_mmpp(p, 8.0, seed=5)
    assert np.array_equal(a_traj.jump_times, b_traj.jump_times)
    assert np.array_equal(a_traj.states, b_traj.states)
    assert np.array_equal(a_obs, b_obs)


def test_traj_log_prob_closed_forms():
    p1 = mjp.MmppParams(np.array([1.0]), np.array([[0.7]]), np.array([2.0]))
    assert mjp.traj_log_prob(mjp.Trajectory(np.zeros(0), np.array([0]), 10.0), p1) \
        == pytest.approx(-7.0)
    assert mjp.traj_log_prob(mjp.Trajectory(np.array([4.0]), np.array([0, 0]), 10.0), p1) \
        == pytest.approx(np.log(0.7) - 7.0)
    with pytest.raises(ValueError):
        mjp.traj_log_prob(mjp.Trajectory(np.zeros(0), np.array([3]), 10.0), p1)


def test_traj_obs_log_prob_match_direct_assembly(rng):
    p = two_state_params()
    for s in range(10):
        traj, obs = mjp.simulate_mmpp(p, 6.0, seed=100 + s)
        bounds = np.concatenate([[0.0], traj.jump_times, [6.0]])
        lp = np.log(p.pi[traj.states[0]])
        for i in range(traj.jump_times.size):
            lp += np.log(p.A[traj.states[i], traj.states[i + 1]])
        for i, st in enumerate(traj.states):
            lp -= (bounds[i + 1] - bounds[i]) * p.total_rates[st]
        assert mjp.traj_log_prob(traj, p) == pytest.approx(lp, abs=1e-10)

        lo = 0.0
        for i, st in enumerate(traj.states):
            m = np.sum((obs >= bounds[i]) & (obs < bounds[i + 1]))
            lo += m * np.log(p.lam[st]) - (bounds[i + 1] - bounds[i]) * p.lam[st]
        assert mjp.obs_log_prob(obs, traj, p.lam) == pytest.approx(lo, abs=1e-10)


def test_obs_log_prob_k1_closed_forms():
    p1 = mjp.MmppParams(np.array([1.0]), np.array([[0.5]]), np.array([2.0]))
    traj = mjp.Trajectory(np.zeros(0), np.array([0]), 10.0)
    obs = np.array([1.0, 2.0, 3.0])
    assert mjp.obs_log_prob(obs, traj, p1.lam) == pytest.approx(3 * np.log(2.0) - 20.0)
    assert mjp.obs_log_prob(np.zeros(0), traj, p1.lam) == pytest.approx(-20.0)


def test_forward_backward_k1_and_symmetry():
    p1 = mjp.MmppParams(np.array([1.0]), np.array([[0.5]]), np.array([2.0]))
    post, _ = mjp.forward_backward(np.array([1.0]), np.array([2.0, 3.0]), p1, 5.0)
    assert np.allclose(post.marginals, 1.0)
    p_sym = mjp.MmppParams(np.array([0.5, 0.5]), np.full((2, 2), 0.3), np.array([2.0, 2.0]))
    post, _ = mjp.forward_backward(np.zeros(0), np.array([1.0, 2.5]), p_sym, 5.0)
    assert np.allclose(post.marginals, 0.5)


def test_forward_backward_matches_enumeration(rng):
    p = two_state_params()
    for trial in range(30):
        n_jump = int(rng.integers(0, 7))
        jumps = np.sort(rng.uniform(0.1, 4.9, n_jump))
        obs = np.sort(rng.uniform(0, 5.0, int(rng.integers(0, 12))))
        post, lz = mjp.forward_backward(obs, jumps, p, 5.0)
        m_ref, p_ref, lz_ref = enumerate_posterior(obs, jumps, p, 5.0)
        assert np.abs(post.marginals - m_ref).max() < 1e-10
        assert abs(lz - lz_ref) < 1e-10
        if n_jump:
            assert np.abs(post.pairwise - p_ref).max() < 1e-10
        # structural invariants
        assert np.abs(post.marginals.sum(axis=1) - 1.0).max() < 1e-12
        if n_jump:
            assert np.abs(post.pairwise.sum(axis=2) - post.marginals[:-1]).max() < 1e-10
            assert np.abs(post.pairwise.sum(axis=1) - post.marginals[1:]).max() < 1e-10


def test_forward_backward_validates_jumps():
    p = two_state_params()
    with pytest.raises(ValueError):
        mjp.forward_backward(np.zeros(0), np.array([3.0, 2.0]), p, 5.0)
    with pytest.raises(ValueError):
        mjp.forward_backward(np.zeros(0), np.array([6.0]), p, 5.0)


def test_observations_are_validated():
    """Observations outside [0, horizon] or non-finite raise at every entry point."""
    p = two_state_params()
    q = _small_q(5.0)
    with pytest.raises(ValueError):
        mjp.forward_backward(np.array([-3.0, 1.0, 9.0]), np.array([2.0]), p, 5.0)
    for bad in ([1.0, np.nan], [np.inf], [-np.inf, 2.0], [5.5]):
        bad = np.array(bad)
        with pytest.raises(ValueError, match="observations"):
            mjp.forward_backward(bad, np.array([2.0]), p, 5.0)
        with pytest.raises(ValueError, match="observations"):
            mjp.posterior_curves(q, p, bad, n_grid=10, n_samples=4)
        with pytest.raises(ValueError, match="observations"):
            mjp.elbo_relaxed(q, p, bad, 4, gamma=0.1)
        with pytest.raises(ValueError, match="observations"):
            mjp.rao_teh_posterior(bad, p, 5.0, n_samples=2, burn_in=0, n_grid=10)
        with pytest.raises(ValueError, match="observations"):
            mjp.exact_posterior(bad, p, 5.0, n_grid=10)
    edges = np.array([0.0, 2.5, 5.0])
    _, lz = mjp.forward_backward(edges, np.array([2.0]), p, 5.0)
    assert np.isfinite(lz)
    assert np.isfinite(mjp.elbo_relaxed(q, p, edges, 4, gamma=0.1, want_grads=False).value)
    assert np.isfinite(mjp.rao_teh_posterior(edges, p, 5.0, n_samples=2, burn_in=0,
                                             n_grid=10)).all()
    assert np.isfinite(mjp.exact_posterior(edges, p, 5.0, n_grid=10)[1])


@pytest.mark.parametrize("call, kwargs, name", [
    ("posterior_curves", {"n_grid": 0}, "n_grid"),
    ("posterior_curves", {"n_samples": 0}, "n_samples"),
    ("rao_teh_posterior", {"n_samples": 0}, "n_samples"),
    ("rao_teh_posterior", {"burn_in": -1}, "burn_in"),
    ("rao_teh_posterior", {"n_grid": 0}, "n_grid"),
    ("exact_posterior", {"n_grid": 0}, "n_grid"),
])
def test_occupancy_arguments_are_validated(call, kwargs, name):
    """Each bad argument raises a ValueError that names it, before any sampling."""
    p = two_state_params()
    obs = np.array([1.0, 2.0])
    args = {"posterior_curves": (_small_q(5.0), p, obs), "rao_teh_posterior": (obs, p, 5.0),
            "exact_posterior": (obs, p, 5.0)}[call]
    with pytest.raises(ValueError, match=name):
        getattr(mjp, call)(*args, **kwargs)


def logspace_fb_forward(log_pi, log_a, phi, real):
    """Log-space forward-backward with per-step skip masks: the recursion the
    scaled one replaced, kept as its reference."""
    s, n, k = phi.shape
    alpha = np.empty((s, n, k))
    beta = np.empty((s, n, k))
    alpha[:, 0] = log_pi[None, :] + phi[:, 0]
    for i in range(1, n):
        prop = logsumexp(alpha[:, i - 1, :, None] + log_a[None, :, :], axis=1)
        keep = real[:, i - 1][:, None]
        alpha[:, i] = np.where(keep, prop, alpha[:, i - 1]) + phi[:, i]
    log_z = logsumexp(alpha[:, n - 1], axis=1)
    beta[:, n - 1] = 0.0
    for i in range(n - 2, -1, -1):
        c = phi[:, i + 1] + beta[:, i + 1]
        prop = logsumexp(log_a[None, :, :] + c[:, None, :], axis=2)
        keep = real[:, i][:, None]
        beta[:, i] = np.where(keep, prop, c)
    mu = np.exp(alpha + beta - log_z[:, None, None])
    if n > 1:
        c_all = phi[:, 1:] + beta[:, 1:]
        xi = np.exp(alpha[:, :-1, :, None] + log_a[None, None, :, :]
                    + c_all[:, :, None, :] - log_z[:, None, None, None])
        fake = ~real
        if fake.any():
            diag = np.zeros_like(xi[fake])
            diag[:, np.arange(k), np.arange(k)] = mu[:, :-1][fake]
            xi[fake] = diag
    else:
        xi = np.zeros((s, 0, k, k))
    return alpha, beta, mu, xi, log_z


def logspace_fb_vjp(log_pi, log_a, phi, real, alpha, beta, mu, xi, log_z, g_mu, g_xi):
    """VJP of ``logspace_fb_forward``.  On a skipped step the exponentiated
    weights may overflow; ``np.where`` discards them."""
    s, n, k = phi.shape
    g_alpha = np.zeros((s, n, k))
    g_beta = np.zeros((s, n, k))
    g_phi = np.zeros((s, n, k))
    g_la = np.zeros((k, k))
    g_lz = np.zeros(s)
    g_mu_tot = np.array(g_mu, dtype=np.float64, copy=True)
    if n > 1:
        fake = ~real
        if fake.any():
            g_mu_tot[:, :-1][fake] += g_xi[fake][:, np.arange(k), np.arange(k)]
        realf = real[:, :, None, None]
        p = np.where(realf, g_xi * xi, 0.0)
        g_alpha[:, :-1] += p.sum(axis=3)
        g_la += p.sum(axis=(0, 1))
        tail = p.sum(axis=2)
        g_phi[:, 1:] += tail
        g_beta[:, 1:] += tail
        g_lz -= p.sum(axis=(1, 2, 3))
    e = g_mu_tot * mu
    g_alpha += e
    g_beta += e
    g_lz -= e.sum(axis=(1, 2))
    g_alpha[:, n - 1] += np.exp(alpha[:, n - 1] - log_z[:, None]) * g_lz[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n - 1):
            c = phi[:, i + 1] + beta[:, i + 1]
            w = np.exp(log_a[None, :, :] + c[:, None, :] - beta[:, i][:, :, None])
            keep = real[:, i]
            p = np.where(keep[:, None, None], g_beta[:, i][:, :, None] * w, 0.0)
            g_la += p.sum(axis=0)
            move = p.sum(axis=1)
            skip = np.where(keep[:, None], 0.0, g_beta[:, i])
            g_phi[:, i + 1] += move + skip
            g_beta[:, i + 1] += move + skip
        for i in range(n - 1, 0, -1):
            g_phi[:, i] += g_alpha[:, i]
            w = np.exp(alpha[:, i - 1][:, :, None] + log_a[None, :, :]
                       - (alpha[:, i] - phi[:, i])[:, None, :])
            keep = real[:, i - 1]
            p = np.where(keep[:, None, None], w * g_alpha[:, i][:, None, :], 0.0)
            g_alpha[:, i - 1] += p.sum(axis=2) + np.where(keep[:, None], 0.0, g_alpha[:, i])
            g_la += p.sum(axis=0)
    g_phi[:, 0] += g_alpha[:, 0]
    g_lp = g_alpha[:, 0].sum(axis=0)
    return g_phi, g_lp, g_la


def regime_inputs(rng, lam, a, cols, rows=8, horizon=80.0):
    """Forward-backward inputs as ``elbo_relaxed`` builds them: rows of
    ``cols`` segments whose real jumps leave a gap of at least 50 in
    (15, 65), padded with zero-length fake segments at the horizon (about a
    quarter of the steps)."""
    k = len(lam)
    p = mjp.MmppParams(rng.dirichlet(np.ones(k)), np.broadcast_to(a, (k, k)),
                       np.array(lam, dtype=float))
    t_ext = np.full((rows, cols), horizon + 1.0)
    for r in range(rows):
        m = int(rng.integers((cols - 1) // 2, cols))
        early = int(rng.integers(0, m + 1))
        t_ext[r, :m] = np.sort(np.concatenate([rng.uniform(0, 15, early),
                                               rng.uniform(65, horizon, m - early)]))
    boundaries = np.concatenate([np.zeros((rows, 1)), np.minimum(t_ext, horizon)], axis=1)
    obs = np.sort(rng.uniform(0, horizon, 60))
    phi, _, _ = mjp._segment_potentials(obs, boundaries, p)
    return np.log(p.pi), np.log(p.A), phi, t_ext[:, :cols - 1] < horizon


MIXED_A = np.array([[0.1, 1e-6, 1e-12], [1e-12, 0.1, 1e-6], [1e-6, 1e-12, 0.1]])

REGIMES = {   # observation rates, transition rates, segments per row
    "long_segment_a0.1": ((1.0, 20.0, 5.0), 0.1, 9),
    "long_segment_a1e-6": ((1.0, 20.0, 5.0), 1e-6, 9),
    "long_segment_a1e-12": ((1.0, 20.0, 5.0), 1e-12, 9),
    "long_segment_mixed_a": ((1.0, 20.0, 5.0), MIXED_A, 9),
    "one_segment": ((1.0, 20.0, 5.0), 0.1, 1),
    "one_state": ((20.0,), 0.1, 9),
}


@pytest.mark.parametrize("case", list(REGIMES))
def test_scaled_forward_backward_matches_log_space(case):
    """The scaled recursion and its VJP agree with the log-space reference
    within 1e-10, also where exp(phi - max phi) underflows to 0."""
    lam, a, cols = REGIMES[case]
    rng = np.random.default_rng(17)
    log_pi, log_a, phi, real = regime_inputs(rng, lam, a, cols)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        mu, xi, log_z, tape = mjp._fb_forward(log_pi, log_a, phi, real)
        g_mu = rng.normal(size=mu.shape)
        g_xi = rng.normal(size=xi.shape)
        got = mjp._fb_vjp(tape, g_mu, g_xi)
        mu_bare, no_xi, lz_bare, no_tape = mjp._fb_forward(log_pi, log_a, phi, real,
                                                           pairwise=False)
    assert np.array_equal(mu_bare, mu) and np.array_equal(lz_bare, log_z)
    assert no_xi is None and no_tape is None
    alpha, beta, mu_ref, xi_ref, lz_ref = logspace_fb_forward(log_pi, log_a, phi, real)
    want = logspace_fb_vjp(log_pi, log_a, phi, real, alpha, beta, mu_ref, xi_ref, lz_ref,
                           g_mu, g_xi)
    assert np.abs(mu - mu_ref).max() <= 1e-10
    assert xi.shape == xi_ref.shape and np.abs(xi - xi_ref).max(initial=0.0) <= 1e-10
    assert np.all(np.abs(log_z - lz_ref) <= 1e-10 * np.maximum(1.0, np.abs(lz_ref)))
    # relative to the largest output or input term of the VJP's sums: an
    # entry far below that is a sum that cancels (all of them at K = 1,
    # where the gradients are exactly 0) and carries its terms' rounding
    scale = max(np.abs(g_mu * mu_ref).max(), np.abs(g_xi * xi_ref).max(initial=0.0),
                *(np.abs(w).max() for w in want))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-10 * scale


def test_fb_vjp_matches_finite_differences():
    """A random linear functional of (marginals, pairwise, log Z) at K = 3,
    with skipped steps, differentiated in phi, log pi and log A."""
    rng = np.random.default_rng(5)
    s, n, k = 4, 6, 3
    phi = rng.normal(0.0, 1.5, (s, n, k))
    log_pi = np.log(rng.dirichlet(np.ones(k)))
    log_a = np.log(rng.uniform(0.05, 1.0, (k, k)))
    real = np.ones((s, n - 1), dtype=bool)
    real[1, 3:] = False             # a padded row
    real[2, 1] = False              # a skip inside a row
    real[3, :] = False
    g_mu = rng.normal(size=(s, n, k))
    g_xi = rng.normal(size=(s, n - 1, k, k))
    g_lz = rng.normal(size=s)

    def value(log_pi, log_a, phi):
        mu, xi, log_z, _ = mjp._fb_forward(log_pi, log_a, phi, real)
        return (g_mu * mu).sum() + (g_xi * xi).sum() + g_lz @ log_z

    mu, xi, _, tape = mjp._fb_forward(log_pi, log_a, phi, real)
    g_phi, g_lp, g_la = mjp._fb_vjp(tape, g_mu, g_xi)
    # d log Z is (mu, mu_0, the real steps' xi)
    g_phi = g_phi + g_lz[:, None, None] * mu
    g_lp = g_lp + g_lz @ mu[:, 0]
    g_la = g_la + np.einsum("s,si,sijk->jk", g_lz, real, xi)

    h = 1e-6

    def fd(x, f):
        out = np.zeros(x.shape)
        for idx in np.ndindex(x.shape):
            e = np.zeros(x.shape)
            e[idx] = h
            out[idx] = (f(x + e) - f(x - e)) / (2 * h)
        return out

    for got, num in ((g_phi, fd(phi, lambda x: value(log_pi, log_a, x))),
                     (g_lp, fd(log_pi, lambda x: value(x, log_a, phi))),
                     (g_la, fd(log_a, lambda x: value(log_pi, x, phi)))):
        assert np.abs(got - num).max() <= 1e-6 * max(1.0, np.abs(num).max())


def padded_boundaries(rng, rows, cols, horizon):
    """Boundary rows as ``elbo_relaxed`` builds them: 0, then sorted jump
    times clipped at the horizon, so many rows end in repeats of it."""
    jumps = np.cumsum(rng.exponential(horizon / (0.6 * cols), (rows, cols)), axis=1)
    return np.concatenate([np.zeros((rows, 1)), np.minimum(jumps, horizon)], axis=1)


def segment_cases(rng):
    horizon = 5.0
    b = padded_boundaries(rng, 40, 12, horizon)
    inner = b[:, 1:-1].ravel()
    on_boundary = rng.choice(inner[inner < horizon], 6, replace=False)
    edges = np.array([0.0, 0.0, horizon, horizon])
    return {
        "random": (b, np.sort(rng.uniform(0, horizon, 30))),
        "edges_and_boundaries": (b, np.sort(np.concatenate(
            [rng.uniform(0, horizon, 20), on_boundary, edges]))),
        "unsorted": (b, rng.permutation(np.concatenate([rng.uniform(0, horizon, 25), edges]))),
        "no_observations": (b, np.zeros(0)),
        "one_segment": (np.tile([0.0, horizon], (5, 1)), np.sort(np.concatenate(
            [rng.uniform(0, horizon, 10), edges]))),
    }


@pytest.mark.parametrize("case", ["random", "edges_and_boundaries", "unsorted",
                                  "no_observations", "one_segment"])
def test_segment_counts_match_per_row_reference(case):
    """Vectorised counts equal the per-row searchsorted/bincount bit for bit."""
    boundaries, obs = segment_cases(np.random.default_rng(4))[case]
    p = mjp.MmppParams(np.full(3, 1 / 3), np.full((3, 3), 0.2), np.array([0.5, 2.0, 7.0]))
    s, n = boundaries.shape[0], boundaries.shape[1] - 1
    ref = np.zeros((s, n))
    if obs.size:
        for r in range(s):
            seg = np.clip(np.searchsorted(boundaries[r, 1:], obs, side="right"), 0, n - 1)
            ref[r] = np.bincount(seg, minlength=n)
    phi, deltas, counts = mjp._segment_potentials(obs, boundaries, p)
    assert np.array_equal(counts, ref)
    assert np.array_equal(deltas, np.diff(boundaries, axis=1))
    assert np.array_equal(phi, -deltas[:, :, None] * (p.total_rates + p.lam)
                          + ref[:, :, None] * np.log(p.lam))


def _small_q(horizon, seed=0, noise=0.2, rate=0.8):
    q = build_model(ModelKind("tritpp", horizon, n_knots=5, block_size=4, n_blocks=1,
                              rate_init=rate))
    if noise:
        q.params.values += np.random.default_rng(seed).normal(0, noise, q.params.size)
        for name in q.params.names:
            if name.startswith("b"):
                q.params.values[q.params.slices[name]] *= 0.4
    return q


def test_elbo_hard_equals_unrelaxed_assembly(rng):
    """With hard masks the estimator telescopes to evidence(t) - log q(t)."""
    p = two_state_params()
    q = _small_q(5.0, seed=1)
    obs = np.sort(rng.uniform(0, 5.0, 12))
    est = mjp.elbo_relaxed(q, p, obs, 6, gamma=0.1, seed=9, hard=True, want_grads=False)
    t_ext, _ = tpp.draw_extended(q, 6, 9)
    paths = tpp.prepare_paths(q, t_ext, None)
    for r in range(6):
        n_real = int(paths.hard_mask[r].sum())
        _, lz = mjp.forward_backward(obs, paths.t_ext[r, :n_real], p, 5.0)
        lq = float((paths.hard_mask[r] * paths.cache_ext.logdiag[r]).sum()
                   - paths.cache_clip.z[r, -1])
        assert est.per_sample[r] == pytest.approx(lz - lq, abs=1e-10)


def test_elbo_k1_attains_observation_likelihood():
    p1 = mjp.MmppParams(np.array([1.0]), np.array([[0.5]]), np.array([2.0]))
    horizon = 6.0
    _, obs = mjp.simulate_mmpp(p1, horizon, seed=7)
    target = obs.size * np.log(2.0) - 2.0 * horizon
    # at the identity initialization q(t) equals the jump prior, so the hard
    # bound is tight
    q0 = mjp._default_q(p1, horizon, mjp.ViConfig())
    est0 = mjp.elbo_relaxed(q0, p1, obs, 256, gamma=0.1, seed=3, hard=True, want_grads=False)
    assert est0.value == pytest.approx(target, abs=1e-9)
    # after training with the relaxed objective the bound stays within 0.05
    cfg = mjp.ViConfig(lr=0.02, iters=300, mc_samples=128, gamma=0.05, seed=0)
    res = mjp.fit_vi(obs, p1, horizon, "posterior", cfg)
    est = mjp.elbo_relaxed(res.q_model, p1, obs, 2048, gamma=0.1, seed=11, hard=True,
                           want_grads=False)
    assert est.value <= target + 1e-9
    assert est.value == pytest.approx(target, abs=0.05)


@pytest.mark.parametrize("hard", [False, True], ids=["relaxed", "hard"])
def test_elbo_gradients_match_finite_differences(rng, hard):
    p = two_state_params()
    q = _small_q(5.0, seed=2)
    obs = np.sort(rng.uniform(0, 5.0, 9))
    draws = np.cumsum(rng.exponential(1.0, (4, 24)), axis=1)
    est = mjp.elbo_relaxed(q, p, obs, 4, gamma=0.15, seed=0, hard=hard, draws=draws)

    def value(qvals=None, pi=None, a=None, lam=None):
        probe = q.copy()
        if qvals is not None:
            probe.params.values[:] = qvals
        pp = mjp.MmppParams(p.pi if pi is None else pi, p.A if a is None else a,
                            p.lam if lam is None else lam)
        return mjp.elbo_relaxed(probe, pp, obs, 4, gamma=0.15, seed=0, hard=hard, draws=draws,
                                want_grads=False).value

    h = 1e-5
    for i in range(q.params.size):
        e = np.zeros(q.params.size)
        e[i] = h
        num = (value(q.params.values + e) - value(q.params.values - e)) / (2 * h)
        denom = max(abs(num), abs(est.grad_q[i]), 1e-5)
        assert abs(num - est.grad_q[i]) / denom < 1e-4, f"q param {i}"
    for k in range(2):
        for l in range(2):
            e = np.zeros((2, 2))
            e[k, l] = h
            num = (value(a=p.A + e) - value(a=p.A - e)) / (2 * h)
            assert est.grad_a[k, l] == pytest.approx(num, rel=1e-4, abs=1e-6)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        num = (value(lam=p.lam + e) - value(lam=p.lam - e)) / (2 * h)
        assert est.grad_lam[k] == pytest.approx(num, rel=1e-4, abs=1e-6)
    d = np.array([1.0, -1.0]) * h
    num = (value(pi=p.pi + d) - value(pi=p.pi - d)) / (2 * h)
    assert float(est.grad_pi @ np.array([1.0, -1.0])) == pytest.approx(num, rel=1e-4)


def dense_soft_counts(boundaries, obs, gamma):
    """Every boundary against every observation: the S x (N+1) x M sum."""
    sig = sigmoid((boundaries[:, :, None] - obs[None, None, :]) / gamma)
    sb = sig.sum(axis=2)
    sbp = (sig * (1.0 - sig)).sum(axis=2) / gamma
    return sb[:, 1:] - sb[:, :-1], sb, sbp


SOFT_CASES = {   # segment case, gamma
    "random": ("random", 0.1),
    "sharp": ("random", 1e-3),
    "edges_and_boundaries": ("edges_and_boundaries", 0.1),
    "unsorted": ("unsorted", 0.05),
    "no_observations": ("no_observations", 0.1),
    "every_window_holds_every_observation": ("edges_and_boundaries", 1e3),
}


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("case", list(SOFT_CASES))
def test_soft_counts_match_dense_sum(case, chunk, monkeypatch):
    """Windowed soft counts agree with the dense sum to 1e-12 relative, also
    when the windows are evaluated a few elements at a time."""
    name, gamma = SOFT_CASES[case]
    boundaries, obs = segment_cases(np.random.default_rng(4))[name]
    if chunk is not None:
        monkeypatch.setattr(mjp, "_BLOCK", chunk)
    got = mjp._soft_counts(boundaries, obs, gamma)
    want = dense_soft_counts(boundaries, obs, gamma)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= 1e-12 * (1.0 + np.abs(w)))
    if obs.size == 0:
        assert not np.any(got[1]) and not np.any(got[2])


@pytest.mark.parametrize("gamma", [0.1, 1e3])
@pytest.mark.parametrize("case", ["random", "edges_and_boundaries", "unsorted",
                                  "no_observations", "one_segment"])
def test_soft_counts_bits_do_not_depend_on_the_block(case, gamma, monkeypatch):
    """A boundary's window is never split across blocks, so its sums are the
    same bincount at any block size.  At gamma = 1e3 every window holds every
    observation."""
    boundaries, obs = segment_cases(np.random.default_rng(4))[case]
    outs = []
    for block in (5, mjp._BLOCK, 1 << 20):
        monkeypatch.setattr(mjp, "_BLOCK", block)
        outs.append(mjp._soft_counts(boundaries, obs, gamma))
    for got in outs[1:]:
        assert all(np.array_equal(g, w) for g, w in zip(got, outs[0]))


def test_vi_step_temporaries_stay_cache_sized(no_spare_workspaces):
    """At the benchmark's VI shape (512 paths of ~25 segments, 200
    observations, K = 3) the soft counts peak at <= 2 MB of traced memory,
    also at gamma = 1e3 where every window holds every observation (40.6 MB
    when 2**20 window terms were evaluated at once), and one relaxed ELBO
    with its gradients peaks at <= 12 (S, N-1, K, K) arrays (11.3 here, with
    no spare chain workspace at hand; 14.1 with the whole-batch soft counts,
    12.3 with them blocked but the pairwise cotangent in fresh arrays)."""
    rng = np.random.default_rng(7)
    horizon = 50.0
    p = mjp.MmppParams(np.array([0.52, 0.22, 0.26]), np.full((3, 3), 0.1),
                       np.array([1.0, 5.0, 20.0]))
    obs = np.sort(rng.uniform(0.0, horizon, 200))
    boundaries = padded_boundaries(rng, 512, 30, horizon)
    q = mjp._default_q(p, horizon, mjp.ViConfig())

    def peak_mb(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    for gamma in (0.1, 1e3):
        assert peak_mb(lambda: mjp._soft_counts(boundaries, obs, gamma)) <= 2.0, gamma
    s, n = tpp.draw_paths(q, 512, 0.1, seed=3).clipped.shape
    pairwise_mb = s * (n - 1) * 9 * 8 / 2**20
    assert peak_mb(lambda: mjp.elbo_relaxed(q, p, obs, s, 0.1, seed=3)) <= 12 * pairwise_mb


def test_elbo_bound_never_exceeds_exact_evidence(rng):
    p = two_state_params()
    horizon = 8.0
    _, obs = mjp.simulate_mmpp(p, horizon, seed=21)
    _, lz = mjp.exact_posterior(obs, p, horizon)
    for s in range(12):
        q = _small_q(horizon, seed=s, noise=0.4, rate=float(rng.uniform(0.3, 1.5)))
        est = mjp.elbo_relaxed(q, p, obs, 128, gamma=0.1, seed=s, hard=True,
                               want_grads=False)
        assert est.value <= lz + 1e-6


def test_elbo_mc_variance_scales_inversely(rng):
    p = two_state_params()
    q = _small_q(5.0, seed=4)
    obs = np.sort(rng.uniform(0, 5.0, 10))
    variances = []
    sizes = (8, 32, 128)
    for m in sizes:
        vals = [mjp.elbo_relaxed(q, p, obs, m, gamma=0.1, seed=1000 * m + r,
                                 want_grads=False).value for r in range(40)]
        variances.append(np.var(vals))
    slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.3)


def test_elbo_validation():
    p = two_state_params()
    q = _small_q(5.0)
    with pytest.raises(ValueError):
        mjp.elbo_relaxed(q, p, np.array([1.0]), 0, gamma=0.1)
    with pytest.raises(ValueError):
        mjp.elbo_relaxed(q, p, np.array([1.0]), 4, gamma=0.0)
    with pytest.raises(ValueError):
        mjp.elbo_relaxed(q, p, np.array([99.0]), 4, gamma=0.1)


def test_fit_vi_modes_and_validation():
    p1 = mjp.MmppParams(np.array([1.0]), np.array([[0.5]]), np.array([2.0]))
    _, obs = mjp.simulate_mmpp(p1, 4.0, seed=2)
    with pytest.raises(ValueError):
        mjp.fit_vi(obs, p1, 4.0, mode="nope")
    cfg = mjp.ViConfig(lr=0.05, iters=30, mc_samples=32, gamma=0.1, seed=1)
    res = mjp.fit_vi(obs, p1, 4.0, "learn", cfg)
    assert len(res.elbo_history) == 30
    assert res.params.lam[0] > 0 and abs(res.params.pi.sum() - 1.0) < 1e-10


def test_fit_vi_posterior_mode_keeps_the_model_parameters(monkeypatch):
    """Posterior mode evaluates every bound at the given parameters and
    returns them, bit for bit."""
    p = mjp.MmppParams(np.array([0.52, 0.22, 0.26]), np.full((3, 3), 0.1),
                       np.array([1.0, 5.0, 20.0]))
    _, obs = mjp.simulate_mmpp(p, 10.0, seed=4)
    seen = []
    elbo = mjp.elbo_relaxed

    def recording(q, params, *args, **kwargs):
        seen.append(params)
        return elbo(q, params, *args, **kwargs)

    monkeypatch.setattr(mjp, "elbo_relaxed", recording)
    res = mjp.fit_vi(obs, p, 10.0, "posterior", mjp.ViConfig(iters=3, mc_samples=8))
    assert len(seen) == 3 and all(params is p for params in seen)
    for name in ("pi", "A", "lam"):
        assert np.array_equal(getattr(res.params, name), getattr(p, name)), name


def test_vi_config_refuses_bad_fields():
    """Each bad field is named; NaN is refused like any other bad value."""
    for field, value, message in (("iters", 0, "iters must be >= 1"),
                                  ("mc_samples", 0, "mc_samples must be >= 1"),
                                  ("lr", -1.0, "lr must be > 0"),
                                  ("lr", float("nan"), "lr must be > 0"),
                                  ("gamma", 0.0, "gamma must be > 0")):
        with pytest.raises(ValueError, match=message):
            mjp.ViConfig(**{field: value})
    with pytest.raises(ValueError, match="iters must be >= 1, lr must be > 0"):
        mjp.ViConfig(iters=0, lr=0.0)


def test_vi_seed_stability():
    """Posterior curves from two VI seeds stay close (mean abs diff <= 0.1)."""
    p = two_state_params()
    horizon = 8.0
    _, obs = mjp.simulate_mmpp(p, horizon, seed=33)
    curves = []
    for s in (0, 1):
        cfg = mjp.ViConfig(lr=0.02, iters=150, mc_samples=256, gamma=0.1, seed=s)
        res = mjp.fit_vi(obs, p, horizon, "posterior", cfg)
        curves.append(mjp.posterior_curves(res.q_model, p, obs, n_grid=100,
                                           n_samples=256, seed=50 + s))
    assert np.abs(curves[0] - curves[1]).mean() <= 0.1


def test_posterior_curves_run_no_forward_pass(monkeypatch):
    """The curves need the drawn times and their mask, not the forward chain."""
    p = two_state_params()
    _, obs = mjp.simulate_mmpp(p, 5.0, seed=3)

    def forbidden(*args, **kwargs):
        raise AssertionError("posterior_curves ran the forward chain")

    monkeypatch.setattr(tr, "compose_forward_cached", forbidden)
    curves = mjp.posterior_curves(_small_q(5.0), p, obs, n_grid=20, n_samples=16, seed=4)
    assert curves.shape == (20, 2)
    assert np.allclose(curves.sum(axis=1), 1.0)


def looped_posterior_curves(q_model, params, obs, n_grid, n_samples, seed):
    """posterior_curves with one searchsorted per row: the reference for its
    pooled grid lookup."""
    t_ext, _ = tpp.draw_extended(q_model, n_samples, seed)
    clipped = np.minimum(t_ext, q_model.horizon)
    s, n = t_ext.shape
    boundaries = np.concatenate([np.zeros((s, 1)), clipped], axis=1)
    phi, _, _ = mjp._segment_potentials(np.asarray(obs, dtype=np.float64), boundaries, params)
    real = t_ext[:, :n - 1] < q_model.horizon
    mu, _, _, _ = mjp._fb_forward(np.log(params.pi), np.log(params.A), phi, real,
                                  pairwise=False)
    grid = mjp.grid_times(q_model.horizon, n_grid)
    out = np.zeros((n_grid, params.n_states))
    for r in range(s):
        seg = np.clip(np.searchsorted(clipped[r], grid, side="right"), 0, n - 1)
        out += mu[r, seg]
    return out / s


def test_posterior_curves_pooled_lookup_matches_row_loop(monkeypatch):
    """Crafted draws: times on grid points (n_grid=10 puts them at 0.25 + 0.5 j),
    ties, rows with every time >= T, a single column, and random rows."""
    p = two_state_params()
    q = _small_q(5.0)
    obs = np.array([0.25, 0.6, 2.0, 2.0, 4.75])
    crafted = [
        np.array([[0.25, 0.75, 0.75, 2.0, 4.75, 5.0],
                  [0.1, 0.1, 0.1, 5.0, 6.0, 7.0],
                  [5.0, 5.5, 6.0, 7.0, 8.0, 9.0],
                  [4.75, 4.75, 4.75, 4.75, 4.75, 5.2],
                  [0.0, 2.25, 2.25, 3.0, 4.9, 5.0],
                  [5.0, 5.0, 5.0, 5.0, 5.0, 5.0]]),
        np.array([[5.0], [7.5], [5.0]]),
        np.array([[0.25, 5.0], [5.5, 6.0]]),
        # ends before T, which draw_extended never returns: both cap at the last segment
        np.array([[0.25, 0.75, 2.0], [1.0, 2.0, 5.0]]),
    ]
    rng = np.random.default_rng(4)
    rand = np.sort(rng.uniform(0.0, 6.0, (40, 25)), axis=1)
    rand[:, -1] = np.maximum(rand[:, -1], 5.0)
    rand[::3, 4] = rand[::3, 3]                              # ties
    rand[1::4, :3] = mjp.grid_times(5.0, 10)[[2, 5, 9]]     # times on grid points
    rand.sort(axis=1)
    crafted.append(rand)
    # a block holds _BLOCK // (n_grid K) rows, at least one: all rows in one
    # block, 2 rows (block 40), and one row (block 1, and n_grid = 4200)
    lib_block = mjp._BLOCK
    for t_ext in crafted:
        monkeypatch.setattr(tpp, "draw_extended", lambda m, b, s, t=t_ext: (t.copy(), None))
        for n_grid, block in ((10, lib_block), (7, lib_block), (1, lib_block),
                              (10, 40), (7, 1), (4200, lib_block)):
            monkeypatch.setattr(mjp, "_BLOCK", block)
            got = mjp.posterior_curves(q, p, obs, n_grid=n_grid, n_samples=len(t_ext))
            want = looped_posterior_curves(q, p, obs, n_grid, len(t_ext), 0)
            assert np.array_equal(got, want), (t_ext.shape, n_grid, block)


def test_rao_teh_k1_occupancy():
    p1 = mjp.MmppParams(np.array([1.0]), np.array([[0.5]]), np.array([3.0]))
    occ = mjp.rao_teh_posterior(np.array([1.0, 2.0]), p1, 5.0, n_samples=40,
                                burn_in=10, seed=0, n_grid=25)
    assert np.allclose(occ, 1.0)


def test_rao_teh_matches_exact_inference():
    p = two_state_params()
    horizon = 10.0
    _, obs = mjp.simulate_mmpp(p, horizon, seed=42)
    occ = mjp.rao_teh_posterior(obs, p, horizon, n_samples=1500, burn_in=150,
                                seed=1, n_grid=100)
    curves, _ = mjp.exact_posterior(obs, p, horizon, n_grid=100)
    assert np.abs(occ - curves).max() < 0.05


def test_exact_posterior_one_state_closed_form():
    """One state: log Z = n log lam - lam T, and the occupancy is all 1, also
    over steps long enough that exp(-lam d) underflows."""
    p1 = mjp.MmppParams(np.array([1.0]), np.array([[0.5]]), np.array([3.0]))
    obs = np.array([0.0, 0.7, 2.5])
    for horizon, n_grid, rel in ((5.0, 25, 0.0), (1400.0, 1, 1e-12)):
        occ, lz = mjp.exact_posterior(obs, p1, horizon, n_grid=n_grid)
        assert occ.shape == (n_grid, 1) and np.abs(occ - 1.0).max() <= 1e-12
        assert lz == pytest.approx(3 * np.log(3.0) - 3.0 * horizon, rel=rel, abs=1e-12)


def test_exact_posterior_with_uninformative_observations():
    """Equal observation rates carry no information about the state: the
    occupancy at grid time g is pi expm(Q g) with Q = A - diag(row sums of A),
    in which the self-jumps cancel, and log Z is the one-state value, also
    over steps long enough that exp(-2 d) underflows."""
    pi = np.array([0.6, 0.3, 0.1])
    a = np.array([[0.9, 0.2, 0.1], [0.05, 0.3, 0.4], [0.3, 0.6, 0.2]])
    p = mjp.MmppParams(pi, a, np.full(3, 2.0))
    q = a - np.diag(a.sum(axis=1))
    for horizon, n_grid, rel in ((6.0, 9, 0.0), (2e4, 1, 1e-12)):
        obs = np.random.default_rng(3).uniform(0, horizon, 11)
        occ, lz = mjp.exact_posterior(obs, p, horizon, n_grid=n_grid)
        want = np.stack([pi @ expm(q * g) for g in mjp.grid_times(horizon, n_grid)])
        assert np.abs(occ - want).max() <= 1e-12
        assert lz == pytest.approx(11 * np.log(2.0) - 2.0 * horizon, rel=rel, abs=1e-12)


def test_exact_evidence_does_not_depend_on_the_grid():
    """log Z agrees across grids to 1e-10, with observations at 0, at the
    horizon and on a grid time (3.5 for 1 and 7 points); every occupancy row
    sums to 1."""
    p = two_state_params()
    horizon = 7.0
    _, obs = mjp.simulate_mmpp(p, horizon, seed=8)
    obs = np.concatenate([obs, [0.0, horizon, 3.5]])
    values = []
    for n_grid in (1, 7, 200):
        occ, lz = mjp.exact_posterior(obs, p, horizon, n_grid=n_grid)
        assert occ.shape == (n_grid, 2) and np.abs(occ.sum(axis=1) - 1.0).max() <= 1e-12
        values.append(lz)
    assert np.ptp(values) <= 1e-10
