"""The layer contract stated in :mod:`tppflow.transforms`, checked for every
row of ``LAYER_CASES`` (tests/conftest.py): a new layer needs only a row."""
import numpy as np
import pytest

from conftest import LAYER_CASES
from tppflow import splines as sp
from tppflow import transforms as tr

# differences of eighth order, central, and of second order, one-sided for the probes
CENTRAL = {-4: 1 / 280, -3: -4 / 105, -2: 1 / 5, -1: -4 / 5, 1: 4 / 5, 2: -1 / 5, 3: 4 / 105,
           4: -1 / 280}
ONE_SIDED = {0: -1.5, 1: 2.0, 2: -0.5}
TIGHT = 1e-13    # exact Jacobians, and what the layer's own passes must agree on
FD = dict(rel=2e-5, abs=1e-7)     # differences of a nonlinear layer, element by element


@pytest.fixture(autouse=True)
def small_row_blocks(monkeypatch):
    monkeypatch.setattr(tr, "_ROW_BLOCK", 64)


@pytest.fixture(params=list(LAYER_CASES))
def case(request):
    return LAYER_CASES[request.param]


def draw(case, rng, shape=None, limits=True):
    """Parameters, and inputs with the probes first and (with ``limits``) the limits last."""
    p = rng.normal(0.0, case.scale, case.layer.n_params) if case.layer.n_params else None
    x = rng.uniform(case.lo, case.hi, shape or case.shape)
    probes, flat = case.probes(p), x.reshape(-1)
    flat[:probes.size] = probes
    if limits:
        flat[flat.size - len(case.limits):] = case.limits
    return p, x


def near(got, want, tol):
    """Within ``tol`` of ``want``, absolutely and relative to its largest entry."""
    assert np.abs(got - want).max() <= tol * min(1.0, np.abs(want).max())


def close(got, want):
    assert got == pytest.approx(want, **FD)


def same(got, want):
    assert (got is None) == (want is None)
    assert got is None or (got.shape == want.shape and got.tobytes() == want.tobytes())


def test_round_trip(case, rng):
    """inverse(forward(x)) is x and forward(inverse(y)) is y within 1e-12,
    in the bins and tails, on the probes and across evaluation blocks."""
    layer = case.layer
    p, x = draw(case, rng)
    n = x.size - len(case.limits)
    y = layer.forward(x, p)[0]
    back = layer.inverse(y, p)
    for got, want in ((back, x), (layer.forward(back, p)[0], y)):
        assert np.abs(got - want).reshape(-1)[:n].max() <= 1e-12


def test_out_semantics(case, rng):
    """``forward`` (with and without ``keep``), ``inverse``, ``vjp`` and
    ``inv_jac_t`` give the same bits into a fresh ``out``, a given one and
    their input itself, from read-only inputs, which come through untouched;
    without ``keep`` ``forward`` returns no record.  ``vjp`` and ``inv_jac_t``
    take a record whose input was written over, and give the bits of a call
    without it; with ``reads_input = False`` also from an x of NaN, or x that
    is also the cotangent and ``out``, as a consuming sweep passes them."""
    layer = case.layer
    p, x = draw(case, rng)
    g, gl, w = rng.normal(0.0, 1.0, (3,) + x.shape)
    want = layer.forward(x, p)[:2]
    y = want[0]
    spent = x.copy()
    res = layer.forward(spent, p, out=spent)[2]
    for a in (x, y, g, gl, w):
        a.flags.writeable = False

    def check(call, arg, want, reads_input=True):
        mine = arg.copy()
        ways = [(x, arg, None), (x, arg, np.empty(x.shape)), (x, mine, mine)]
        if not reads_input:
            own = arg.copy()
            ways += [(np.full(x.shape, np.nan), arg, None), (own, own, own)]
        for xa, a, out in ways:
            got = call(xa, a, out)
            assert out is None or got[0] is out
            for part, part_want in zip(got, want):
                same(part, part_want)

    assert layer.forward(x, p, keep=False)[2] is None
    for keep in (True, False):
        check(lambda _, a, out: layer.forward(a, p, keep, out=out)[:2], x, want)
    check(lambda _, a, out: (layer.inverse(a, p, out=out),), y, (layer.inverse(y, p),))
    check(lambda xa, a, out: layer.vjp(xa, p, a, gl, res, out=out), g, layer.vjp(x, p, g, gl),
          layer.reads_input)
    with np.errstate(over="ignore", divide="ignore"):   # J^-T is inf where forward saturates
        check(lambda xa, a, out: layer.inv_jac_t(xa, p, a, res, out=out), w,
              layer.inv_jac_t(x, p, w), layer.reads_input)


@pytest.mark.parametrize("name", [n for n, c in LAYER_CASES.items()
                                  if hasattr(c.layer, "forward_block")])
def test_forward_block_gives_the_bits_of_forward(name, rng):
    """An elementwise layer's ``forward_block``, run over the evaluation
    blocks by ``splines._by_blocks``, gives the value and log-diagonal of
    ``forward`` without ``keep``, bit for bit."""
    case = LAYER_CASES[name]
    layer = case.layer
    p, x = draw(case, rng)
    got = sp._by_blocks(layer.forward_block(p), x)
    for part, want in zip(got, layer.forward(x, p, keep=False)[:2]):
        same(part, want)


@pytest.mark.parametrize("kind, bad", [("psi", -0.5), ("psi_inv", 1.5), ("logit", -0.2)])
def test_forward_block_checks_each_block(kind, bad, rng):
    """A bridge's domain check runs block by block: an input out of domain in
    the second evaluation block raises ``DomainError`` naming the layer, from
    ``forward_block`` and from ``forward`` written over its input."""
    case = LAYER_CASES[kind]
    x = draw(case, rng, limits=False)[1]
    x.reshape(-1)[sp._BLOCK + 3] = bad
    for call in (lambda: sp._by_blocks(case.layer.forward_block(None), x),
                 lambda: case.layer.forward(x, None, keep=False, out=x)):
        with pytest.raises(tr.DomainError, match=kind) as err:
            call()
        assert err.value.layer == kind


def test_inv_jac_t_gives_the_vjp_parameter_cotangent(case, rng):
    """``vjp`` at g_y = u = ``inv_jac_t(w)``, g_ld = 0 gives w back and the
    parameter cotangent of ``inv_jac_t`` (``None`` for a layer without
    parameters), within 1e-12 relative, across evaluation and row blocks."""
    layer = case.layer
    p, x = draw(case, rng, limits=False)
    w = rng.normal(0.0, 1.0, x.shape)
    res = layer.forward(x, p)[2]
    u, g_p = layer.inv_jac_t(x, p, w, res)
    g_x, g_p_vjp = layer.vjp(x, p, u, np.zeros(x.shape), res)
    assert np.abs(g_x - w).max() <= 1e-12 * np.abs(w).max()
    assert (g_p is None) == (g_p_vjp is None) == (p is None)
    assert p is None or np.abs(g_p - g_p_vjp).max() <= 1e-12 * np.abs(g_p_vjp).max()


def differences(f, at, dirs, h, stencil=CENTRAL):
    """The derivative of ``f`` at ``at`` along ``dirs``, whose leading axis may stack directions."""
    return sum(c * f(at + k * h * dirs) for k, c in stencil.items()) / h


def test_jacobian(case, rng):
    """``vjp`` against a dense Jacobian J: exact from unit vectors for a
    linear layer, else by differences of ``forward``, central at smooth
    points and one-sided, on the value only, at the probes.  The Jacobian of
    the layer's own ``vjp`` is lower triangular row by row and matches J, in
    y and in the log-diagonal, which is log|diag J|; its parameter cotangent
    matches differences in p; ``inv_jac_t`` gives u = J^-T w; a linear
    layer's ``forward`` is J x and its ``inverse`` J^-1 y."""
    layer = case.layer
    rows, n = (7, 23) if case.linear else (2, 23)
    p, x = draw(case, rng, (rows, n), limits=False)
    size, n_probes = rows * n, case.probes(p).size
    units = np.eye(size).reshape(size, rows, n)

    def outputs(v, q=p):
        return np.stack(layer.forward(v, q, keep=False)[:2]).reshape(2, -1, size)

    # the layer's own Jacobians of y and ld: row i is the gradient of output i
    res = layer.forward(np.broadcast_to(x, units.shape).copy(), p)[2]
    zeros = np.zeros(units.shape)
    jac_own, jld_own = (layer.vjp(np.broadcast_to(x, units.shape), p, *cot, res)[0].reshape(size, size)
                        for cot in ((units, zeros), (zeros, units)))
    causal = np.kron(np.eye(rows), np.tril(np.ones((n, n)))).astype(bool)
    assert not jac_own[~causal].any() and not jld_own[~causal].any()
    y, ld, res = layer.forward(x, p)
    near(np.exp(ld).reshape(-1), np.abs(np.diag(jac_own)), TIGHT)
    g, w = rng.normal(0.0, 1.0, (2, rows, n))
    gl = rng.normal(0.0, 1.0, x.shape)
    gl.reshape(-1)[:n_probes] = 0.0
    u = layer.inv_jac_t(x, p, w, res)[0]
    near(u.reshape(-1) @ jac_own, w.reshape(-1), TIGHT)

    if case.linear:
        jac, jld = outputs(units)[0].T, np.zeros((size, size))
        near(y.reshape(-1), jac @ x.reshape(-1), TIGHT)
        near(layer.inverse(y, p).reshape(-1), np.linalg.solve(jac, y.reshape(-1)), TIGHT)
        agree = lambda got, want: near(got, want, TIGHT)
    else:
        central, one_sided = (differences(outputs, x, units, 1e-6, st).transpose(0, 2, 1)
                              for st in (CENTRAL, ONE_SIDED))
        jac, jld = central
        jac[:, :n_probes] = one_sided[0][:, :n_probes]
        jld_own, jld = jld_own[:, n_probes:], jld[:, n_probes:]
        agree = close
    agree(jac_own, jac)
    agree(jld_own, jld)
    agree(u.reshape(-1), np.linalg.solve(jac.T, w.reshape(-1)))
    g_p = layer.vjp(x, p, g, gl, res)[1]
    if p is None:
        assert g_p is None
        return
    # a linear layer is linear or exp in p: at h = 0.03 within 3e-13 over 20 seeds
    h = 0.03 if case.linear else 1e-6
    dp = np.stack([differences(lambda q: outputs(x, q)[:, 0], p, e, h) for e in np.eye(p.size)])
    want = dp[:, 0] @ g.reshape(-1) + dp[:, 1] @ gl.reshape(-1)
    if case.linear:
        near(g_p, want, 1e-12)
    else:
        close(g_p, want)


def test_column_inverse_steps_like_the_batch_inverse(case, rng):
    """``column_inverse``, stepped across the columns in order, gives
    ``inverse`` bit for bit, or within the row's ``column_rel`` relative
    (``BlockDiag``: substitution against ``solve_triangular``, measured at
    <= 8.0e-16 over 200 seeds).  Signed zeros lead the first two columns;
    23 columns cut blocks of 6 at the right edge, and at offset 3 at the left."""
    p, x = draw(case, rng, (7, 23))
    y = case.layer.forward(x, p)[0]
    y[:2, :2] = -0.0, 0.0
    step = case.layer.column_inverse(p, 7)
    stepped = np.stack([step(np.ascontiguousarray(y[:, j]), j) for j in range(23)], axis=1)
    want = case.layer.inverse(y, p)
    if case.column_rel:
        assert np.abs(stepped - want).max() <= case.column_rel * np.abs(want).max()
    else:
        same(stepped, want)


def test_every_layer_class_has_a_row():
    assert set(tr._LAYER_CLASSES.values()) <= {type(c.layer) for c in LAYER_CASES.values()}


REFUSED = {"fixed_scale_negative": (tr.FixedScale, -1.0), "fixed_scale_zero": (tr.FixedScale, 0.0),
           "fixed_scale_nan": (tr.FixedScale, np.nan), "fixed_scale_inf": (tr.FixedScale, np.inf),
           "bridge_kind": (tr.Bridge, "nope"), "block_odd_size": (tr.BlockDiag, "b", 3, 0),
           "block_offset": (tr.BlockDiag, "b", 4, 5)}


@pytest.mark.parametrize("name", list(REFUSED))
def test_constructor_refuses(name):
    cls, *args = REFUSED[name]
    with pytest.raises(ValueError):
        cls(*args)
