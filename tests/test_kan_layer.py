import tracemalloc
from contextlib import nullcontext
from math import prod

import numpy as np
import pytest

import hakan.tensor as tt
from hakan import pool
from hakan.basis import BLOCK_ELEMENTS, block_rows, make_basis
from hakan.errors import ContractError
from hakan.layers import RUN_BLOCKS, KanLayer, _runs
from hakan.tensor import Tensor
from hakan.training import mse_loss

from helpers import eval_all, row_blocks, squash, whole_gamma_grad, whole_input_grad
from test_tensor import fd_check


def squares(y: Tensor) -> Tensor:
    """mean(y ** 2), the loss the gradient checks differentiate."""
    return mse_loss(y, np.zeros(y.shape))


def hahn_layer(in_dim, out_dim, degree=3, seed=0, n=7):
    basis = make_basis("hahn", degree, 1, 1, n)
    return KanLayer(in_dim, out_dim, basis=basis, rng=np.random.default_rng(seed))


class TestSquash:
    # Hahn(n = 7) lives on [0, 7], Chebyshev on [-1, 1]
    def test_midpoint(self):
        s, _ = squash(make_basis("hahn", 3), 0.0)
        assert s == pytest.approx(3.5, abs=1e-14)

    def test_saturation(self):
        basis = make_basis("hahn", 3)
        high = squash(basis, 15.0)[0]
        assert high < 7.0
        assert high == pytest.approx(7.0, abs=1e-9)
        assert squash(basis, -15.0)[0] > 0.0

    def test_derivative_at_zero(self):
        basis = make_basis("hahn", 3)
        _, ds = squash(basis, np.array(0.0), slope=True)
        assert ds == pytest.approx(3.5, abs=1e-14)
        step = 1e-6
        fd = (squash(basis, np.array(step))[0] - squash(basis, np.array(-step))[0]) / (2 * step)
        assert abs(ds - fd) < 1e-8

    def test_monotone(self):
        xs = np.linspace(-4, 4, 101)
        ys, _ = squash(make_basis("chebyshev", 3), xs)
        assert np.all(np.diff(ys) > 0)


class TestKanForward:
    def test_zero_coefficients_give_zero(self):
        layer = hahn_layer(4, 3)
        layer.gamma.data[:] = 0.0
        out = layer.forward(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))

    def test_constant_term_only(self):
        # with only degree-0 coefficients set to c, every output is in_dim * c
        layer = hahn_layer(4, 3)
        layer.gamma.data[:] = 0.0
        layer.gamma.data[:, :, 0] = 0.25
        out = layer.forward(Tensor(np.random.default_rng(1).normal(size=(6, 4))))
        np.testing.assert_allclose(out.data, np.full((6, 3), 4 * 0.25), atol=1e-12)

    def test_hand_case_degree_one(self):
        # gamma = [2, 3], x = 0: squash -> 3.5, P0 = 1, P1 = 1 - (4/14)*3.5 = 0
        layer = hahn_layer(1, 1, degree=1)
        layer.gamma.data[:] = np.array([[[2.0, 3.0]]])
        out = layer.forward(Tensor([[0.0]]))
        assert out.data[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError, match=r"expected extent 4 on axis -1, got \(5, 6\)"):
            hahn_layer(4, 3).forward(Tensor(np.zeros((5, 6))))

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)))
        layer = hahn_layer(3, 2)
        g1 = rng.normal(size=layer.gamma.shape)
        g2 = rng.normal(size=layer.gamma.shape)
        outs = []
        for g in (g1, g2, g1 + g2):
            layer.gamma.data = g.copy()
            outs.append(layer.forward(x).data)
        np.testing.assert_allclose(outs[0] + outs[1], outs[2], atol=1e-10)

    def test_degree_zero_output_is_row_independent(self):
        layer = hahn_layer(3, 2, degree=0)
        out = layer.forward(Tensor(np.random.default_rng(3).normal(size=(5, 3)))).data
        for i in range(1, 5):
            np.testing.assert_array_equal(out[i], out[0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        layer = hahn_layer(3, 2, seed=5)
        x = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        fd_check(lambda: squares(layer.forward(x)), [layer.gamma, x])

    def test_basis_values_shared_across_outputs(self):
        # one basis evaluation per input element, no matter how wide the output
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4))
        for out_dim in (1, 50):
            layer = hahn_layer(4, out_dim)
            layer.basis.eval_count = 0
            with tt.no_grad():
                layer.forward(Tensor(x))
            assert layer.basis.eval_count == 5 * 4


class TestLinearMode:
    def test_identity_weight(self):
        layer = KanLayer(3, 3, mode="linear")
        layer.gamma.data = np.eye(3)
        x = np.random.default_rng(7).normal(size=(4, 3))
        np.testing.assert_allclose(layer.forward(Tensor(x)).data, x, atol=1e-14)

    def test_zero_weight(self):
        layer = KanLayer(4, 2, mode="linear")
        layer.gamma.data[:] = 0.0
        out = layer.forward(Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(8)
        layer = KanLayer(4, 5, mode="linear", rng=rng)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            layer.forward(Tensor(x)).data, x @ layer.gamma.data.T, atol=1e-13
        )

    def test_gradients(self):
        rng = np.random.default_rng(9)
        layer = KanLayer(3, 2, mode="linear", rng=rng)
        x = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        fd_check(lambda: squares(layer.forward(x)), [layer.gamma, x], tol=1e-6)


class TestParamCount:
    def test_kan_counts(self):
        assert hahn_layer(128, 128, degree=3).gamma.size == 65_536
        assert hahn_layer(12, 12, degree=3).gamma.size == 576

    def test_block_total_at_reference_width(self):
        # D=128 intra plus N=12 inter at degree 3
        intra = hahn_layer(128, 128, degree=3)
        inter = hahn_layer(12, 12, degree=3)
        assert intra.gamma.size + inter.gamma.size == 66_112

    def test_linear_count(self):
        assert KanLayer(12, 34, mode="linear").gamma.size == 408


def naive_output(layer, x):
    """sum_p sum_r gamma[q, p, r] P_r(s(x_p)) over the layer's axis, by einsum."""
    if layer.mode == "linear":
        terms, gamma = x[..., None], layer.gamma.data[:, :, None]
    else:
        lo, hi = layer.basis.domain
        terms = eval_all(layer.basis, lo + (hi - lo) * 0.5 * (np.tanh(x) + 1.0))
        gamma = layer.gamma.data
    if layer.axis == -1:
        return np.einsum("...pr,qpr->...q", terms, gamma)
    return np.einsum("...pjr,qpr->...qj", terms, gamma)


# (layer axis, input shape); the contracted extent is 3 and the output width 4
CASES = {"last-2d": (-1, (5, 3)), "last-3d": (-1, (2, 5, 3)), "patch-3d": (-2, (2, 3, 5))}


def oracle_layer(kind, degree, case, mode="kan", seed=0):
    axis, shape = CASES[case]
    basis = make_basis(kind, degree) if mode == "kan" else None
    layer = KanLayer(3, 4, basis=basis, mode=mode, axis=axis,
                     rng=np.random.default_rng(seed))
    x = np.random.default_rng(seed + 1).uniform(-2, 2, shape)
    return layer, x


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["hahn", "chebyshev", "lucas"])
class TestAgainstNaiveEinsum:
    def test_values(self, kind, degree, case):
        layer, x = oracle_layer(kind, degree, case)
        want = naive_output(layer, x)
        with tt.no_grad():
            out = layer.forward(Tensor(x))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        out = layer.forward(Tensor(x, requires_grad=True))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        tt.backward(out.sum())

    def test_gradients(self, kind, degree, case):
        layer, x = oracle_layer(kind, degree, case, seed=2)
        xt = Tensor(x, requires_grad=True)
        fd_check(lambda: squares(layer.forward(xt)), [layer.gamma, xt])


@pytest.mark.parametrize("case", list(CASES))
class TestLinearAgainstNaiveEinsum:
    def test_values(self, case):
        layer, x = oracle_layer(None, None, case, mode="linear")
        out = layer.forward(Tensor(x))
        np.testing.assert_allclose(out.data, naive_output(layer, x), rtol=0, atol=1e-12)

    def test_gradients(self, case):
        layer, x = oracle_layer(None, None, case, mode="linear", seed=3)
        xt = Tensor(x, requires_grad=True)
        fd_check(lambda: squares(layer.forward(xt)), [layer.gamma, xt], tol=1e-6)


class TestPatchAxis:
    def test_output_keeps_the_trailing_axis(self):
        layer, x = oracle_layer("hahn", 3, "patch-3d")
        assert layer.forward(Tensor(x)).shape == (2, 4, 5)

    def test_extent_checked_on_the_contracted_axis(self):
        layer, _ = oracle_layer("hahn", 3, "patch-3d")
        with pytest.raises(ContractError, match=r"expected extent 3 on axis -2, got \(2, 5, 3\)"):
            layer.forward(Tensor(np.zeros((2, 5, 3))))
        with pytest.raises(ContractError, match=r"expected extent 3 on axis -2, got \(3,\)"):
            layer.forward(Tensor(np.zeros(3)))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ContractError):
            KanLayer(3, 3, mode="linear", axis=0)


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def in_input_order(calls: list) -> list:
    """Recorded (name, copy, address) calls sorted by where their rows start.

    Pool workers call the basis in any order; each call takes a view of
    the layer's input, so its address places it.
    """
    return [call[:2] for call in sorted(calls, key=lambda call: call[2])]


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("grad", [True, False])
def test_one_basis_call_per_forward(case, grad):
    # the tracing contract: a tracer wraps the basis methods on the instance.
    # The forward's `eval_terms` calls take runs of raw input rows that,
    # ordered by their first row, tile the input once; the backward's
    # `eval_terms_with_deriv` calls tile it once more
    layer, x = oracle_layer("hahn", 3, case)
    calls = []
    for name in ("eval_terms", "eval_terms_with_deriv"):
        def traced(data, *args, _fn=getattr(layer.basis, name), _name=name, **kwargs):
            calls.append((_name, np.array(data), _address(data)))
            return _fn(data, *args, **kwargs)

        setattr(layer.basis, name, traced)
    xt = Tensor(x, requires_grad=grad)
    rows = x.reshape((-1,) + x.shape[layer.axis:])
    before = layer.basis.eval_count
    with nullcontext() if grad else tt.no_grad():
        out = layer.forward(xt)
    assert calls and {name for name, *_ in calls} == {"eval_terms"}
    np.testing.assert_array_equal(
        np.concatenate([data for _, data in in_input_order(calls)]), rows)
    assert layer.basis.eval_count - before == x.size
    if grad:
        forward_calls = len(calls)
        tt.backward(out.sum())
        blocks = in_input_order(calls[forward_calls:])
        assert blocks and {name for name, _ in blocks} == {"eval_terms_with_deriv"}
        np.testing.assert_array_equal(np.concatenate([data for _, data in blocks]), rows)
        assert layer.basis.eval_count - before == 2 * x.size


def test_forward_runs_tile_the_input_in_whole_cache_blocks():
    # 2 runs of RUN_BLOCKS cache blocks and a short third, ordered by their
    # first row
    layer = KanLayer(64, 5, basis=make_basis("hahn", 3), rng=np.random.default_rng(14))
    step = RUN_BLOCKS * block_rows(64)
    x = np.random.default_rng(15).normal(size=(2 * step + 7, 64))
    calls = []
    true_fn = layer.basis.eval_terms

    def traced(data, *a, **k):
        calls.append(("eval_terms", np.array(data), _address(data)))
        return true_fn(data, *a, **k)

    layer.basis.eval_terms = traced
    with tt.no_grad():
        layer.forward(Tensor(x))
    runs = [data for _, data in in_input_order(calls)]
    assert [len(r) for r in runs] == [step, step, 7]
    np.testing.assert_array_equal(np.concatenate(runs), x)


def test_backward_walks_the_forward_runs():
    # one `eval_terms_with_deriv` call (values and slope) per forward run, on
    # the run's rows, and one derivative matrix for the whole backward
    layer = KanLayer(64, 5, basis=make_basis("hahn", 3), rng=np.random.default_rng(20))
    step = RUN_BLOCKS * block_rows(64)
    x = Tensor(np.random.default_rng(21).normal(size=(2 * step + 7, 64)), requires_grad=True)
    calls = []
    for name in ("eval_terms", "eval_terms_with_deriv"):
        def traced(data, *args, _fn=getattr(layer.basis, name), _name=name, **kwargs):
            calls.append((_name, np.array(data), _address(data)))
            return _fn(data, *args, **kwargs)

        setattr(layer.basis, name, traced)
    matrices = []
    true_matrix = layer.basis.derivative_matrix
    layer.basis.derivative_matrix = lambda: matrices.append(true_matrix()) or matrices[-1]
    out = layer.forward(x)
    runs = in_input_order(calls)
    assert not matrices
    tt.backward(out.sum())
    grad_runs = in_input_order(calls[len(runs):])
    assert len(matrices) == 1
    assert [len(data) for _, data in runs] == [step, step, 7]
    assert {name for name, _ in grad_runs} == {"eval_terms_with_deriv"}
    for (_, run), (_, grad_run) in zip(runs, grad_runs, strict=True):
        np.testing.assert_array_equal(grad_run, run)


def test_basis_count_is_exact_on_a_pool_of_two():
    # RUN_BLOCKS + 1 cache blocks, the last one short: two runs, each pass
    # spread over two workers
    layer = KanLayer(64, 5, basis=make_basis("hahn", 3), rng=np.random.default_rng(16))
    blocks = RUN_BLOCKS + 1
    x = Tensor(np.random.default_rng(17).normal(size=(blocks * block_rows(64) - 5, 64)),
               requires_grad=True)
    assert len(_runs(len(x.data), 64)) == 2
    with pool._sized(2):
        out = layer.forward(x)
        assert layer.basis.eval_count == x.size
        tt.backward(out.sum())
    assert layer.basis.eval_count == 2 * x.size


@pytest.mark.parametrize("kind, degree", [
    pytest.param(kind, degree, id=kind if degree == 3 else f"{kind}-{degree}")
    for kind in ("hahn", "chebyshev", "lucas") for degree in (0, 1, 3, 7)])
@pytest.mark.parametrize("axis, shape", [(-1, (1100, 64)), (-2, (37, 16, 128))],
                         ids=["last", "patch"])
def test_blocked_input_grad_is_the_whole_array_formula(kind, degree, axis, shape):
    # both shapes span three cache blocks, the last one short, and two runs
    # that a pool of two runs at once.  The layer's backward is handed g
    # directly: `tt.backward` frees activation gradients.  Degree 1 has no
    # product with W'_k for k >= 1, and degree 0 is the bias alone
    in_dim = shape[axis]
    layer = KanLayer(in_dim, in_dim + 3, basis=make_basis(kind, degree), axis=axis,
                     rng=np.random.default_rng(11))
    rng = np.random.default_rng(12)
    x = rng.normal(0.0, 1.5, shape)
    assert len(list(row_blocks(prod(shape[:axis]), prod(shape[axis:])))) == 3
    xt = Tensor(x, requires_grad=True)
    g = rng.normal(size=shape[:axis] + (in_dim + 3,) + shape[axis:][1:])
    with pool._sized(2):
        out = layer.forward(xt)
        recorded, back = tt._tape().pop()
        assert recorded is out and not tt._tape()
        back(g)
    # the layer takes derivatives from the values through D, the oracle from
    # the derivative recurrence, so they agree to rounding
    want = whole_input_grad(layer, g, x)
    np.testing.assert_allclose(xt.grad, want, rtol=0, atol=1e-13 * np.abs(want).max())
    # the coefficient gradient sums the runs' partial products, so it
    # matches the one-product formula to rounding of the sums.  Against the
    # sum of the products' magnitudes the error read <= 1.8e-16 at every
    # degree here; at degree 7, where sums of large values cancel, it read
    # up to 3x the fixed tolerance that holds through degree 3
    want = whole_gamma_grad(layer, g, x)
    err = np.abs(layer.gamma.grad - want)
    assert np.all(err <= 1e-15 * whole_gamma_grad(layer, g, x, magnitude=True))
    if degree <= 3:
        np.testing.assert_allclose(layer.gamma.grad, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("degree", [0, 3])
@pytest.mark.parametrize("axis, shape", [(-1, (2600, 64)), (-2, (70, 16, 128))],
                         ids=["last", "patch"])
def test_bias_grad_is_the_whole_array_sum(degree, axis, shape):
    # each run sums its rows of g and the partials add up in run order, so
    # gamma[:, :, 0]'s gradient is p0 times the one-sum formula to rounding,
    # and every degree's gradient is its partials added in run order
    in_dim = shape[axis]
    layer = KanLayer(in_dim, in_dim + 3, basis=make_basis("hahn", degree), axis=axis,
                     rng=np.random.default_rng(24))
    assert len(_runs(prod(shape[:axis]), prod(shape[axis:]))) >= 3
    rng = np.random.default_rng(25)
    x = rng.normal(size=shape)
    out = layer.forward(Tensor(x))
    _, back = tt._tape().pop()
    g = rng.normal(size=out.shape)
    with pool._sized(2):
        back(g)
    g_sum = g.sum(axis=tuple(i for i in range(g.ndim) if i != g.ndim + axis))
    want = np.broadcast_to((layer.basis.p0 * g_sum)[:, None], layer.gamma.shape[:2])
    np.testing.assert_allclose(layer.gamma.grad[:, :, 0], want, rtol=1e-13, atol=0)
    # the reference: the runs' partials added one by one, in run order
    weight = np.ascontiguousarray(layer.gamma.data[:, :, 1:].transpose(2, 0, 1))
    dw, db, _ = layer._grads(g, weight, x)
    want_w, want_b = dw[0].copy(), db[0].copy()
    for part_w, part_b in zip(dw[1:], db[1:]):
        want_w += part_w
        want_b += part_b
    assert layer.gamma.grad[:, :, 1:].tobytes() == want_w.transpose(1, 2, 0).tobytes()
    assert layer.gamma.grad[:, :, 0].tobytes() == np.broadcast_to(
        (layer.basis.p0 * want_b)[:, None], want.shape).tobytes()


def by_degree(*cases):
    """(degree, axis, shape) at degrees 1, 3 and 7 for each (axis, shape, id);
    degree 3 keeps the bare id."""
    return [pytest.param(degree, axis, shape, id=name if degree == 3 else f"{name}-{degree}")
            for axis, shape, name in cases for degree in (1, 3, 7)]


def record_scratch(monkeypatch) -> list:
    """(name, elements) of every `pool.scratch` request from now on, any thread."""
    requests, true_scratch = [], pool.scratch
    monkeypatch.setattr(pool, "scratch",
                        lambda name, n: requests.append((name, n)) or true_scratch(name, n))
    return requests


def assert_scratch(requests, degree):
    # a worker's task scratch is a run's values, one slab per degree, and
    # one product slab (the output's in the forward, the input gradient's
    # sum in the backward); its basis scratch is two cache blocks, t =
    # tanh(x) and one product, at any degree
    assert {name for name, _ in requests} == {"task", "basis"}
    assert max(n for name, n in requests if name == "task") <= (
        (degree + 1) * RUN_BLOCKS * BLOCK_ELEMENTS)
    assert max(n for name, n in requests if name == "basis") <= 2 * BLOCK_ELEMENTS


RUN_CASES = by_degree((-1, (4096, 128), "last"), (-2, (64, 42, 128), "patch"))


@pytest.mark.parametrize("degree, axis, shape", RUN_CASES)
def test_grad_forward_stores_no_derivatives(degree, axis, shape, monkeypatch):
    # a grad-recording forward allocates its output (and a byte per element
    # to check it is finite) and gamma laid out as one weight matrix; each
    # pool worker adds at most its layer and basis scratch (`assert_scratch`).
    # No values or derivatives of the whole input exist: they alone would be
    # degree x the input
    layer = KanLayer(shape[axis], shape[axis], basis=make_basis("hahn", degree), axis=axis)
    x = Tensor(np.random.default_rng(13).normal(size=shape), requires_grad=True)
    requests = record_scratch(monkeypatch)
    with pool._sized(2) as workers:
        tracemalloc.start()
        try:
            out = layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tt.backward(out.sum())
    assert_scratch(requests, degree)
    scratch = ((degree + 1) * RUN_BLOCKS + 2) * BLOCK_ELEMENTS * 8
    assert peak < (out.data.nbytes * 9 // 8 + layer.gamma.data.nbytes
                   + workers.size * scratch)


@pytest.mark.parametrize("degree, axis, shape", RUN_CASES)
def test_backward_holds_one_run_per_worker(degree, axis, shape, monkeypatch):
    # a backward allocates the input gradient, gamma's gradient, the
    # derivative weights W' (gamma's size) and one coefficient-gradient
    # partial per run.  Each pool worker adds at most its layer and basis
    # scratch (`assert_scratch`): no derivative is stored.  The gradients
    # accumulate into existing buffers, so no copy of them is counted
    layer = KanLayer(shape[axis], shape[axis], basis=make_basis("hahn", degree), axis=axis)
    x = Tensor(np.random.default_rng(18).normal(size=shape), requires_grad=True)
    g = np.random.default_rng(19).normal(size=shape)
    runs = len(_runs(prod(shape[:axis]), prod(shape[axis:])))
    with pool._sized(2) as workers:
        layer.forward(x)
        _, back = tt._tape().pop()
        x.grad, layer.gamma.grad = np.zeros(shape), np.zeros(layer.gamma.shape)
        requests = record_scratch(monkeypatch)
        tracemalloc.start()
        try:
            back(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert_scratch(requests, degree)
    scratch = ((degree + 1) * RUN_BLOCKS + 2) * BLOCK_ELEMENTS * 8
    assert peak < (x.data.nbytes + (2 + runs) * layer.gamma.data.nbytes
                   + workers.size * scratch)


def test_an_unknown_mode_and_a_kan_layer_without_a_basis_are_refused():
    with pytest.raises(ContractError, match="unknown layer mode 'mlp'"):
        KanLayer(4, 4, basis=make_basis("hahn", 3), mode="mlp")
    with pytest.raises(ContractError, match="kan mode requires a basis"):
        KanLayer(4, 4)


@pytest.mark.parametrize("kind", ["hahn", "chebyshev", "lucas"])
@pytest.mark.parametrize("case", list(CASES))
def test_degree_zero_evaluates_no_basis(kind, case):
    # degree 0 is the bias alone: no basis call, no product, and an input
    # gradient of zeros
    layer, x = oracle_layer(kind, 0, case)
    xt = Tensor(x, requires_grad=True)
    before = layer.basis.eval_count
    out = layer.forward(xt)
    tt.backward(out.sum())
    assert layer.basis.eval_count == before
    np.testing.assert_allclose(out.data, naive_output(layer, x), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(xt.grad, np.zeros(x.shape))
