import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastweight import numerics as nm
from reference_tools import softmax_xent


def test_relu2_sign_cases():
    y, mask = nm.relu2(np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(y, [0.0, 0.0, 4.0])
    np.testing.assert_array_equal(mask, [0.0, 0.0, 4.0])


def test_relu2_all_negative():
    y, _ = nm.relu2(np.array([-3.0, -0.5]))
    np.testing.assert_array_equal(y, np.zeros(2))


def test_relu2_derivative_matches_finite_difference():
    x = np.array([1.5])
    _, mask = nm.relu2(x)
    fd = nm.finite_diff_grad(lambda v: nm.relu2(v)[0].sum(), x, eps=1e-6)
    np.testing.assert_allclose(mask, fd, atol=1e-6)


def test_layernorm_constant_input_is_zero():
    y, _ = nm.layernorm_fwd(np.array([5.0, 5.0, 5.0]), np.ones(3), np.zeros(3))
    np.testing.assert_allclose(y, np.zeros(3), atol=1e-12)


def test_layernorm_symmetric_input():
    y, _ = nm.layernorm_fwd(np.array([-1.0, 1.0]), np.ones(2), np.zeros(2))
    np.testing.assert_allclose(y, [-1.0, 1.0], atol=1e-4)


def test_layernorm_per_row_gain_with_vector_bias_equals_broadcast_call():
    rng = np.random.default_rng(11)
    x, gain_rows, bias = rng.normal(size=(5, 4)), rng.normal(size=(5, 4)), rng.normal(size=4)
    y, (xhat, istd, _) = nm.layernorm_fwd(x, gain_rows, bias)
    y_b, (xhat_b, istd_b, _) = nm.layernorm_fwd(x, gain_rows, np.broadcast_to(bias, (5, 4)))
    for got, want in ((y, y_b), (xhat, xhat_b), (istd, istd_b)):
        assert got.tobytes() == want.tobytes()
    for gain, b in ((np.ones(3), bias), (gain_rows, np.zeros(5)), (np.ones((5, 3)), bias)):
        with pytest.raises(nm.ShapeError):
            nm.layernorm_fwd(x, gain, b)


def test_layernorm_bwd_matches_finite_difference():
    rng = np.random.default_rng(0)
    x = rng.normal(size=8)
    gain = rng.normal(1.0, 0.3, size=8)
    bias = rng.normal(size=8)
    dy = rng.normal(size=8)

    def loss_of(x_):
        y, _ = nm.layernorm_fwd(x_, gain, bias)
        return float(y @ dy)

    _, cache = nm.layernorm_fwd(x, gain, bias)
    dx, dgain, dbias = nm.layernorm_bwd(cache, dy)
    np.testing.assert_allclose(dx, nm.finite_diff_grad(loss_of, x), atol=1e-6)

    def loss_of_gain(g_):
        y, _ = nm.layernorm_fwd(x, g_, bias)
        return float(y @ dy)

    np.testing.assert_allclose(dgain, nm.finite_diff_grad(loss_of_gain, gain), atol=1e-6)
    np.testing.assert_allclose(dbias, dy)


def test_layernorm_bwd_per_row_gain_matches_finite_difference():
    # (T, d) gain and bias rows, the form the fast pass and its VJP use
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 5))
    gain = rng.normal(1.0, 0.3, size=(3, 5))
    bias = rng.normal(size=(3, 5))
    dy = rng.normal(size=(3, 5))

    def loss_of(x_):
        y, _ = nm.layernorm_fwd(x_, gain, bias)
        return float((y * dy).sum())

    _, cache = nm.layernorm_fwd(x, gain, bias)
    dx, _, _ = nm.layernorm_bwd(cache, dy)
    np.testing.assert_allclose(dx, nm.finite_diff_grad(loss_of, x), atol=1e-8)


def test_layernorm_bwd_zero_upstream():
    _, cache = nm.layernorm_fwd(np.arange(4.0), np.ones(4), np.zeros(4))
    dx, dgain, dbias = nm.layernorm_bwd(cache, np.zeros(4))
    assert not dx.any() and not dgain.any() and not dbias.any()


def test_layernorm_dgain_is_dy_times_xhat():
    x = np.array([0.3, -1.2, 2.0, 0.1])
    y, cache = nm.layernorm_fwd(x, np.ones(4), np.zeros(4))
    dy = np.array([1.0, -2.0, 0.5, 0.0])
    _, dgain, _ = nm.layernorm_bwd(cache, dy)
    np.testing.assert_allclose(dgain, dy * y)  # gain=1, bias=0 so y == xhat


def test_layernorm_dx_orthogonal_to_ones():
    rng = np.random.default_rng(3)
    x = rng.normal(size=6)
    _, cache = nm.layernorm_fwd(x, np.full(6, 1.7), np.zeros(6))
    dx, _, _ = nm.layernorm_bwd(cache, rng.normal(size=6))
    assert abs(dx.sum()) < 1e-10


def test_softmax_xent_symmetric():
    loss, d = softmax_xent(np.array([0.0, 0.0]), 0)
    assert loss == pytest.approx(np.log(2.0))
    np.testing.assert_allclose(d, [-0.5, 0.5])


def test_softmax_xent_stability():
    loss, d = softmax_xent(np.array([1000.0, 0.0]), 0)
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(d))


def test_softmax_xent_target_out_of_range():
    for target in (2, -1):
        with pytest.raises(nm.InputError):
            nm.softmax_xent_rows(np.array([[0.0, 1.0]]), np.array([target]))


@given(st.lists(st.floats(-15, 15), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_xent_gradient_properties(logit_vals):
    # logit gaps < 36 keep the probabilities away from f64 saturation,
    # so the open-interval bound on dlogits is exact
    logits = np.array(logit_vals)
    loss, d = softmax_xent(logits, 0)
    assert loss >= 0.0
    assert abs(d.sum()) < 1e-12
    assert np.all(d > -1.0) and np.all(d < 1.0)


def test_softmax_xent_gradient_saturated_inputs_stay_bounded():
    loss, d = softmax_xent(np.array([-500.0, 500.0]), 0)
    assert np.isfinite(loss) and loss == pytest.approx(1000.0)
    assert np.all(d >= -1.0) and np.all(d <= 1.0)


def test_softmax_xent_rows_matches_per_row_softmax_xent():
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=3.0, size=(5, 6))
    logits[3] = [1000.0, -1000.0, 0.0, 999.0, -1.0, 3.0]
    logits[4] = [-1000.0, 1000.0, -1000.0, 0.0, 5.0, 1000.0]
    targets = np.array([0, 5, 2, 1, 0])
    losses, probs = nm.softmax_xent_rows(logits, targets)
    for t in range(5):
        loss, d = softmax_xent(logits[t], targets[t])
        assert losses[t] == pytest.approx(loss, rel=1e-15, abs=1e-12)
        onehot = np.eye(6)[targets[t]]
        np.testing.assert_allclose(probs[t], d + onehot, rtol=0, atol=1e-15)
    assert np.all(np.isfinite(losses))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("T", [1, 9])
def test_reductions_are_bit_equal_to_their_textbook_forms(T):
    # the primitives reduce through np.add.reduce and np.maximum.reduce, which
    # ndarray.sum and ndarray.max run; the results are the same bits
    rng = np.random.default_rng(T)
    d, V = 64, 198
    x, dy = rng.normal(size=(2, T, d))
    logits = rng.normal(scale=3.0, size=(T, V))
    targets = rng.integers(0, V, size=T)
    for gain in (rng.normal(size=d), rng.normal(size=(T, d))):
        bias = rng.normal(size=d)
        y, cache = nm.layernorm_fwd(x, gain, bias)
        cdev = x - x.sum(axis=-1, keepdims=True) / d
        istd = 1.0 / np.sqrt((cdev * cdev).sum(axis=-1, keepdims=True) / d + nm.LN_EPS)
        xhat = cdev * istd
        assert np.array_equal(y, gain * xhat + bias)
        assert np.array_equal(cache[0], xhat) and np.array_equal(cache[1], istd)
        dxh = dy * gain
        dx = istd * (dxh - dxh.sum(axis=-1, keepdims=True) / d
                     - xhat * ((dxh * xhat).sum(axis=-1, keepdims=True) / d))
        assert np.array_equal(nm.layernorm_dx(cache, dy), dx)
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=-1, keepdims=True)
    assert np.array_equal(nm.softmax(logits), e / s)
    losses, probs = nm.softmax_xent_rows(logits, targets)
    assert np.array_equal(losses, (m + np.log(s))[:, 0] - logits[np.arange(T), targets])
    assert np.array_equal(probs, e / s)


def test_exclusive_cumsum_single_row():
    np.testing.assert_array_equal(nm.exclusive_cumsum_rows(np.array([[3.0, 4.0]])),
                                  np.zeros((1, 2)))


def test_exclusive_cumsum_hand_value():
    g = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(nm.exclusive_cumsum_rows(g), [[0.0], [1.0], [3.0]])


def test_exclusive_cumsum_telescoping():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(7, 3))
    out = nm.exclusive_cumsum_rows(g)
    np.testing.assert_allclose(out[-1] + g[-1], g.sum(axis=0))


def test_exclusive_cumsum_segment_splitting():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    whole = nm.exclusive_cumsum_rows(np.vstack([a, b]))
    part = nm.exclusive_cumsum_rows(b) + a.sum(axis=0)
    np.testing.assert_allclose(whole[4:], part)


def test_reverse_exclusive_cumsum_is_transpose():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(6, 2))
    d = rng.normal(size=(6, 2))
    # <XC(g), d> == <g, XC^T(d)>
    lhs = float((nm.exclusive_cumsum_rows(g) * d).sum())
    rhs = float((g * nm.exclusive_cumsum_rows(d[::-1])[::-1]).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_finite_diff_grad_linear():
    fd = nm.finite_diff_grad(lambda x: float(x.sum()), np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(fd, np.ones(3), atol=1e-9)


def test_finite_diff_grad_quadratic():
    x = np.array([0.4, -1.3, 2.2])
    fd = nm.finite_diff_grad(lambda v: float(0.5 * v @ v), x)
    np.testing.assert_allclose(fd, x, atol=1e-9)


def test_softmax_xent_gradient_matches_finite_difference():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=12)
    _, d = softmax_xent(logits, 3)
    fd = nm.finite_diff_grad(lambda v: softmax_xent(v, 3)[0], logits)
    rel = np.abs(d - fd) / (np.abs(fd) + 1e-8)
    assert rel.max() < 1e-5
