import numpy as np
import pytest

from fastweight import linear_attention as la
from fastweight.numerics import ShapeError


def rand_qkv(rng, T, dk, dv):
    return rng.normal(size=(T, dk)), rng.normal(size=(T, dk)), rng.normal(size=(T, dv))


def test_first_row_is_zero_without_init():
    rng = np.random.default_rng(0)
    q, k, v = rand_qkv(rng, 1, 3, 2)
    out, final = la.causal_linear_attention(q, k, v)
    np.testing.assert_array_equal(out, np.zeros((1, 2)))
    np.testing.assert_allclose(final.accumulator, k.T @ v)


def test_single_row_with_init():
    rng = np.random.default_rng(1)
    q, k, v = rand_qkv(rng, 1, 3, 2)
    init = la.KVState(rng.normal(size=(3, 2)))
    out, _ = la.causal_linear_attention(q, k, v, init)
    np.testing.assert_allclose(out, q @ init.accumulator)


def test_hand_value():
    q = np.array([[1.0], [2.0]])
    k = np.array([[3.0], [4.0]])
    v = np.array([[5.0], [6.0]])
    out, final = la.causal_linear_attention(q, k, v)
    np.testing.assert_allclose(out, [[0.0], [30.0]])
    np.testing.assert_allclose(final.accumulator, [[3.0 * 5.0 + 4.0 * 6.0]])


def test_zero_values_give_init_projection():
    rng = np.random.default_rng(2)
    q, k, _ = rand_qkv(rng, 5, 4, 3)
    init = la.KVState(rng.normal(size=(4, 3)))
    out, _ = la.causal_linear_attention(q, k, np.zeros((5, 3)), init)
    np.testing.assert_allclose(out, q @ init.accumulator)


def test_shape_error():
    with pytest.raises(ShapeError):
        la.causal_linear_attention(np.zeros((3, 2)), np.zeros((3, 4)), np.zeros((3, 2)))


@pytest.mark.parametrize("T", [1, 2, 17, 64, 257, 512])
@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_chunked_matches_quadratic(T, chunk):
    rng = np.random.default_rng(T)
    q, k, v = rand_qkv(rng, T, 5, 4)
    chunk = T if chunk is None else chunk
    ref, ref_state = la.causal_linear_attention(q, k, v)
    got, got_state = la.chunked_causal_linear_attention(q, k, v, chunk)
    np.testing.assert_allclose(got, ref, atol=1e-10)
    np.testing.assert_allclose(got_state.accumulator, ref_state.accumulator, atol=1e-10)


def test_chunked_matches_quadratic_with_init():
    rng = np.random.default_rng(7)
    q, k, v = rand_qkv(rng, 33, 6, 3)
    init = la.KVState(rng.normal(size=(6, 3)))
    ref, _ = la.causal_linear_attention(q, k, v, init)
    got, _ = la.chunked_causal_linear_attention(q, k, v, 7, init)
    np.testing.assert_allclose(got, ref, atol=1e-10)


def test_state_additivity_across_split():
    rng = np.random.default_rng(8)
    q, k, v = rand_qkv(rng, 20, 4, 4)
    whole, whole_state = la.causal_linear_attention(q, k, v)
    first, mid = la.causal_linear_attention(q[:9], k[:9], v[:9])
    second, end = la.causal_linear_attention(q[9:], k[9:], v[9:], mid)
    np.testing.assert_allclose(np.vstack([first, second]), whole, atol=1e-12)
    np.testing.assert_allclose(end.accumulator, whole_state.accumulator, atol=1e-12)


def test_state_is_additive_over_spans():
    rng = np.random.default_rng(9)
    _, k, v = rand_qkv(rng, 12, 3, 5)
    _, s_all = la.causal_linear_attention(np.zeros((12, 3)), k, v)
    _, s_a = la.causal_linear_attention(np.zeros((5, 3)), k[:5], v[:5])
    _, s_b = la.causal_linear_attention(np.zeros((7, 3)), k[5:], v[5:])
    np.testing.assert_allclose(s_a.accumulator + s_b.accumulator, s_all.accumulator)


def test_vjp_matches_dense_reference():
    rng = np.random.default_rng(10)
    T, dk, dv = 11, 4, 3
    q, k, v = rand_qkv(rng, T, dk, dv)
    init = la.KVState(rng.normal(size=(dk, dv)))
    d_out = rng.normal(size=(T, dv))

    # dense reference via explicit masked score matrix
    scores = np.tril(q @ k.T, k=-1)
    dq_ref = d_out @ (init.accumulator.T) + (d_out @ v.T * np.tril(np.ones((T, T)), -1)) @ k
    dscores = np.tril(d_out @ v.T, k=-1)
    dk_ref = dscores.T @ q
    dv_ref = scores.T @ d_out
    dinit_ref = q.T @ d_out

    for chunk in (T, 4):
        dq, dk_, dv_, dinit = la.causal_linear_attention_vjp(q, k, v, d_out, init, chunk)
        np.testing.assert_allclose(dq, dq_ref, atol=1e-10)
        np.testing.assert_allclose(dk_, dk_ref, atol=1e-10)
        np.testing.assert_allclose(dv_, dv_ref, atol=1e-10)
        np.testing.assert_allclose(dinit, dinit_ref, atol=1e-10)


def test_chunked_flops_beat_quadratic_at_long_T():
    assert la.flops_chunked(4096, 64, 64, 128) < la.flops_quadratic(4096, 64, 64)
