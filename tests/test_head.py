import numpy as np
import pytest

from fastweight import head as hd
from fastweight import numerics as nm
from fastweight import oracle


def make_instance(seed, T=6, d=4, m=5, vocab=7, mask=hd.MASK_ALL, alpha_scale=0.02):
    rng = np.random.default_rng(seed)
    head = hd.init_head(d, m, vocab, seed=seed)
    H = rng.normal(size=(T, d))
    targets = rng.integers(0, vocab, size=T)
    alphas = {n: float(a) for n, a in
              zip(hd.TENSOR_NAMES, alpha_scale * rng.uniform(0.2, 1.0, 8) * rng.choice([-1, 1], 8))}
    steps = hd.StepSizes(alphas, tuple(mask))
    return head, steps, H, targets


def test_slow_forward_single_position():
    head, _, H, targets = make_instance(0, T=1)
    tape, losses = hd.slow_forward(head, H, targets)
    assert losses.shape == (1,)
    assert np.all(losses >= 0)
    assert tape.logits.shape == (1, 7)


def test_slow_forward_losses_nonnegative():
    head, _, H, targets = make_instance(1, T=12)
    _, losses = hd.slow_forward(head, H, targets)
    assert np.all(losses >= 0)


def test_slow_forward_zero_weights_uniform_loss():
    head = hd.HeadParams(
        U=np.zeros((1, 1)), a=np.zeros(1), W=np.zeros((1, 1)), b=np.zeros(1),
        ln_gain=np.ones(1), ln_bias=np.zeros(1), E=np.zeros((1, 2)), c=np.zeros(2))
    _, losses = hd.slow_forward(head, np.zeros((1, 1)), np.array([0]))
    assert losses[0] == pytest.approx(np.log(2.0))


def test_per_position_grads_softmax_row():
    head, _, H, targets = make_instance(2)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    expected = tape.probs.copy()
    expected[np.arange(len(targets)), targets] -= 1.0
    np.testing.assert_allclose(grads.g_logits, expected)


def test_rank_one_outer_product_matches_finite_difference_U():
    head, _, H, targets = make_instance(3, T=2, d=8, m=6, vocab=5)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    analytic = np.outer(tape.h[0], grads.g_z[0])

    def loss_of_U_flat(u_flat):
        trial = head.copy()
        trial.U = u_flat.reshape(head.U.shape)
        _, losses = hd.slow_forward(trial, H, targets)
        return float(losses[0])

    fd = nm.finite_diff_grad(loss_of_U_flat, head.U.reshape(-1).copy())
    rel = np.abs(analytic.reshape(-1) - fd) / (np.abs(fd) + 1e-8)
    assert rel.max() < 1e-5


@pytest.mark.parametrize("name,inp", [("U", "h"), ("W", "v"), ("E", "u")])
def test_rank_one_identity_all_matrices(name, inp):
    head, _, H, targets = make_instance(4, T=3, d=8, m=7, vocab=6)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    t = 1
    analytic = np.outer(getattr(tape, inp)[t], grads.rows(name)[t])

    def loss_of(flat):
        trial = head.copy()
        setattr(trial, name, flat.reshape(head.tensor(name).shape))
        _, losses = hd.slow_forward(trial, H, targets)
        return float(losses[t])

    fd = nm.finite_diff_grad(loss_of, head.tensor(name).reshape(-1).copy())
    rel = np.abs(analytic.reshape(-1) - fd) / (np.abs(fd) + 1e-8)
    assert rel.max() < 1e-5


def test_fast_forward_zero_alpha_is_identity():
    head, _, H, targets = make_instance(5, T=9)
    steps = hd.StepSizes.uniform(0.0)
    tape, losses = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    fast = hd.fast_forward(head, steps, H, tape, grads)
    np.testing.assert_array_equal(fast.losses, losses)


def test_fast_forward_empty_mask_is_slow_path():
    head, steps, H, targets = make_instance(6, T=5)
    steps = hd.StepSizes(steps.alpha, ())
    tape, losses = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    fast = hd.fast_forward(head, steps, H, tape, grads)
    assert fast.losses is losses or np.array_equal(fast.losses, losses)
    np.testing.assert_array_equal(fast.logits, tape.logits)


@pytest.mark.parametrize("mask, reused", [
    (hd.MASK_BIAS_ONLY, ("v", "xhat", "u")), (("E",), ("v", "xhat", "u")),
    (("ln_gain",), ("v",)), (("b",), ("v",)), (("W",), ("v",)), (("a",), ()),
])
def test_fast_forward_reuses_the_slow_layers_below_the_mask(mask, reused):
    # a layer is recomputed only when a tensor at or below it is fast, so
    # bias-only scoring costs one output layer on top of the slow pass
    head, steps, H, targets = make_instance(9, T=5, mask=mask)
    tape, _ = hd.slow_forward(head, H, targets)
    fast = hd.fast_forward(head, steps, H, tape, hd.per_position_grads(head, tape))
    for name in ("v", "xhat", "u"):
        assert (getattr(fast.cache, name) is getattr(tape, name)) == (name in reused), name


def test_fast_forward_first_position_unchanged():
    head, steps, H, targets = make_instance(7, T=4)
    tape, losses = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    fast = hd.fast_forward(head, steps, H, tape, grads)
    assert fast.losses[0] == pytest.approx(losses[0], abs=1e-12)


@pytest.mark.parametrize("mask", [hd.MASK_ALL, hd.MASK_BIAS_ONLY, hd.MASK_VECTORS,
                                  hd.MASK_MATRICES, ("U",), ("E", "c"), ("ln_gain", "ln_bias")])
def test_fast_forward_matches_sequential_oracle(mask):
    head, steps, H, targets = make_instance(8, T=13, d=6, m=5, vocab=5, mask=mask)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    fast = hd.fast_forward(head, steps, H, tape, grads, chunk_size=4)
    ref = oracle.sequential_fast_forward(head, steps, H, targets)
    np.testing.assert_allclose(fast.losses, ref, atol=1e-9)


def test_fast_forward_larger_instance_matches_oracle():
    head, steps, H, targets = make_instance(9, T=32, d=16, m=12, vocab=11)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    fast = hd.fast_forward(head, steps, H, tape, grads, chunk_size=8)
    ref = oracle.sequential_fast_forward(head, steps, H, targets)
    np.testing.assert_allclose(fast.losses, ref, atol=1e-9)


def test_fast_forward_causality_in_targets():
    # L'_t may depend on targets < t only (plus its own target through CE).
    head, steps, H, targets = make_instance(10, T=8)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    base = hd.fast_forward(head, steps, H, tape, grads).losses
    changed = targets.copy()
    changed[5] = (changed[5] + 1) % 7
    tape2, _ = hd.slow_forward(head, H, changed)
    grads2 = hd.per_position_grads(head, tape2)
    after = hd.fast_forward(head, steps, H, tape2, grads2).losses
    np.testing.assert_allclose(after[:5], base[:5], atol=1e-12)


def test_stream_state_gamma_zero_is_segment_sum():
    head, steps, H, targets = make_instance(11, T=6)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    state = hd.StreamState.zeros(head, steps.mask)
    state.acc["c"][:] = 99.0
    new = hd.update_stream_state(state, grads, tape, {n: 0.0 for n in steps.mask})
    np.testing.assert_allclose(new.acc["c"], grads.g_logits.sum(axis=0))
    np.testing.assert_allclose(new.acc["U"], tape.h.T @ grads.g_z)


def test_stream_state_gamma_one_zero_grads_identity():
    head, steps, H, targets = make_instance(12, T=4)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    zero_grads = hd.PositionGrads(*(np.zeros_like(x) for x in
                                    (grads.g_logits, grads.g_u, grads.g_o, grads.g_z, grads.g_ln_gain)))
    state = hd.StreamState.zeros(head, steps.mask)
    for k in state.acc:
        state.acc[k] += 1.5
    new = hd.update_stream_state(state, zero_grads, tape, {n: 1.0 for n in steps.mask})
    for k in state.acc:
        np.testing.assert_allclose(new.acc[k], state.acc[k])


def test_streaming_segments_match_concatenated_pass():
    # gamma = 1 and a backbone-free H: two threaded segments == one long pass
    head, steps, H, targets = make_instance(13, T=14, d=5, m=6, vocab=6)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    full = hd.fast_forward(head, steps, H, tape, grads).losses

    cut = 6
    state = hd.StreamState.zeros(head, steps.mask)
    t1, _ = hd.slow_forward(head, H[:cut], targets[:cut])
    g1 = hd.per_position_grads(head, t1)
    seg1 = hd.fast_forward(head, steps, H[:cut], t1, g1, state=state).losses
    state = hd.update_stream_state(state, g1, t1, {n: 1.0 for n in steps.mask})
    t2, _ = hd.slow_forward(head, H[cut:], targets[cut:])
    g2 = hd.per_position_grads(head, t2)
    seg2 = hd.fast_forward(head, steps, H[cut:], t2, g2, state=state).losses
    np.testing.assert_allclose(np.concatenate([seg1, seg2]), full, atol=1e-10)


def test_stream_state_shape_mismatch():
    head, steps, H, targets = make_instance(14, T=3)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    state = hd.StreamState.zeros(head, steps.mask)
    state.acc["U"] = np.zeros((2, 2))
    with pytest.raises(nm.StateError):
        hd.fast_forward(head, steps, H, tape, grads, state=state)


def test_generate_step_zero_alpha_matches_slow_sampling():
    head, _, H, _ = make_instance(15, T=1)
    steps = hd.StepSizes.uniform(0.0)
    offsets = hd.StreamState.zeros(head, steps.mask)
    out = hd.generate_step(head, steps, offsets, H[0], 1.0, np.random.default_rng(42))
    tape, _ = hd.slow_forward(head, H, [0])
    expected = hd.sample_token(tape.logits[0], 1.0, np.random.default_rng(42))
    assert out.token == expected


def test_generate_step_temperature_zero_tie_break():
    logits = np.array([1.0, 1.0, 0.5])
    assert hd.sample_token(logits, 0.0, np.random.default_rng(0)) == 0


def test_generation_scoring_consistency():
    # teacher-forcing the sampled tokens reproduces the generator's losses
    head, steps, H, _ = make_instance(16, T=10, d=5, m=4, vocab=6)
    rng = np.random.default_rng(7)
    offsets = hd.StreamState.zeros(head, steps.mask)
    tokens, gen_losses = [], []
    for t in range(H.shape[0]):
        out = hd.generate_step(head, steps, offsets, H[t], 0.8, rng)
        offsets = out.offsets
        tokens.append(out.token)
        gen_losses.append(out.fast_loss)
    targets = np.array(tokens)
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    fast = hd.fast_forward(head, steps, H, tape, grads)
    np.testing.assert_allclose(fast.losses, gen_losses, atol=1e-9)
