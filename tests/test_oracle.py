import numpy as np
import pytest

from fastweight import head as hd
from fastweight import numerics as nm
from fastweight import oracle

from test_head import make_instance


def test_zero_alpha_equals_slow_losses():
    head, _, H, targets = make_instance(20, T=7)
    steps = dict.fromkeys(hd.MASK_ALL, 0.0)
    _, slow = hd.slow_forward(head, H, targets)
    np.testing.assert_allclose(oracle.sequential_fast_forward(head, steps, H, targets),
                               slow, atol=1e-12)


def test_single_position_equals_slow_loss():
    head, steps, H, targets = make_instance(21, T=1)
    _, slow = hd.slow_forward(head, H, targets)
    np.testing.assert_allclose(oracle.sequential_fast_forward(head, steps, H, targets),
                               slow, atol=1e-12)


def test_internal_gradient_matches_finite_differences():
    head, _, H, targets = make_instance(22, T=1, d=5, m=4, vocab=4)
    slow = {n: t.copy() for n, t in head.named()}
    grads = oracle._full_grads(slow, H[0], int(targets[0]))

    for name in ("W", "a", "ln_gain", "c"):
        def loss_of(flat, name=name):
            trial = {k: v.copy() for k, v in slow.items()}
            trial[name] = flat.reshape(slow[name].shape)
            loss, _ = oracle._forward(trial, H[0], int(targets[0]))
            return float(loss)

        fd = nm.finite_diff_grad(loss_of, slow[name].reshape(-1).copy())
        rel = np.abs(grads[name].reshape(-1) - fd) / (np.abs(fd) + 1e-7)
        assert rel.max() < 1e-5, name


@pytest.mark.parametrize("seed", range(6))
def test_defining_cross_check_random_instances(seed):
    masks = [hd.MASK_BIAS_ONLY, hd.MASK_VECTORS, hd.MASK_MATRICES, hd.MASK_ALL]
    rng = np.random.default_rng(1000 + seed)
    T = int(rng.choice([1, 2, 17, 33]))
    d = int(rng.choice([4, 16]))
    head, steps, H, targets = make_instance(seed, T=T, d=d, m=d, vocab=int(rng.choice([3, 17])),
                                            mask=masks[seed % 4])
    tape, _ = hd.slow_forward(head, H, targets)
    grads = hd.per_position_grads(head, tape)
    fast = hd.fast_forward(head, steps, H, tape, grads, chunk_size=8)
    ref = oracle.sequential_fast_forward(head, steps, H, targets)
    np.testing.assert_allclose(fast.losses, ref, atol=1e-9)
