from dataclasses import replace

import numpy as np
import pytest

from fastweight import head as hd
from fastweight import linear_attention as la
from fastweight import numerics as nm
from fastweight import oracle
from fastweight.cli import main

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
    # The checker passes at seeds other than the ones `fwl verify` and the
    # acceptance suite use; 6 instances give each mask a T and d of its own.
    for check in oracle.verify(seed=1000 + seed, instances=6):
        assert check.ok, check


@pytest.mark.parametrize("module, name, perturb, check", [
    (la, "chunked_causal_linear_attention", lambda o: (o[0] + 1e-8, o[1]), "chunked attention"),
    (hd, "fast_forward", lambda t: replace(t, losses=t.losses + 1e-8), "oracle equivalence"),
    (hd, "generate_step", lambda g: replace(g, fast_loss=g.fast_loss + 1e-8), "generation"),
], ids=["kernel-output", "fast-pass-loss", "generate-step-loss"])
def test_verify_fails_under_planted_fault(monkeypatch, capsys, module, name, perturb, check):
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: perturb(fn(*a, **k)))
    assert any(c.name.startswith(check) and not c.ok for c in oracle.verify(3, 2))
    assert main(["verify", "--instances", "2"]) == 3
    assert f"FAIL  {check}" in capsys.readouterr().out
