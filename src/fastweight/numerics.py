"""Dense float64 primitives with hand-written backward passes.

Everything downstream (head, backbone, training) is assembled from these
closed forms, so second-order training gradients come out of differentiating
the explicit compositions rather than a tape-based autodiff.

Conventions: row-major, positions are rows; weight matrices are laid out
(d_in, d_out) so the forward is `x @ W`.
"""

import dataclasses
import sys

import numpy as np

LN_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes are inconsistent."""


class ConfigError(ValueError):
    """A configuration field is invalid."""


def check_field_types(config):
    """Raise ConfigError unless each field of the dataclass `config` holds its
    annotated type: a bool only for a bool field (bool is an int subclass), an
    int or a finite float for a float field (an int too large for a float is
    not finite), a tuple of str for tuple[str, ...], an instance otherwise."""
    for f in dataclasses.fields(config):
        v = getattr(config, f.name)
        if f.type is float:
            ok = isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
        elif f.type == tuple[str, ...]:
            ok = isinstance(v, tuple) and all(isinstance(n, str) for n in v)
        else:
            ok = isinstance(v, f.type)
        if not ok or (isinstance(v, bool) and f.type is not bool):
            want = "a finite number" if f.type is float else f"of type {f.type.__name__}"
            raise ConfigError(f"{f.name} must be {want}, got {v!r}")


class InputError(ValueError):
    """An input sequence violates a precondition (length, vocab range)."""


class StateError(ValueError):
    """A carried state does not match the model shapes."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values."""


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def relu2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y = max(x, 0)^2 and its derivative mask 2*max(x, 0). Elementwise."""
    x = as_f64(x)
    r = np.maximum(x, 0.0)
    return r * r, 2.0 * r


def layernorm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LN_EPS):
    """Normalize the last axis: y = gain * (x - mean) / sqrt(var + eps) + bias.

    Works on (d,) vectors or (T, d) rows, with (d,) or per-row (T, d) gain and
    bias. Returns (y, cache), cache = (xhat, istd, gain) for layernorm_bwd and
    layernorm_dx.
    """
    x = as_f64(x)
    gain = as_f64(gain)
    bias = as_f64(bias)
    # last dimensions only: np.broadcast_shapes costs more than the check is worth
    if gain.shape[-1] != x.shape[-1] or bias.shape[-1] != x.shape[-1]:
        raise ShapeError(
            f"layernorm gain/bias {gain.shape}/{bias.shape} do not match input {x.shape}"
        )
    # np.add.reduce is ndarray.sum without its Python-level wrapper (sum / d is mean)
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    # not in place: at one row an out= keyword costs more than the (T, 1) array it saves
    istd = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d + eps)
    xhat *= istd
    y = gain * xhat
    y += bias
    return y, (xhat, istd, gain)


def layernorm_dx(cache, dy: np.ndarray) -> np.ndarray:
    """layernorm_bwd's dx alone, folding the mean and variance paths:
    dx = istd * (dxh - mean(dxh) - xhat * mean(dxh*xhat)) with dxh = dy * gain."""
    xhat, istd, gain = cache
    dy = as_f64(dy)
    if dy.shape != xhat.shape:
        raise ShapeError(f"dy {dy.shape} does not match forward input {xhat.shape}")
    dxh = dy * gain
    d = dxh.shape[-1]
    m1 = np.add.reduce(dxh, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(dxh * xhat, axis=-1, keepdims=True) / d
    return istd * (dxh - m1 - xhat * m2)


def layernorm_bwd(cache, dy: np.ndarray):
    """Exact gradients for layernorm_fwd: (dx, dgain, dbias), dx by
    layernorm_dx. For row inputs dgain/dbias are summed over rows."""
    dx = layernorm_dx(cache, dy)
    dy = as_f64(dy)
    if dy.ndim == 1:
        return dx, dy * cache[0], dy.copy()
    return dx, (dy * cache[0]).sum(axis=0), dy.sum(axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    logits = as_f64(logits)
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def softmax_xent_rows(logits: np.ndarray, targets: np.ndarray):
    """Row-wise cross entropy. logits (T, V), targets (T,) ints.

    Returns (losses (T,), probs (T, V)); one exponential serves both.
    """
    logits = as_f64(logits)
    targets = np.asarray(targets)
    T, V = logits.shape
    if targets.shape != (T,):
        raise ShapeError(f"targets {targets.shape} do not match logits {logits.shape}")
    if (np.minimum.reduce(targets, initial=0) < 0
            or np.maximum.reduce(targets, initial=-1) >= V):
        raise InputError("target id out of vocabulary range")
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    losses = (m + np.log(s))[:, 0] - logits[np.arange(T), targets]
    e /= s
    return losses, e


def exclusive_cumsum_rows(g: np.ndarray) -> np.ndarray:
    """out[t] = sum_{i<t} g[i]; row 0 is zero. g (T, d) -> (T, d)."""
    g = as_f64(g)
    out = np.zeros_like(g)
    if g.shape[0] > 1:
        np.cumsum(g[:-1], axis=0, out=out[1:])
    return out


def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar f at x, component by component."""
    x = as_f64(x)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = f(x)
        xf[i] = orig - eps
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * eps)
    return g
