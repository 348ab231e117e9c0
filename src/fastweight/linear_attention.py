"""Exact causal linear attention (no softmax).

O_t = q_t @ (init + sum_{i<t} k_i^T v_i): strictly causal, so row 0 sees only
the initial state. Two interchangeable kernels: an O(T^2) masked-product
reference and a mixed-chunk version that is exact (not approximate) while
scaling as O(T*C*d + (T/C)*d^2).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, as_f64


@dataclass
class KVState:
    """Accumulated sum of key^T value outer products over consumed positions.

    Additive across consecutive spans: state(A then B) = state(A) + state(B).
    """

    accumulator: np.ndarray  # (d_key, d_value)


def _check_qkv(q, k, v, init):
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"expected 2-d Q/K/V, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query dim {q.shape} does not match key dim {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key rows {k.shape} do not match value rows {v.shape}")
    if q.shape[0] != k.shape[0]:
        raise ShapeError(f"query rows {q.shape} do not match key rows {k.shape}")
    if init is not None and init.accumulator.shape != (k.shape[1], v.shape[1]):
        raise ShapeError(
            f"init state {init.accumulator.shape} does not match "
            f"key/value dims ({k.shape[1]}, {v.shape[1]})"
        )


def causal_linear_attention(q, k, v, init: KVState | None = None):
    """Quadratic reference path. Returns (O (T, d_v), final KVState)."""
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    _check_qkv(q, k, v, init)
    T = q.shape[0]
    scores = np.tril(q @ k.T, k=-1)  # strict i < t
    out = scores @ v
    if init is not None:
        out += q @ init.accumulator
        final = KVState(init.accumulator + k.T @ v)
    else:
        final = KVState(k.T @ v)
    return out, final


def chunked_causal_linear_attention(q, k, v, chunk_size: int, init: KVState | None = None):
    """Mixed-chunk kernel: per-chunk quadratic attention plus each chunk's
    queries against the prefix KVState of earlier chunks. Exact, not an
    approximation; a ragged final chunk is simply shorter.
    """
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    _check_qkv(q, k, v, init)
    if chunk_size < 1:
        raise ShapeError(f"chunk_size must be >= 1, got {chunk_size}")
    T = q.shape[0]
    out = np.empty((T, v.shape[1]))
    state = init.accumulator.copy() if init is not None else np.zeros((k.shape[1], v.shape[1]))
    C = min(chunk_size, T)
    future = np.arange(C) >= np.arange(C)[:, None]  # key i not strictly before query t
    for s in range(0, T, chunk_size):
        e = min(s + chunk_size, T)
        qc, kc, vc = q[s:e], k[s:e], v[s:e]
        scores = qc @ kc.T
        np.copyto(scores, 0.0, where=future[:e - s, :e - s])
        o = scores @ vc
        o += qc @ state
        out[s:e] = o
        state += kc.T @ vc
    return out, KVState(state)


def causal_linear_attention_vjp(q, k, v, d_out, init: KVState | None, chunk_size: int):
    """Gradients of causal linear attention w.r.t. its inputs.

    Given d_out = dL/dO, returns (dq, dk, dv, d_init). Each piece is itself a
    causal linear attention over (possibly reversed) sequences, so the chunked
    kernel applies unchanged:
      dq_t = d_out_t @ (init + S_t)^T          (forward scan)
      dk_i = v_i @ R_i^T,  dv_i = k_i @ R_i    (reverse scan, R_i = sum_{t>i} q_t^T d_out_t)
    """
    q, k, v, d_out = as_f64(q), as_f64(k), as_f64(v), as_f64(d_out)
    _check_qkv(q, k, v, init)
    if d_out.shape != (q.shape[0], v.shape[1]):
        raise ShapeError(f"d_out {d_out.shape} does not match output shape")
    init_t = KVState(init.accumulator.T) if init is not None else None
    dq, _ = chunked_causal_linear_attention(d_out, v, k, chunk_size, init_t)
    dv_rev, _ = chunked_causal_linear_attention(k[::-1], q[::-1], d_out[::-1], chunk_size)
    dk_rev, _ = chunked_causal_linear_attention(v[::-1], d_out[::-1], q[::-1], chunk_size)
    d_init = q.T @ d_out
    return dq, dk_rev[::-1], dv_rev[::-1], d_init


def flops_quadratic(T: int, d_key: int, d_value: int) -> int:
    """Multiply-add count of the masked-product reference (counted as 2 flops each)."""
    return 2 * T * T * (d_key + d_value)


def flops_chunked(T: int, d_key: int, d_value: int, chunk_size: int) -> int:
    """Multiply-add count of the mixed-chunk kernel."""
    intra = 2 * T * chunk_size * (d_key + d_value)
    inter = 2 * T * d_key * d_value  # queries @ prefix state
    update = 2 * T * d_key * d_value  # state += k^T v
    return intra + inter + update
