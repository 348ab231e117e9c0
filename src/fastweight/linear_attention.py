"""Exact causal linear attention (no softmax).

O_t = q_t @ (init + sum_{i<t} k_i^T v_i): strictly causal, so row 0 sees only
the initial state. Two interchangeable forward kernels: an O(T^2)
masked-product reference and a mixed-chunk version that is exact (not
approximate) while scaling as O(T*C*d + (T/C)*d^2). The VJP is one walk over
the same chunks, last chunk first, and calls neither kernel.
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
        if s or init is not None:  # chunk 0 without init reads a zero state
            o += qc @ state
        out[s:e] = o
        state += kc.T @ vc
    return out, KVState(state)


def causal_linear_attention_vjp(q, k, v, d_out, init: KVState | None, chunk_size: int):
    """Gradients of causal linear attention w.r.t. its inputs.

    Given d_out = dL/dO, returns (dq, dk, dv, d_init) from one walk over the
    forward kernel's chunks, last first. Per chunk c, with the strictly causal
    scores P = d_out_c v_c^T and A = q_c k_c^T, the prefix state S_c = init +
    sum_{c'<c} k_c'^T v_c' and R = sum of q_t^T d_out_t over later chunks:
      dq_c = P k_c + d_out_c S_c^T,  dk_c = P^T q_c + v_c R^T,  dv_c = A^T d_out_c + k_c R
    After the walk R is d_init. Products with a zero S or R are skipped.
    """
    q, k, v, d_out = as_f64(q), as_f64(k), as_f64(v), as_f64(d_out)
    _check_qkv(q, k, v, init)
    if d_out.shape != (q.shape[0], v.shape[1]):
        raise ShapeError(f"d_out {d_out.shape} does not match output shape")
    if chunk_size < 1:
        raise ShapeError(f"chunk_size must be >= 1, got {chunk_size}")
    T = q.shape[0]
    starts = range(0, T, chunk_size)
    # S_c^T (None: zero), row-major: d_out_c @ S_c^T measured faster that way
    prefix = [init.accumulator.T if init is not None else None]
    for s in starts[:-1]:
        vk = v[s:s + chunk_size].T @ k[s:s + chunk_size]
        prefix.append(vk if prefix[-1] is None else prefix[-1] + vk)
    dq, dk, dv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
    R = np.zeros((k.shape[1], v.shape[1]))
    C = min(chunk_size, T)
    future = np.arange(C) >= np.arange(C)[:, None]
    for s, St in zip(reversed(starts), reversed(prefix)):
        e = min(s + chunk_size, T)
        qc, kc, vc, dc = q[s:e], k[s:e], v[s:e], d_out[s:e]
        mask = future[:e - s, :e - s]
        P = dc @ vc.T
        np.copyto(P, 0.0, where=mask)
        A = qc @ kc.T
        np.copyto(A, 0.0, where=mask)
        np.matmul(P, kc, out=dq[s:e])
        np.matmul(P.T, qc, out=dk[s:e])
        np.matmul(A.T, dc, out=dv[s:e])
        if St is not None:
            dq[s:e] += dc @ St
        if e < T:
            dk[s:e] += vc @ R.T
            dv[s:e] += kc @ R
        R += qc.T @ dc
    return dq, dk, dv, R


def flops_quadratic(T: int, d_key: int, d_value: int) -> int:
    """Multiply-add count of the masked-product reference (counted as 2 flops each)."""
    return 2 * T * T * (d_key + d_value)


def flops_chunked(T: int, d_key: int, d_value: int, chunk_size: int) -> int:
    """Multiply-add count of the mixed-chunk kernel."""
    intra = 2 * T * chunk_size * (d_key + d_value)
    inter = 2 * T * d_key * d_value  # queries @ prefix state
    update = 2 * T * d_key * d_value  # state += k^T v
    return intra + inter + update
