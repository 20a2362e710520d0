"""Shared test utilities: tiny configs, independent oracles, and
finite-difference machinery.

The oracles here are deliberately written against the defining formulas
(explicit loops, no vectorization tricks) so they share no code with the
production paths they check.
"""
import dataclasses
import tracemalloc
from typing import Any, NamedTuple

import numpy as np

from interdomain.config import ModelConfig
from interdomain.features import CONV_TAPS, L2_EPS, RMS_EPS, ROPE_BASE, NormBias
from interdomain.ssm import backward_checkpointed, run_scan


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale


class Traced(NamedTuple):
    result: Any  # what the traced call returned
    peak: int    # tracemalloc's peak, in bytes, over the call
    held: int    # bytes still allocated when the call returned


def traced_peak(fn) -> Traced:
    """Call ``fn()`` under tracemalloc; only its own allocations count."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(result, peak, held)


def tiny_config(**overrides) -> ModelConfig:
    base = ModelConfig(
        heads=2, model_dim=8, head_dim=4, feature_dim=4, state_dim=4,
        context_len=128, chunk_size=3, prefill_chunk=8,
        backend="sequential", variant="full_interdomain",
        n_kv=2, seed=0,
    )
    return dataclasses.replace(base, **overrides)


# The tiny config's head, feature and state widths are all 4, so two of its
# axes swapped leave every shape as it was.  "distinct" gives the state a
# width of 5 and the heads one of 6 in a model of 12, so such a swap
# breaks a shape or a result; tests that run the layer at both shapes are
# parametrized over these keys.
SHAPES = {"tiny": {}, "distinct": dict(model_dim=12, head_dim=6, feature_dim=6, state_dim=5)}


def randomize_norms(params, rng):
    """Move the norm parameters off their (1, 0) init so gradient tests
    exercise the gain/bias paths.  Draws group by group, gain then bias."""
    def draw(nb):
        rows = [(1 + 0.3 * rng.standard_normal(gain.shape), 0.2 * rng.standard_normal(bias.shape))
                for gain, bias in zip(nb.gain, nb.bias)]
        return NormBias(gain=np.stack([g for g, _ in rows]), bias=np.stack([b for _, b in rows]))

    params.k_norm = draw(params.k_norm)
    params.v_norm = draw(params.v_norm)
    return params


def ssm_group_setter(params, field, g=0):
    """A put() for central_diff_complex that replaces group ``g`` of one
    stacked SSM field through ``dataclasses.replace``, so the record's
    checks run and the poles are derived again."""
    def put(value):
        stacked = getattr(params.ssm, field).copy()
        stacked[g] = value
        params.ssm = dataclasses.replace(params.ssm, **{field: stacked})
    return put


def query_readout_loop(f_q, scan_out, n_kv):
    """The query readout from its definition, one head and position at a
    time: head h reads group g = (0 if n_kv == 1 else h), and
    o[t, h] = sum_m (sum_r f_q[t, h, r] U[t, g, m, r]) Gamma[t, g, m, :],
    where scan_out[t, g, m] = [U | Gamma].  Returns (N, heads * head_dim)."""
    n, heads, r = f_q.shape
    _, _, m, w = scan_out.shape
    out = np.zeros((n, heads, w - r))
    for t in range(n):
        for h in range(heads):
            g = 0 if n_kv == 1 else h
            for i in range(m):
                alpha = sum(f_q[t, h, j] * scan_out[t, g, i, j] for j in range(r))
                out[t, h] += alpha * scan_out[t, g, i, r:]
    return out.reshape(n, -1)


def query_readout_reference(ssm, z, f_q, upstream, chunk, x0=None, final_upstream=None):
    """Gradients of loss = sum(upstream * o) + <final_upstream, final state>
    for one group's query readout from ``x0``, o[t, h] = f_q[t, h] U_t^T
    Gamma_t, the way the layer took them before the readout had its own
    adjoint: form the (N, M, W) scan outputs [U | Gamma], pull the query
    upstream back onto them, and pass that, with ``x0`` and
    ``final_upstream``, to ``backward_checkpointed``.  Returns (SsmGrads,
    grad f_q)."""
    r = f_q.shape[2]
    scan_out = run_scan(ssm, z, "chunkwise", chunk=chunk, x0=x0).outputs
    alphas = f_q @ scan_out[..., :r].swapaxes(-1, -2)          # (N, P, M)
    grad_alpha = upstream @ scan_out[..., r:].swapaxes(-1, -2)
    grad_scan = np.empty_like(scan_out)
    grad_scan[..., r:] = alphas.swapaxes(-1, -2) @ upstream
    grad_scan[..., :r] = grad_alpha.swapaxes(-1, -2) @ f_q
    grads = backward_checkpointed(ssm, z, grad_scan, chunk, x0=x0,
                                  final_upstream=final_upstream)[1]
    return grads, grad_alpha @ scan_out[..., :r]


def contraction_readout_loop(scan_out, contraction, n_kv):
    """The learned-contraction readout from its definition: head h reads
    group g = (0 if n_kv == 1 else h), and
    o[t, h, v] = sum_{i, c} contraction[h, v, i * W + c] scan_out[t, g, i, c].
    Returns (N, heads * head_dim)."""
    n, _, m, w = scan_out.shape
    heads, dh, _ = contraction.shape
    out = np.zeros((n, heads, dh))
    for t in range(n):
        for h in range(heads):
            g = 0 if n_kv == 1 else h
            for v in range(dh):
                for i in range(m):
                    for c in range(w):
                        out[t, h, v] += contraction[h, v, i * w + c] * scan_out[t, g, i, c]
    return out.reshape(n, -1)


def naive_unroll(ssm, z, x0=None):
    """Scalar-by-scalar unroll of x_t = lam*x + b*z_t, y_t = Re(C x_t);
    states are (W, M) and outputs (M, W), as the scans hold them."""
    z = np.asarray(z, dtype=float)
    m, w = ssm.state_dim, z.shape[1]
    state = np.zeros((w, m), dtype=complex) if x0 is None else np.array(x0, dtype=complex)
    states, outs = [], []
    for t in range(z.shape[0]):
        nxt = np.empty((w, m), dtype=complex)
        for i in range(m):
            for j in range(w):
                nxt[j, i] = ssm.lam[i] * state[j, i] + ssm.b[i] * z[t, j]
        state = nxt
        states.append(state.copy())
        out = np.empty((m, w))
        for i in range(m):
            for j in range(w):
                acc = 0j
                for s in range(m):
                    acc += ssm.c_out[i, s] * state[j, s]
                out[i, j] = acc.real
        outs.append(out)
    return np.array(states), np.array(outs)


def central_diff(loss, arr, h=1e-5):
    """Central differences of a scalar function w.r.t. a real array,
    perturbing in place (loss must read through the same reference)."""
    fd = np.zeros(arr.size)
    for i in range(arr.size):
        arr.flat[i] += h
        up = loss()
        arr.flat[i] -= 2 * h
        down = loss()
        arr.flat[i] += h
        fd[i] = (up - down) / (2 * h)
    return fd.reshape(arr.shape)


def central_diff_complex(loss, get, put, h=1e-5):
    """Central differences w.r.t. a complex array accessed via get()/put(a),
    in the dL/dRe + i dL/dIm convention."""
    base = get().copy()
    fd = np.zeros(base.shape, dtype=complex)
    for i in range(base.size):
        for mul in (1.0, 1j):
            bumped = base.copy()
            bumped.flat[i] += h * mul
            put(bumped)
            up = loss()
            bumped = base.copy()
            bumped.flat[i] -= h * mul
            put(bumped)
            down = loss()
            fd.flat[i] += (up - down) / (2 * h) * mul
    put(base)
    return fd


# --- reference copies of the token pipeline's elementwise math ---------------
#
# The stages and recurrences as they were written before they were made to
# run in place: one fresh temporary per elementwise step, the norms by
# np.linalg.norm and np.mean, the conv over a zero-filled [tail; x] copy,
# and lam broadcast over the state's rows at every step.  The tests pin the
# in-place code to these: bit for bit where the arithmetic is unchanged, to
# 2e-15 per row where a sum runs in another order.

def sigmoid_reference(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def silu_reference(x):
    return x * sigmoid_reference(x)


def silu_deriv_reference(x):
    s = sigmoid_reference(x)
    return s * (1.0 + x * (1.0 - s))


def _scaled_rows_reference(x, norm, largest=None):
    with np.errstate(over="ignore"):
        n = norm(x, 1.0)
        over = ~np.isfinite(n if largest is None else largest(n))
        if not over.any():
            return x, n, None
        top = np.where(over, np.max(np.abs(x), axis=-1, keepdims=True), 1.0)
        x = x / top
        return x, np.where(over, norm(x, top), n), top


def _l2_reference(v, scale):
    return np.linalg.norm(v, axis=-1, keepdims=True)


def _rms_reference(x, scale):
    return np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS / scale ** 2)


def l2_normalize_reference(v):
    v, norm, _ = _scaled_rows_reference(np.asarray(v, dtype=float), _l2_reference)
    return v / np.maximum(norm, L2_EPS)


def silu_l2_backward_reference(x, grad_out):
    x = np.asarray(x, dtype=float)
    s = sigmoid_reference(x)
    v, norm, top = _scaled_rows_reference(x * s, _l2_reference)
    guarded = np.maximum(norm, L2_EPS)
    y = v / guarded
    inner = np.sum(y * grad_out, axis=-1, keepdims=True)
    grad_v = np.where(norm > L2_EPS, (grad_out - y * inner) / guarded, grad_out / guarded)
    if top is not None:
        grad_v /= top
    return grad_v * (s * (1.0 + x * (1.0 - s)))


def rmsnorm_bias_reference(x, params):
    x, rms, _ = _scaled_rows_reference(np.asarray(x, dtype=float), _rms_reference)
    return params.gain * (x / rms) + params.bias


def rmsnorm_bias_backward_reference(x, params, grad_out):
    x = np.asarray(x, dtype=float)
    width = x.shape[-1]
    x, rms, top = _scaled_rows_reference(x, _rms_reference, lambda rms: width * rms ** 3)
    xhat = x / rms
    batch = tuple(range(x.ndim - params.gain.ndim))
    grad_gain = np.sum(grad_out * xhat, axis=batch)
    grad_bias = np.sum(grad_out, axis=batch)
    g = params.gain * grad_out
    grad_x = g / rms - x * np.sum(g * x, axis=-1, keepdims=True) / (width * rms ** 3)
    if top is not None:
        grad_x /= top
    return grad_x, grad_gain, grad_bias


def rope_apply_reference(x, positions, inverse=False):
    x = np.asarray(x, dtype=float)
    width = x.shape[-1]
    freqs = ROPE_BASE ** (-2.0 * np.arange(width // 2) / width)
    ang = np.multiply.outer(np.asarray(positions, dtype=float), freqs)
    ang = ang.reshape(ang.shape[:1] + (1,) * (x.ndim - ang.ndim) + ang.shape[1:]) \
        if np.ndim(positions) else ang
    if inverse:
        ang = -ang
    cos, sin = np.cos(ang), np.sin(ang)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def short_conv_with_tail_reference(x_seq, kernel, tail):
    x_seq = np.asarray(x_seq, dtype=float)
    if tail is None:
        tail = np.zeros((CONV_TAPS - 1, x_seq.shape[-1]))
    ext = np.concatenate([tail, x_seq], axis=0)
    n = x_seq.shape[0]
    out = np.zeros_like(x_seq)
    for tau in range(CONV_TAPS):
        start = CONV_TAPS - 1 - tau
        out += kernel[tau] * ext[start:start + n]
    return out, ext[-(CONV_TAPS - 1):].copy()


def conv_backward_reference(flat, tail, kernel, grad_out, grad_tail):
    taps, n = CONV_TAPS - 1, flat.shape[0]
    grad_ext = np.zeros((taps + n, flat.shape[1]))
    if grad_tail is not None:
        grad_ext[n:] += grad_tail
    grad_k = np.empty_like(kernel)
    for tau in range(CONV_TAPS):
        grad_ext[taps - tau:taps - tau + n] += kernel[tau] * grad_out
        grad_k[tau] = np.sum(grad_out[tau:] * flat[:max(n - tau, 0)], axis=0)
        if tail is not None and tau:
            seen = min(tau, n)
            grad_k[tau] += np.sum(grad_out[:seen] * tail[taps - tau:taps - tau + seen], axis=0)
    return grad_ext[taps:], grad_k, None if tail is None else grad_ext[:taps]


def recur_reference(lam, drive, x0, out):
    state = x0
    for t in range(drive.shape[0]):
        state = lam * state + drive[t]
        out[t] = state
    return state


def prefix_sweep_reference(lam, states):
    levels = []
    span, lam_span = 1, lam
    while 2 * span <= len(states):
        levels.append((span, lam_span))
        span, lam_span = 2 * span, lam_span * lam_span

    def combine(first, span, lam_span):
        right = states[first + span::2 * span]
        right += lam_span * states[first::2 * span][:len(right)]

    for span, lam_span in levels:
        combine(span - 1, span, lam_span)
    for span, lam_span in levels[::-1]:
        combine(2 * span - 1, span, lam_span)
