"""Shared test utilities: tiny configs, independent oracles, and
finite-difference machinery.

The oracles here are deliberately written against the defining formulas
(explicit loops, no vectorization tricks) so they share no code with the
production paths they check.
"""
import dataclasses

import numpy as np

from interdomain.config import ModelConfig, validate
from interdomain.features import NormBias
from interdomain.ssm import backward_checkpointed, run_scan, ssm_with


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale


def tiny_config(**overrides) -> ModelConfig:
    base = ModelConfig(
        heads=2, model_dim=8, head_dim=4, feature_dim=4, state_dim=4,
        context_len=128, chunk_size=3, prefill_chunk=8,
        backend="sequential", variant="full_interdomain",
        rope_enabled=True, output_gate_enabled=False,
        n_kv=2, readout="denominator_free", seed=0,
    )
    return validate(dataclasses.replace(base, **overrides))


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
    stacked SSM field through ssm_with, so the poles are rebuilt and the
    constructor's checks run."""
    def put(value):
        stacked = getattr(params.ssm, field).copy()
        stacked[g] = value
        params.ssm = ssm_with(params.ssm, **{field: stacked})
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


def query_readout_reference(ssm, z, f_q, upstream, chunk):
    """Gradients of loss = sum(upstream * o) for one group's query readout,
    o[t, h] = f_q[t, h] U_t^T Gamma_t, the way the layer took them before
    the readout had its own adjoint: form the (N, M, W) scan outputs
    [U | Gamma], take the readout's gradient with respect to them, and pass
    that to ``backward_checkpointed``.  Returns (SsmGrads, grad f_q)."""
    r = f_q.shape[2]
    scan_out = run_scan(ssm, z, "chunkwise", chunk=chunk).outputs
    alphas = f_q @ scan_out[..., :r].swapaxes(-1, -2)          # (N, P, M)
    grad_alpha = upstream @ scan_out[..., r:].swapaxes(-1, -2)
    grad_scan = np.empty_like(scan_out)
    grad_scan[..., r:] = alphas.swapaxes(-1, -2) @ upstream
    grad_scan[..., :r] = grad_alpha.swapaxes(-1, -2) @ f_q
    return backward_checkpointed(ssm, z, grad_scan, chunk)[1], grad_alpha @ scan_out[..., :r]


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
    m, w = ssm.state_dim, ssm.input_width
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
