"""The mixer layer written from its definition, one token at a time.

An independent reference for ``interdomain.layer``: it reads the config,
the parameter and state containers and the module constants, and calls no
function of ``layer``, ``ssm`` or ``features``, so a fault that every path
of the layer shares (RoPE's direction, the conv's tap order, a norm's gain
or bias, the readout's group-to-head map) shows as a
disagreement with it.  Of the SSM it reads ``delta``, ``a``, ``b`` and
``c_out``, never the derived ``lam``, so a test may perturb the fields
without rebuilding the poles.

Per token t at position p, each stream s of the variant runs

    u_t = x_t W_s                                  projection
    c_t = sum_tau conv_s[tau] u_{t - tau}          causal depthwise conv; the
                                                   state's tail holds the
                                                   inputs before the first t
    c_t as rows of head_dim                        n_kv rows (k, v) or heads (q)
    pair j of a row, (e, o) ->
      (e cos(th) - o sin(th), e sin(th) + o cos(th)),
      th = p ROPE_BASE^(-2j / head_dim)            RoPE
    f = features(row)                              rff, silu_l2 or identity
    gain_g f / sqrt(mean(f^2) + RMS_EPS) + bias_g  input norm of group g

with the stages each stream runs given by ``_STAGES``.  Then per group g,
with z = [k_g | v_g], W = feature_dim + head_dim channels and M modes,

    lam = exp(delta a)
    X[c, i] = lam_i X[c, i] + b_i z[c]             state update
    Y[i, c] = Re(sum_j C[i, j] X[c, j])            outputs, (M, W)

and head h, of group g = h // (heads / n_kv), reads

    o_h = sum_i (f_q,h . Y[i, :R]) Y[i, R:]        query variants
    o_h[v] = sum_{i, c} contraction[h, v, i W + c] Y[i, c]   the others

The token's output is the heads' outputs, concatenated, times W_o.
"""
from __future__ import annotations

import numpy as np

from interdomain.config import GENERIC_INPUT_VARIANTS, QUERY_VARIANTS, ModelConfig
from interdomain.features import CONV_TAPS, L2_EPS, RMS_EPS, ROPE_BASE
from interdomain.layer import LayerParams, LayerState


def _stages(config: ModelConfig) -> list[tuple[str, int, bool, bool, bool]]:
    """(stream, rows, conv, rope, features) per stream, from the layer's
    stream table as its docstring writes it."""
    generic = config.variant in GENERIC_INPUT_VARIANTS
    table = [("k", config.n_kv, True, True, not generic),
             ("v", config.n_kv, generic, False, False)]
    if config.variant in QUERY_VARIANTS:
        table.append(("q", config.heads, True, True, True))
    return table


def _rope(row: np.ndarray, position: int) -> np.ndarray:
    width = row.shape[0]
    out = np.empty(width)
    for j in range(width // 2):
        theta = position * ROPE_BASE ** (-2.0 * j / width)
        cos, sin = np.cos(theta), np.sin(theta)
        even, odd = row[2 * j], row[2 * j + 1]
        out[2 * j] = even * cos - odd * sin
        out[2 * j + 1] = even * sin + odd * cos
    return out


def _features(kind: str, omega, group: int, row: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return row.copy()
    if kind == "rff":
        proj = omega[group] @ row
        return np.concatenate([np.cos(proj), np.sin(proj)]) / np.sqrt(len(proj))
    v = row / (1.0 + np.exp(-row))  # silu
    return v / max(np.sqrt(np.sum(v * v)), L2_EPS)


def _norm(f: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return gain * f / np.sqrt(np.mean(f * f) + RMS_EPS) + bias


def reference_run(params: LayerParams, x: np.ndarray, config: ModelConfig,
                  state: LayerState | None = None) -> tuple[np.ndarray, LayerState]:
    """Outputs for the (N, model_dim) tokens ``x`` from ``state`` (a fresh
    one for None) and the state after them; ``state`` is not written."""
    dh, r, m, heads, n_kv = (config.head_dim, config.feature_dim, config.state_dim,
                             config.heads, config.n_kv)
    w = r + dh
    per_group = heads // n_kv
    stages = _stages(config)
    ssm = params.ssm
    lam = np.exp(ssm.delta * ssm.a)  # (n_kv, M)
    position = 0 if state is None else state.position
    states = np.zeros((n_kv, w, m), complex) if state is None else state.ssm_states.copy()
    tails = {}
    for name, rows, conv, _, _ in stages:
        if conv:
            tail = None if state is None else getattr(state, f"conv_{name}_tail")
            tails[name] = [np.zeros(rows * dh) for _ in range(CONV_TAPS - 1)] if tail is None \
                else [row.copy() for row in tail]
    kind, omega = params.feature_map.kind, params.feature_map.omega
    ys = []
    for x_t in x:
        out = {}
        for name, rows, conv, rope, features in stages:
            u = x_t @ getattr(params, f"w_{name}")
            if conv:
                past = tails[name]  # oldest first: u_{t-3}, u_{t-2}, u_{t-1}
                kernel = getattr(params, f"conv_{name}")
                c = kernel[0] * u
                for tau in range(1, CONV_TAPS):
                    c = c + kernel[tau] * past[-tau]
                tails[name] = past[1:] + [u]
            else:
                c = u
            split = []
            for row_index in range(rows):
                row = c[row_index * dh:(row_index + 1) * dh]
                if rope:
                    row = _rope(row, position)
                group = row_index // per_group if name == "q" else row_index
                if features:
                    row = _features(kind, omega, group, row)
                if name != "q":
                    norm = getattr(params, f"{name}_norm")
                    row = _norm(row, norm.gain[group], norm.bias[group])
                split.append(row)
            out[name] = split
        head_out = []
        outputs = []
        for g in range(n_kv):
            z = np.concatenate([out["k"][g], out["v"][g]])
            for c in range(w):
                for i in range(m):
                    states[g, c, i] = lam[g, i] * states[g, c, i] + ssm.b[g, i] * z[c]
            y = np.empty((m, w))
            for i in range(m):
                for c in range(w):
                    y[i, c] = np.sum(ssm.c_out[g, i] * states[g, c]).real
            outputs.append(y)
        for h in range(heads):
            y = outputs[h // per_group]
            if "q" in out:
                f_q = out["q"][h]
                o = np.zeros(dh)
                for i in range(m):
                    o += (f_q @ y[i, :r]) * y[i, r:]
            else:
                o = params.contraction[h] @ y.reshape(m * w)
            head_out.append(o)
        ys.append(np.concatenate(head_out) @ params.w_o)
        position += 1
    new_tails = {f"conv_{name}_tail": np.array(rows) for name, rows in tails.items()}
    return np.array(ys).reshape(len(x), config.model_dim), \
        LayerState(position=position, ssm_states=states, **new_tails)
