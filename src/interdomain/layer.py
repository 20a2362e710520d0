"""The fixed-state token mixer: projections, feature maps, per-head diagonal
SSMs over [key-features, values], and a query-conditioned readout.

Four mechanism variants share one code path; they differ only in which
streams exist and how the SSM outputs are contracted:

* ``full_interdomain``    q -> conv -> RoPE -> features; k likewise (then a
                          norm+bias), v projected and normed; readout
                          features(q_t) @ U_t^T @ Gamma_t per head.
* ``dual_kv_linear``      same k/v streams, no query path; the per-position
                          SSM outputs are flattened and contracted by a
                          learned per-head matrix.
* ``single_input_qproj``  generic [a_t, b_t] streams (conv on both, RoPE on
                          a, norm+bias, no feature map), query path kept.
* ``s4d_only``            generic streams and the learned contraction; no
                          query path at all.

``n_kv == 1`` shares one SSM state across heads: the k/v streams collapse
to a single group and every head applies its own query features to it.
Every per-group tensor carries a leading group axis of size ``n_kv``; since
``n_kv`` is 1 or ``heads``, viewing the head axis as (n_kv, heads / n_kv)
lines each head up with its group, and the readouts are batched matmuls.

Which SSM path runs, per group:

* the query variants under the ``chunkwise`` backend (``forward``,
  ``forward_trace``, ``prefill``): ``ssm.query_readout``, which returns the
  heads' outputs without forming the (N, M, W) scan outputs;
* ``backward`` runs its forward ``chunkwise`` whatever the config names,
  and takes the query variants' SSM gradients from
  ``ssm.query_readout_backward``;
* everything else: ``ssm.run_scan`` on the config's backend, a readout of
  its outputs, and ``ssm.backward_checkpointed`` for the gradients.
  ``decode_step`` always steps the sequential recurrence.

All the backends agree numerically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (
    GENERIC_INPUT_VARIANTS,
    QUERY_VARIANTS,
    ModelConfig,
    validate,
)
from .features import (
    CONV_TAPS,
    FeatureMap,
    NormBias,
    apply_feature_map,
    feature_map_backward,
    make_feature_map,
    rmsnorm_bias,
    rmsnorm_bias_backward,
    rope_apply,
    short_conv_with_tail,
    silu,
    silu_deriv,
)
from .ssm import (
    DiagonalSSM,
    _real,
    backward_checkpointed,
    make_ssm,
    query_readout,
    query_readout_backward,
    random_ssm,
    run_scan,
    stack_ssms,
)


@dataclass
class LayerParams:
    """All learnable tensors of one mixer layer.

    ``w_k``/``w_v`` project the key/value streams (``n_kv * head_dim`` wide);
    in the generic-input variants the same slots hold the a/b projections.
    The per-group tensors are stacked on a leading ``n_kv`` axis: the input
    norms' gain and bias (n_kv, width), the SSM fields (``ssm[g]`` is group
    g) and the rff frequencies (n_kv, S, head_dim) of the feature map, which
    group g's query and key sides share.  ``contraction`` exists only for
    the variants without a query path: per head, a real matrix taking the
    flattened (M, R + head_dim) SSM output to a head output.
    """

    w_q: np.ndarray | None
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray | None
    conv_q: np.ndarray | None
    conv_k: np.ndarray
    conv_v: np.ndarray | None
    k_norm: NormBias
    v_norm: NormBias
    ssm: DiagonalSSM
    feature_map: FeatureMap
    contraction: np.ndarray | None


@dataclass
class LayerState:
    """Everything a decode session carries between steps.

    The shapes depend only on the config, never on how many tokens have been
    consumed: per-group SSM states, the last CONV_TAPS - 1 raw inputs of each
    convolved stream, and the next rotary position.
    """

    position: int
    ssm_states: np.ndarray                  # (n_kv, R + head_dim, M) complex
    conv_q_tail: np.ndarray | None          # (CONV_TAPS - 1, model_dim)
    conv_k_tail: np.ndarray                 # (CONV_TAPS - 1, n_kv * head_dim)
    conv_v_tail: np.ndarray | None


def init_layer_params(
    config: ModelConfig,
    rng: np.random.Generator,
    feature_kind: str = "silu_l2",
    contraction_scale: float = 0.0,
) -> LayerParams:
    """Random parameters for a validated config.

    The contraction matrices default to zero (the training init); pass a
    scale to make the no-query variants produce nonzero outputs, as the
    equivalence and gradient suites do.
    """
    validate(config)
    d = config.model_dim
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    n_kv, heads = config.n_kv, config.heads
    kv_width = n_kv * dh
    has_q = config.variant in QUERY_VARIANTS
    generic = config.variant in GENERIC_INPUT_VARIANTS
    scale = 1.0 / np.sqrt(d)

    def proj(cols):
        return rng.standard_normal((d, cols)) * scale

    def conv_kernel(width):
        k = rng.standard_normal((CONV_TAPS, width)) * 0.5
        k[0] += 1.0  # start near a pass-through
        return k

    def norm(width):
        return NormBias(gain=np.ones((n_kv, width)), bias=np.zeros((n_kv, width)))

    return LayerParams(
        w_q=proj(d) if has_q else None,
        w_k=proj(kv_width),
        w_v=proj(kv_width),
        w_o=proj(d),
        w_g=proj(d) if config.output_gate_enabled else None,
        conv_q=conv_kernel(d) if has_q else None,
        conv_k=conv_kernel(kv_width),
        conv_v=conv_kernel(kv_width) if generic else None,
        k_norm=norm(r),
        v_norm=norm(dh),
        ssm=stack_ssms([random_ssm(m, r + dh, rng) for _ in range(n_kv)]),
        feature_map=make_feature_map(feature_kind, dh, r, n_kv, rng),
        contraction=None if has_q else
        rng.standard_normal((heads, dh, m * (r + dh))) * contraction_scale,
    )


def init_decode_state(config: ModelConfig) -> LayerState:
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    kv_width = config.n_kv * dh
    has_q = config.variant in QUERY_VARIANTS
    generic = config.variant in GENERIC_INPUT_VARIANTS
    tail = lambda width: np.zeros((CONV_TAPS - 1, width))
    return LayerState(
        position=0,
        ssm_states=np.zeros((config.n_kv, r + dh, m), dtype=complex),
        conv_q_tail=tail(config.model_dim) if has_q else None,
        conv_k_tail=tail(kv_width),
        conv_v_tail=tail(kv_width) if generic else None,
    )


def _check_finite(name: str, array: np.ndarray) -> None:
    """Raise ValueError naming ``array`` if any entry is NaN or infinite, so
    a bad input fails here instead of turning the outputs silently NaN."""
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got NaN or inf")


def _check_state(state: LayerState, config: ModelConfig) -> None:
    """Raise ValueError naming the first field of a passed-in decode state
    that ``init_decode_state(config)`` would not have made, or that holds a
    NaN or an inf."""
    if not isinstance(state.position, (int, np.integer)) or state.position < 0:
        raise ValueError(f"state.position must be an integer >= 0, got {state.position!r}")
    fresh = init_decode_state(config)
    layout = lambda a: None if a is None else \
        (getattr(a, "shape", None), str(getattr(a, "dtype", type(a).__name__)))
    for name in ("ssm_states", "conv_q_tail", "conv_k_tail", "conv_v_tail"):
        got, want = layout(getattr(state, name)), layout(getattr(fresh, name))
        if got != want:
            raise ValueError(f"state.{name} must be (shape, dtype) {want} for this config, "
                             f"got {got}")
        if got is not None:
            _check_finite(f"state.{name}", getattr(state, name))


def _forward_core(
    params: LayerParams,
    x_seq: np.ndarray,
    config: ModelConfig,
    state: LayerState | None,
    backend: str | None = None,
    want_trace: bool = False,
):
    """Shared forward over a block of tokens, optionally continuing a state.

    Returns (y, new_state, trace); the trace holds every intermediate the
    backward pass and the diagnostic tests tap.
    """
    x_seq = _real(x_seq, "x")
    if x_seq.ndim != 2 or x_seq.shape[1] != config.model_dim or x_seq.shape[0] == 0:
        raise ValueError(f"x must be (N, {config.model_dim}) with N >= 1, got {x_seq.shape}")
    _check_finite("x", x_seq)
    n = x_seq.shape[0]
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    heads, n_kv = config.heads, config.n_kv
    w = r + dh
    has_q = config.variant in QUERY_VARIANTS
    generic = config.variant in GENERIC_INPUT_VARIANTS
    if state is None:
        # The training path caps at the configured window; a live decode
        # session may run past it (the state does not grow with position).
        if n > config.context_len:
            raise ValueError(
                f"sequence of {n} tokens exceeds context_len={config.context_len}"
            )
        state = init_decode_state(config)
    backend = backend or config.backend
    positions = state.position + np.arange(n)
    trace: dict = {"x": x_seq, "positions": positions}

    # --- query stream ---
    if has_q:
        q_flat = x_seq @ params.w_q
        q_conv, q_tail = short_conv_with_tail(q_flat, params.conv_q, state.conv_q_tail)
        q_heads = q_conv.reshape(n, heads, dh)
        q_rot = rope_apply(q_heads, positions) if config.rope_enabled else q_heads
        f_q = apply_feature_map(params.feature_map, q_rot)
        trace.update(q_flat=q_flat, q_rot=q_rot, f_q=f_q)
    else:
        q_tail = None

    # --- key (or generic a) stream ---
    k_flat = x_seq @ params.w_k
    k_conv, k_tail = short_conv_with_tail(k_flat, params.conv_k, state.conv_k_tail)
    k_groups = k_conv.reshape(n, n_kv, dh)
    k_rot = rope_apply(k_groups, positions) if config.rope_enabled else k_groups
    k_feat = k_rot if generic else apply_feature_map(params.feature_map, k_rot)
    trace.update(k_flat=k_flat, k_rot=k_rot, k_feat=k_feat)

    # --- value (or generic b) stream ---
    v_flat = x_seq @ params.w_v
    if generic:
        v_conv, v_tail = short_conv_with_tail(v_flat, params.conv_v, state.conv_v_tail)
    else:
        v_conv, v_tail = v_flat, None
    v_groups = v_conv.reshape(n, n_kv, dh)
    trace.update(v_flat=v_flat, v_groups=v_groups)

    # --- normalized SSM input ---
    z = np.concatenate(
        [rmsnorm_bias(k_feat, params.k_norm), rmsnorm_bias(v_groups, params.v_norm)],
        axis=-1,
    )
    trace["z"] = z

    # --- per-group scans and readout, batched over (N, group) with the
    # group's heads on one axis; the chunkwise query readout never forms the
    # scan outputs ---
    per_group = heads // n_kv
    fused = has_q and backend == "chunkwise"
    if has_q:
        f_groups = f_q.reshape(n, n_kv, per_group, r)
    outputs = np.empty((n, n_kv, per_group, dh) if fused else (n, n_kv, m, w))
    ssm_states = np.empty_like(state.ssm_states)
    for g in range(n_kv):
        if fused:
            result = query_readout(params.ssm[g], z[:, g], f_groups[:, g], config.chunk_size,
                                   x0=state.ssm_states[g])
        else:
            result = run_scan(params.ssm[g], z[:, g], backend,
                              chunk=config.chunk_size, x0=state.ssm_states[g])
        outputs[:, g] = result.outputs
        ssm_states[g] = result.final_state
    if not fused:
        trace["scan_out"] = outputs
    if fused:
        o_cat = outputs.reshape(n, config.model_dim)
    elif has_q:
        alphas = f_groups @ outputs[..., :r].swapaxes(-1, -2)
        o_cat = (alphas @ outputs[..., r:]).reshape(n, config.model_dim)
    else:
        flat = outputs.reshape(n, n_kv, m * w).swapaxes(0, 1)   # (G, N, M W)
        contraction = params.contraction.reshape(n_kv, per_group * dh, m * w)
        o_cat = (flat @ contraction.swapaxes(1, 2)).swapaxes(0, 1).reshape(n, config.model_dim)
    trace["o_cat"] = o_cat

    # --- gate and output projection ---
    if config.output_gate_enabled:
        gate_pre = x_seq @ params.w_g
        gated = silu(gate_pre) * o_cat
        trace["gate_pre"] = gate_pre
    else:
        gated = o_cat
    trace["gated"] = gated
    y = gated @ params.w_o

    new_state = LayerState(
        position=state.position + n,
        ssm_states=ssm_states,
        conv_q_tail=q_tail,
        conv_k_tail=k_tail,
        conv_v_tail=v_tail,
    )
    return y, new_state, (trace if want_trace else None)


def forward(params: LayerParams, x_seq: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Full-sequence forward; (N, model_dim) in, (N, model_dim) out."""
    y, _, _ = _forward_core(params, x_seq, config, state=None)
    return y


def forward_trace(params: LayerParams, x_seq: np.ndarray, config: ModelConfig):
    """Forward plus the intermediate tensors, for tests and diagnostics."""
    y, _, trace = _forward_core(params, x_seq, config, state=None, want_trace=True)
    return y, trace


def prefill(
    params: LayerParams,
    x_seq: np.ndarray,
    config: ModelConfig,
    state: LayerState | None = None,
    chunk: int | None = None,
) -> tuple[np.ndarray, LayerState]:
    """Consume a prompt in blocks of ``chunk`` tokens (default: all at once),
    returning outputs for every position and the state ready for decoding.
    Any chunking reproduces the single-block forward exactly up to roundoff.
    """
    x_seq = _real(x_seq, "x")
    if x_seq.ndim != 2 or x_seq.shape[1] != config.model_dim:
        raise ValueError(f"x must be (N, {config.model_dim}) with N >= 0, got {x_seq.shape}")
    n = x_seq.shape[0]
    if state is None:
        state = init_decode_state(config)
    else:
        _check_state(state, config)
    if chunk is None:
        chunk = max(n, 1)
    if chunk < 1:
        raise ValueError("prefill chunk must be positive")
    blocks = []
    for start in range(0, n, chunk):
        y_block, state, _ = _forward_core(params, x_seq[start:start + chunk], config, state)
        blocks.append(y_block)
    y = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, config.model_dim))
    return y, state


def decode_step(
    params: LayerParams,
    state: LayerState,
    token: np.ndarray,
    config: ModelConfig,
) -> tuple[np.ndarray, LayerState]:
    """Advance one token.  Always steps the sequential recurrence, whatever
    backend the config names for training; state size is independent of how
    many steps have been taken."""
    token = _real(token, "token")
    if token.shape != (config.model_dim,):
        raise ValueError(f"token must be ({config.model_dim},), got {token.shape}")
    _check_finite("token", token)
    _check_state(state, config)
    y, new_state, _ = _forward_core(
        params, token[None, :], config, state, backend="sequential"
    )
    return y[0], new_state


def _conv_backward(x_seq, kernel, grad_out):
    """Backward of short_conv from a zero tail (sequence start)."""
    n = x_seq.shape[0]
    grad_x = kernel[0] * grad_out
    grad_k = np.zeros_like(kernel)
    grad_k[0] = np.sum(grad_out * x_seq, axis=0)
    for tau in range(1, CONV_TAPS):
        grad_x[:-tau] += kernel[tau] * grad_out[tau:]
        grad_k[tau] = np.sum(grad_out[tau:] * x_seq[:-tau], axis=0)
    return grad_x, grad_k


def backward(
    params: LayerParams,
    x_seq: np.ndarray,
    upstream: np.ndarray,
    config: ModelConfig,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradients of loss = sum(upstream * forward(x)) for a fresh
    sequence.

    Returns (parameter gradients keyed like the serialized container, input
    gradient).  Complex tensors use grad = d/d(Re) + i d/d(Im); the SSM
    transition gradients are reported in its training parameterization
    (delta, log(-Re a), Im a).  Variants without a stream simply have no
    entry for its parameters.
    """
    y, _, trace = _forward_core(params, x_seq, config, state=None, backend="chunkwise",
                                want_trace=True)
    upstream = _real(upstream, "upstream")
    if upstream.shape != y.shape:
        raise ValueError(f"upstream must match the output shape {y.shape}")
    _check_finite("upstream", upstream)

    n = x_seq.shape[0]
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    heads, n_kv = config.heads, config.n_kv
    w = r + dh
    has_q = config.variant in QUERY_VARIANTS
    generic = config.variant in GENERIC_INPUT_VARIANTS
    positions = trace["positions"]
    grads: dict[str, np.ndarray] = {}
    grad_x = np.zeros_like(trace["x"])

    # output projection and gate
    grads["w_o"] = trace["gated"].T @ upstream
    grad_gated = upstream @ params.w_o.T
    if config.output_gate_enabled:
        gate_pre = trace["gate_pre"]
        s = silu(gate_pre)
        grad_o_cat = s * grad_gated
        grad_gate_pre = silu_deriv(gate_pre) * (trace["o_cat"] * grad_gated)
        grads["w_g"] = trace["x"].T @ grad_gate_pre
        grad_x += grad_gate_pre @ params.w_g.T
    else:
        grad_o_cat = grad_gated

    # readout and SSM backward per group, batched over the group's heads
    per_group = heads // n_kv
    z = trace["z"]
    if has_q:
        f_q = trace["f_q"].reshape(n, n_kv, per_group, r)
        grad_o = grad_o_cat.reshape(n, n_kv, per_group, dh)
        per_group_grads = [
            query_readout_backward(params.ssm[g], z[:, g], f_q[:, g], grad_o[:, g],
                                   config.chunk_size)
            for g in range(n_kv)
        ]
        ssm_grads = [sg for sg, _ in per_group_grads]
        grad_f_q = np.stack([gf for _, gf in per_group_grads], axis=1).reshape(n, heads, r)
    else:
        flat = trace["scan_out"].reshape(n, n_kv, m * w).swapaxes(0, 1)  # (G, N, M W)
        grad_o = grad_o_cat.reshape(n, n_kv, per_group * dh).swapaxes(0, 1)
        contraction = params.contraction.reshape(n_kv, per_group * dh, m * w)
        grads["contraction"] = (grad_o.swapaxes(1, 2) @ flat).reshape(params.contraction.shape)
        grad_scan = (grad_o @ contraction).swapaxes(0, 1).reshape(n, n_kv, m, w)
        ssm_grads = [backward_checkpointed(params.ssm[g], z[:, g], grad_scan[:, g],
                                           config.chunk_size)
                     for g in range(n_kv)]
    for field in ("delta", "a_log_neg_re", "a_im", "b", "c_out"):
        grads[f"ssm.{field}"] = np.stack([getattr(sg, field) for sg in ssm_grads])
    grad_z = np.stack([sg.z for sg in ssm_grads], axis=1)
    grad_k_feat, grads["k_norm.gain"], grads["k_norm.bias"] = rmsnorm_bias_backward(
        trace["k_feat"], params.k_norm, grad_z[..., :r]
    )
    grad_v_groups, grads["v_norm.gain"], grads["v_norm.bias"] = rmsnorm_bias_backward(
        trace["v_groups"], params.v_norm, grad_z[..., r:]
    )

    # key stream: feature map -> rope -> conv -> projection
    grad_k_rot = grad_k_feat if generic else feature_map_backward(
        params.feature_map, trace["k_rot"], grad_k_feat
    )
    grad_k_conv = (
        rope_apply(grad_k_rot, positions, inverse=True)
        if config.rope_enabled else grad_k_rot
    ).reshape(n, n_kv * dh)
    grad_k_flat, grads["conv_k"] = _conv_backward(trace["k_flat"], params.conv_k, grad_k_conv)
    grads["w_k"] = trace["x"].T @ grad_k_flat
    grad_x += grad_k_flat @ params.w_k.T

    # value stream
    grad_v_conv = grad_v_groups.reshape(n, n_kv * dh)
    if generic:
        grad_v_flat, grads["conv_v"] = _conv_backward(trace["v_flat"], params.conv_v, grad_v_conv)
    else:
        grad_v_flat = grad_v_conv
    grads["w_v"] = trace["x"].T @ grad_v_flat
    grad_x += grad_v_flat @ params.w_v.T

    # query stream
    if has_q:
        grad_q_rot = feature_map_backward(params.feature_map, trace["q_rot"], grad_f_q)
        grad_q_conv = (
            rope_apply(grad_q_rot, positions, inverse=True)
            if config.rope_enabled else grad_q_rot
        ).reshape(n, config.model_dim)
        grad_q_flat, grads["conv_q"] = _conv_backward(trace["q_flat"], params.conv_q, grad_q_conv)
        grads["w_q"] = trace["x"].T @ grad_q_flat
        grad_x += grad_q_flat @ params.w_q.T

    return grads, grad_x


# --- parameter container serialization -------------------------------------
#
# Parameters serialize to a flat .npz archive: one entry per tensor, names
# matching the gradient keys, per-group tensors stacked on their leading
# group axis (``ssm.b`` is (n_kv, M)), plus the SSM input width and the
# feature map's kind and frequencies, so the archive reloads standalone.

_DENSE = ("w_q", "w_k", "w_v", "w_o", "w_g", "conv_q", "conv_k", "conv_v", "contraction")


def _learnable(params: LayerParams) -> dict[str, np.ndarray]:
    """Every learnable tensor by its serialized name; absent streams are skipped."""
    named = {name: getattr(params, name) for name in _DENSE}
    named.update({
        "k_norm.gain": params.k_norm.gain, "k_norm.bias": params.k_norm.bias,
        "v_norm.gain": params.v_norm.gain, "v_norm.bias": params.v_norm.bias,
        "ssm.delta": params.ssm.delta, "ssm.a": params.ssm.a,
        "ssm.b": params.ssm.b, "ssm.c_out": params.ssm.c_out,
    })
    return {name: value for name, value in named.items() if value is not None}


def save_layer_params(params: LayerParams, path) -> None:
    fmap = params.feature_map
    arrays = {**_learnable(params), "ssm.input_width": np.array(params.ssm.input_width),
              "fmap.kind": np.array(fmap.kind)}
    if fmap.omega is not None:
        arrays["fmap.omega"] = fmap.omega
    np.savez(path, **arrays)


def load_layer_params(path) -> LayerParams:
    with np.load(path, allow_pickle=False) as blob:
        arrays = {k: blob[k] for k in blob.files}
    opt = arrays.get
    return LayerParams(
        w_q=opt("w_q"), w_k=arrays["w_k"], w_v=arrays["w_v"], w_o=arrays["w_o"],
        w_g=opt("w_g"), conv_q=opt("conv_q"), conv_k=arrays["conv_k"],
        conv_v=opt("conv_v"),
        k_norm=NormBias(gain=arrays["k_norm.gain"], bias=arrays["k_norm.bias"]),
        v_norm=NormBias(gain=arrays["v_norm.gain"], bias=arrays["v_norm.bias"]),
        ssm=make_ssm(arrays["ssm.delta"], arrays["ssm.a"], arrays["ssm.b"],
                     arrays["ssm.c_out"], int(arrays["ssm.input_width"])),
        feature_map=FeatureMap(kind=str(arrays["fmap.kind"]), omega=opt("fmap.omega")),
        contraction=opt("contraction"),
    )


def count_layer_params(params: LayerParams) -> int:
    """Trainable real scalars in the container (complex entries count twice)."""
    return sum(value.size * (2 if np.iscomplexobj(value) else 1)
               for value in _learnable(params).values())
