"""The fixed-state token mixer: projections, feature maps, per-head diagonal
SSMs over [key-features, values], and a query-conditioned readout.

Four mechanism variants share one code path; they differ only in which
streams exist and how the SSM outputs are contracted.  Every stream runs
the same pipeline, x W -> short conv -> (N, rows, head_dim) -> RoPE ->
feature map -> input norm, with some stages switched off.  The stream
table is ``config.streams``, which the layer, its decode state and the
closed-form counts in ``bench`` and ``accounting`` all read:

    stream  rows     conv      RoPE  feature map       norm    variants
    k       n_kv     yes       yes   all but generic   k_norm  all
    v       n_kv     generic   no    no                v_norm  all
    q       heads    yes       yes   yes               no      query

The SSM input is z = [normed k | normed v]; the q stream's output is the
query features f_q.  "RoPE" follows ``rope_enabled``; "generic" is
``GENERIC_INPUT_VARIANTS``, whose k and v are the [a_t, b_t] streams, and
"query" is ``QUERY_VARIANTS``.  ``backward`` runs the same stages' adjoints
in reverse.  Per variant:

* ``full_interdomain``    k, v and q; readout features(q_t) @ U_t^T @ Gamma_t
                          per head.
* ``dual_kv_linear``      k and v, no query path; the per-position SSM
                          outputs are flattened and contracted by a learned
                          per-head matrix.
* ``single_input_qproj``  generic a, b streams (conv on both, RoPE on a, no
                          feature map) and the query path.
* ``s4d_only``            generic streams and the learned contraction; no
                          query path at all.

``n_kv == 1`` shares one SSM state across heads: the k/v streams collapse
to a single group and every head applies its own query features to it.
Every per-group tensor carries a leading group axis of size ``n_kv``; since
``n_kv`` is 1 or ``heads``, viewing the head axis as (n_kv, heads / n_kv)
lines each head up with its group, and the readouts are batched matmuls.

Which SSM path runs, one group at a time:

* the forward and ``decode_step`` make one ``ssm.run_scan`` per group,
  which writes the group's final state straight into its row of the new
  state's one (n_kv, W, M) array (``run_scan``'s ``out``, honoured on every
  backend); the passed-in state is never written.  In the query variants
  the scan is given the group's query features and returns the group's
  head outputs on every backend: under ``chunkwise`` through
  ``ssm.query_readout``, which never forms the (N, M, W) scan outputs;
  under ``sequential`` (and so in every decode step) and
  ``parallel_prefix`` read query first from the states, never reading out
  all W channels; under ``fft`` from its convolution outputs;
* only the forward of the variants without a query path forms every
  group's outputs, one (N, n_kv, M, W) array (the trace's ``scan_out``),
  for the learned contraction;
* ``backward`` shares only the streams (``_run_streams``) with the forward
  and calls no scan: per group it makes one SSM adjoint call in the dual
  form, whatever backend the config names, and that call returns the
  outputs it forms along with the gradients.  The query variants call
  ``ssm.query_readout_backward``, which returns the head outputs; the
  others call ``ssm.backward_checkpointed`` on the group's upstream into
  one reused (N, M, W) buffer, and contract it, so they hold one group's
  scan outputs and upstream at a time.

``decode_step`` always steps the sequential recurrence: per group, lam x0
is written into the new state's row and the drive added in place, with no
buffer of states, temporary or copy.  It checks the position, the layouts
and the conv tails up front but does not scan the SSM states for a NaN or
an inf; a non-finite entry there reaches every output, so a non-finite
output is what sends it back to ``_check_state`` (see ``decode_step``).
``prefill`` checks the whole state before it runs anything.

All the backends agree numerically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (
    GENERIC_INPUT_VARIANTS,
    QUERY_VARIANTS,
    ModelConfig,
    streams,
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
    sigmoid,
    silu,
)
from .ssm import (
    DiagonalSSM,
    _real,
    backward_checkpointed,
    make_ssm,
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
    convolved stream (None for a stream without a conv), and the next rotary
    position.
    """

    position: int
    ssm_states: np.ndarray                  # (n_kv, R + head_dim, M) complex
    conv_q_tail: np.ndarray | None = None   # (CONV_TAPS - 1, model_dim)
    conv_k_tail: np.ndarray | None = None   # (CONV_TAPS - 1, n_kv * head_dim)
    conv_v_tail: np.ndarray | None = None


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


def _state_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], np.dtype]]:
    """(shape, dtype) of every array a decode state for ``config`` holds:
    the per-group SSM states and the tail of each convolved stream."""
    dh = config.head_dim
    layout = {"ssm_states": ((config.n_kv, config.feature_dim + dh, config.state_dim),
                             np.dtype(complex))}
    layout.update({f"conv_{s.name}_tail": ((CONV_TAPS - 1, s.rows * dh), np.dtype(float))
                   for s in streams(config) if s.conv})
    return layout


def init_decode_state(config: ModelConfig) -> LayerState:
    return LayerState(position=0, **{name: np.zeros(shape, dtype)
                                     for name, (shape, dtype) in _state_layout(config).items()})


def _check_finite(name: str, array: np.ndarray) -> None:
    """Raise ValueError naming ``array`` if any entry is NaN or infinite, so
    a bad input fails here instead of turning the outputs silently NaN."""
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got NaN or inf")


def _check_state(state: LayerState, config: ModelConfig, ssm_finite: bool = True) -> None:
    """Raise ValueError naming the first field of a passed-in decode state
    that ``init_decode_state(config)`` would not have made, or that holds a
    NaN or an inf.  The layouts are compared without building a state.

    With ``ssm_finite=False`` the SSM states' entries are not scanned, only
    their layout is checked: ``decode_step`` finds a NaN or an inf there
    from its output instead, and then calls this again in full.
    """
    position = state.position
    if isinstance(position, bool) or not isinstance(position, (int, np.integer)) or position < 0:
        raise ValueError(f"state.position must be an integer >= 0, got {position!r}")
    layout = _state_layout(config)
    for name in ("ssm_states", "conv_q_tail", "conv_k_tail", "conv_v_tail"):
        got, want = getattr(state, name), layout.get(name)
        if got is None and want is None:
            continue
        if want is None or (getattr(got, "shape", None), getattr(got, "dtype", None)) != want:
            got = None if got is None else \
                (getattr(got, "shape", None), str(getattr(got, "dtype", type(got).__name__)))
            want = None if want is None else (want[0], str(want[1]))
            raise ValueError(f"state.{name} must be (shape, dtype) {want} for this config, "
                             f"got {got}")
        if ssm_finite or name != "ssm_states":
            _check_finite(f"state.{name}", got)


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every dense tensor a ``LayerParams`` for ``config``
    holds, by its serialized name, read from ``config.streams``: each
    stream's projection and conv, the output projection and gate, the input
    norms and the no-query variants' contraction.  Slots the config has no
    use for are listed too; ``_check_params`` skips the absent ones."""
    d, dh, r = config.model_dim, config.head_dim, config.feature_dim
    shapes = {}
    for s in streams(config):
        shapes[f"w_{s.name}"] = (d, s.rows * dh)
        shapes[f"conv_{s.name}"] = (CONV_TAPS, s.rows * dh)
    shapes.update({"w_o": (d, d), "w_g": (d, d),
                   "contraction": (config.heads, dh, config.state_dim * (r + dh))})
    for norm, width in (("k_norm", r), ("v_norm", dh)):
        shapes[f"{norm}.gain"] = shapes[f"{norm}.bias"] = (config.n_kv, width)
    return shapes


def _check_params(params: LayerParams, config: ModelConfig) -> None:
    """Raise ValueError naming the first field of ``params`` that disagrees
    with ``config``: an optional slot present where the config has no use
    for it or missing where it needs it, a stacked SSM whose groups, state
    size or input width differ from the config's, a dense tensor of another
    shape than ``_param_shapes`` gives, or an rff feature map whose
    frequencies are not (n_kv, feature_dim / 2, head_dim).  Parameters made
    for another config would otherwise run on a wrong slice, return an
    output of the wrong width, fail deep inside with a bare IndexError, or
    silently drop or ignore a slot.  Only shapes are compared, so the check
    costs microseconds."""
    has_q = config.variant in QUERY_VARIANTS
    expected = (("w_q", has_q), ("conv_q", has_q),
                ("conv_v", config.variant in GENERIC_INPUT_VARIANTS),
                ("w_g", config.output_gate_enabled), ("contraction", not has_q))
    for name, want in expected:
        if (getattr(params, name) is not None) != want:
            raise ValueError(
                f"params.{name} is {'missing' if want else 'present'}, but the config "
                f"(variant {config.variant!r}, output_gate_enabled="
                f"{config.output_gate_enabled}) {'needs' if want else 'has no use for'} it")
    n_kv, m = config.n_kv, config.state_dim
    dh, r = config.head_dim, config.feature_dim
    for name, axes, want in (("delta", "(n_kv, state_dim)", (n_kv, m)),
                             ("c_out", "(n_kv, state_dim, state_dim)", (n_kv, m, m))):
        got = getattr(params.ssm, name).shape
        if got != want:
            raise ValueError(f"params.ssm.{name} must be {axes} = {want} for this config, "
                             f"got {got}")
    if params.ssm.input_width != r + dh:
        raise ValueError(f"params.ssm.input_width must be feature_dim + head_dim = "
                         f"{r + dh}, got {params.ssm.input_width}")
    tensors = _learnable(params)
    for name, want in _param_shapes(config).items():
        if name in tensors:  # an absent slot was checked above
            got = getattr(tensors[name], "shape", None)
            if got != want:
                raise ValueError(f"params.{name} must be {want} for this config, got {got}")
    fmap = params.feature_map
    if fmap.kind == "rff":
        got = getattr(fmap.omega, "shape", None)
        if r % 2 or got != (n_kv, r // 2, dh):
            raise ValueError(f"params.feature_map.omega must be (n_kv, feature_dim / 2, "
                             f"head_dim) with n_kv={n_kv}, feature_dim={r}, head_dim={dh}, "
                             f"got {got}")
    elif r != dh:
        raise ValueError(f"params.feature_map.kind {fmap.kind!r} preserves width, so it needs "
                         f"feature_dim == head_dim, got {r} != {dh}")


def _run_streams(params: LayerParams, x_seq: np.ndarray, config: ModelConfig,
                 state: LayerState | None):
    """Check ``x_seq`` and run every stream over it, optionally continuing a
    state: x W -> short conv -> heads -> RoPE -> features -> norm.

    Returns (trace, state, tails): the trace holds ``x``, ``positions``,
    one (projected, rotated, features) entry per stream, the SSM input
    ``z`` and, in the query variants, the query features ``f_q``; ``state``
    is the one continued (a fresh one for None) and ``tails`` the convolved
    streams' new tails.
    """
    x_seq = _real(x_seq, "x")
    if x_seq.ndim != 2 or x_seq.shape[1] != config.model_dim or x_seq.shape[0] == 0:
        raise ValueError(f"x must be (N, {config.model_dim}) with N >= 1, got {x_seq.shape}")
    _check_finite("x", x_seq)
    n = x_seq.shape[0]
    if state is None:
        # The training path caps at the configured window; a live decode
        # session may run past it (the state does not grow with position).
        if n > config.context_len:
            raise ValueError(f"sequence of {n} tokens exceeds context_len={config.context_len}")
        state = init_decode_state(config)
    positions = state.position + np.arange(n)
    trace: dict = {"x": x_seq, "positions": positions}
    outs, tails = {}, {}
    for s in streams(config):
        flat = x_seq @ getattr(params, f"w_{s.name}")
        mixed = flat
        if s.conv:
            tail = f"conv_{s.name}_tail"
            mixed, tails[tail] = short_conv_with_tail(
                flat, getattr(params, f"conv_{s.name}"), getattr(state, tail))
        split = mixed.reshape(n, s.rows, config.head_dim)
        rot = rope_apply(split, positions) if s.rope else split
        feat = apply_feature_map(params.feature_map, rot) if s.features else rot
        outs[s.name] = feat if s.norm is None else rmsnorm_bias(feat, getattr(params, s.norm))
        trace[s.name] = (flat, rot, feat)
    trace["z"] = np.concatenate([outs["k"], outs["v"]], axis=-1)
    if "q" in outs:
        trace["f_q"] = outs["q"]
    return trace, state, tails


def _forward_core(
    params: LayerParams,
    x_seq: np.ndarray,
    config: ModelConfig,
    state: LayerState | None,
    backend: str | None = None,
):
    """Shared forward over a block of tokens, optionally continuing a state.

    Returns (gated, new_state, trace), where ``gated`` is the output before
    the ``w_o`` projection, which the callers apply.  The trace is
    ``_run_streams``'s plus the readout ``o_cat`` and, in the variants
    without a query path, every group's scan outputs ``scan_out``, for the
    diagnostic tests; ``backward`` does not call this.
    """
    trace, state, tails = _run_streams(params, x_seq, config, state)
    x_seq, z = trace["x"], trace["z"]
    n = x_seq.shape[0]
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    heads, n_kv = config.heads, config.n_kv
    w = r + dh
    has_q = config.variant in QUERY_VARIANTS
    backend = backend or config.backend
    per_group = heads // n_kv
    if has_q:
        f_groups = trace["f_q"].reshape(n, n_kv, per_group, r)

    # --- per-group SSM, one scan per group.  The query variants' scans
    # return the group's head outputs; only the variants without a query
    # path keep every group's (N, M, W) outputs, for the contraction ---
    outputs = np.empty((n, n_kv, per_group, dh) if has_q else (n, n_kv, m, w))
    ssm_states = np.empty_like(state.ssm_states)  # each group's scan writes its row
    for g in range(n_kv):
        outputs[:, g] = run_scan(params.ssm[g], z[:, g], backend, chunk=config.chunk_size,
                                 x0=state.ssm_states[g], f_q=f_groups[:, g] if has_q else None,
                                 out=ssm_states[g]).outputs
    if has_q:
        o_cat = outputs.reshape(n, config.model_dim)
    else:
        trace["scan_out"] = outputs
        flat = outputs.reshape(n, n_kv, m * w).swapaxes(0, 1)   # (G, N, M W)
        contraction = params.contraction.reshape(n_kv, per_group * dh, m * w)
        o_cat = (flat @ contraction.swapaxes(1, 2)).swapaxes(0, 1).reshape(n, config.model_dim)
    trace["o_cat"] = o_cat

    # --- gate; the callers apply the output projection ---
    gated = silu(x_seq @ params.w_g) * o_cat if config.output_gate_enabled else o_cat
    new_state = LayerState(position=state.position + n, ssm_states=ssm_states, **tails)
    return gated, new_state, trace


def forward(params: LayerParams, x_seq: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Full-sequence forward; (N, model_dim) in, (N, model_dim) out."""
    _check_params(params, config)
    gated, _, _ = _forward_core(params, x_seq, config, state=None)
    return gated @ params.w_o


def forward_trace(params: LayerParams, x_seq: np.ndarray, config: ModelConfig):
    """Forward plus the intermediate tensors, for tests and diagnostics."""
    _check_params(params, config)
    gated, _, trace = _forward_core(params, x_seq, config, state=None)
    return gated @ params.w_o, trace


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
    _check_params(params, config)
    if state is None:
        state = init_decode_state(config)
    else:
        _check_state(state, config)
    if chunk is None:
        chunk = max(n, 1)
    if isinstance(chunk, bool) or not isinstance(chunk, (int, np.integer)) or chunk < 1:
        raise ValueError(f"prefill chunk must be an integer >= 1, got {chunk!r}")
    blocks = []
    for start in range(0, n, chunk):
        # unpack only (gated, state) and drop gated once projected, so no
        # block's trace or gated output outlives its block
        gated, state = _forward_core(params, x_seq[start:start + chunk], config, state)[:2]
        blocks.append(gated @ params.w_o)
        del gated
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
    many steps have been taken.  Returns the output and a new state; the
    passed-in state is never written.

    The position, the layouts and the conv tails are checked up front, the
    SSM states' entries from the output: a NaN or an inf anywhere in them
    reaches every output, through every head's readout a = f_q X_r, Re(a
    C^T) C and Re(beta X_v^T) (or Re(C x) and the contraction), since NaN
    times 0 is NaN.  So the step runs with invalid and overflow warnings
    off, and a non-finite output scans the states: a NaN or an inf there
    raises ValueError naming ``state.ssm_states``; otherwise the step
    overflowed from a finite state (or a parameter is not finite), which
    raises ValueError naming the decode output.
    """
    token = _real(token, "token")
    if token.shape != (config.model_dim,):
        raise ValueError(f"token must be ({config.model_dim},), got {token.shape}")
    _check_finite("token", token)
    _check_params(params, config)
    _check_state(state, config, ssm_finite=False)
    with np.errstate(invalid="ignore", over="ignore"):
        gated, new_state, _ = _forward_core(params, token[None, :], config, state,
                                            backend="sequential")
        y = (gated @ params.w_o)[0]
    if not np.isfinite(y).all():
        _check_state(state, config)
        raise ValueError("decode output must be finite, got NaN or inf from a finite "
                         "state: the step overflowed, or a parameter is not finite")
    return y, new_state


def _conv_backward(x_seq, kernel, grad_out):
    """Backward of short_conv from a zero tail (sequence start)."""
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
    _check_params(params, config)
    trace = _run_streams(params, x_seq, config, None)[0]
    x_seq, z = trace["x"], trace["z"]
    n = x_seq.shape[0]
    upstream = _real(upstream, "upstream")
    if upstream.shape != (n, config.model_dim):
        raise ValueError(f"upstream must match the output shape {(n, config.model_dim)}")
    _check_finite("upstream", upstream)

    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    heads, n_kv = config.heads, config.n_kv
    w = r + dh
    has_q = config.variant in QUERY_VARIANTS
    grads: dict[str, np.ndarray] = {}
    grad_x = np.zeros_like(x_seq)

    # the gate's one sigmoid serves silu, silu' and the readout's upstream
    grad_o_cat = grad_gated = upstream @ params.w_o.T
    if config.output_gate_enabled:
        gate_pre = x_seq @ params.w_g
        s = sigmoid(gate_pre)
        grad_o_cat = gate_pre * s * grad_gated

    # readout and SSM backward one group at a time, batched over the
    # group's heads: one SSM adjoint per group, which returns the outputs
    # it forms, so no group's forward runs twice.  The variants without a
    # query path hold one group's (N, M W) outputs and upstream at a time
    per_group = heads // n_kv
    grad_outs = {}
    ssm_grads = [None] * n_kv
    if has_q:
        f_q = trace["f_q"].reshape(n, n_kv, per_group, r)
        grad_o = grad_o_cat.reshape(n, n_kv, per_group, dh)
        outputs, grad_f = np.empty_like(grad_o), np.empty_like(f_q)
        for g in range(n_kv):
            outputs[:, g], ssm_grads[g], grad_f[:, g] = query_readout_backward(
                params.ssm[g], z[:, g], f_q[:, g], grad_o[:, g], config.chunk_size)
        grad_outs["q"] = grad_f.reshape(n, heads, r)
    else:
        grad_o = grad_o_cat.reshape(n, n_kv, per_group * dh)
        contraction = params.contraction.reshape(n_kv, per_group * dh, m * w)
        outputs, grad_contraction = np.empty_like(grad_o), np.empty_like(contraction)
        scan_out = np.empty((n, m, w))  # the group's outputs, reused
        flat = scan_out.reshape(n, m * w)
        for g in range(n_kv):
            grad_scan = (grad_o[:, g] @ contraction[g]).reshape(n, m, w)
            ssm_grads[g] = backward_checkpointed(params.ssm[g], z[:, g], grad_scan,
                                                 config.chunk_size, out=scan_out)[1]
            outputs[:, g] = flat @ contraction[g].T
            grad_contraction[g] = grad_o[:, g].T @ flat
        grads["contraction"] = grad_contraction.reshape(params.contraction.shape)
    o_cat = outputs.reshape(n, config.model_dim)

    # output projection and gate, now that the readout is known
    gated = o_cat
    if config.output_gate_enabled:
        gated = gate_pre * s * o_cat
        grad_gate_pre = s * (1.0 + gate_pre * (1.0 - s)) * (o_cat * grad_gated)
        grads["w_g"] = x_seq.T @ grad_gate_pre
        grad_x += grad_gate_pre @ params.w_g.T
    grads["w_o"] = gated.T @ upstream
    for field in ("delta", "a_log_neg_re", "a_im", "b", "c_out"):
        grads[f"ssm.{field}"] = np.stack([getattr(sg, field) for sg in ssm_grads])
    grad_z = np.stack([sg.z for sg in ssm_grads], axis=1)
    grad_outs.update(k=grad_z[..., :r], v=grad_z[..., r:])

    # streams, in reverse: norm -> features -> RoPE -> conv -> projection
    for s in streams(config):
        flat, rot, feat = trace[s.name]
        grad = grad_outs[s.name]
        if s.norm is not None:
            grad, grads[f"{s.norm}.gain"], grads[f"{s.norm}.bias"] = \
                rmsnorm_bias_backward(feat, getattr(params, s.norm), grad)
        if s.features:
            grad = feature_map_backward(params.feature_map, rot, grad)
        if s.rope:
            grad = rope_apply(grad, trace["positions"], inverse=True)
        grad = grad.reshape(n, s.rows * dh)
        if s.conv:
            conv = getattr(params, f"conv_{s.name}")
            grad, grads[f"conv_{s.name}"] = _conv_backward(flat, conv, grad)
        grads[f"w_{s.name}"] = x_seq.T @ grad
        grad_x += grad @ getattr(params, f"w_{s.name}").T

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
    """Rebuild a saved container; raises ValueError naming the archive key of
    any float or complex tensor that holds a NaN or an inf."""
    with np.load(path, allow_pickle=False) as blob:
        arrays = {k: blob[k] for k in blob.files}
    for key, value in arrays.items():
        if np.issubdtype(value.dtype, np.inexact):
            _check_finite(f"archive entry {key!r}", value)
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
