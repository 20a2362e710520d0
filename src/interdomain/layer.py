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
query features f_q.  "generic" is ``GENERIC_INPUT_VARIANTS``, whose k
and v are the [a_t, b_t] streams, and "query" is ``QUERY_VARIANTS``.
``backward`` runs the same stages' adjoints in reverse.  Per variant:

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

Every multi-token call walks the sequence in blocks of L =
``config.prefill_chunk`` positions, each block continuing the decode state
the block before it left, so besides its input and output no call holds
more than one block's working set (and ``backward`` each block's entry
state), however long the sequence; a sequence of N <= L tokens is one block
from a fresh state.  ``forward`` is ``prefill``'s block loop from a fresh
state, capped at ``context_len``, and each block's ``o_cat @ w_o`` is
written into its rows of one preallocated output; ``forward_trace`` is one
block, so its trace covers every position.

Which SSM path runs, one group at a time, within a block:

* the forward and ``decode_step`` make one ``ssm.run_scan`` per group,
  which writes the group's final state straight into its row of one
  (n_kv, W, M) array (``run_scan``'s ``out``, honoured on every backend).
  The call updates the states it makes in place, the fresh one and each
  block's new one, giving a group's row as both ``x0`` and ``out``; only a
  first block from a passed-in state writes a new array, and the passed-in
  state is never written.  The streams keep only z and f_q for the
  readout, each stage let go once the next is made.  Each group is read out
  as soon as its scan returns, into the one (N, n_kv, heads / n_kv *
  head_dim) readout.  In the query variants the scan is given the group's
  query features and returns the group's head outputs on every backend:
  under ``chunkwise`` through ``ssm.query_readout``, which never forms the
  (N, M, W) scan outputs; under ``sequential`` (and so in every decode
  step) and ``parallel_prefix`` read query first from the states, never
  reading out all W channels; under ``fft`` from its convolution outputs.
  The variants without a query path contract the group's (N, M, W)
  outputs with its heads' learned matrices, so the forward holds one
  group's scan outputs at a time;
* ``backward`` shares only the streams (``_run_streams``) with the forward
  and calls no scan.  With more than one block, a first pass walks the
  blocks forward and saves each one's entry state from the streams, run
  as the forward's blocks run them, and each group's closed-form final
  state (``ssm.final_state``), with no readout.  The second walks the
  blocks in reverse, recomputing each block's streams from its entry
  state, and carries the gradient of that state (SSM states and conv
  tails) into the block before it.  Per block and
  group it makes one SSM adjoint call in the dual form from the group's
  entry state, with the gradient of its final state carried in, whatever
  backend the config names, and that call returns the outputs it forms
  along with the gradients and the entry state's.  The query variants call
  ``ssm.query_readout_backward``, which returns the head outputs; the
  others call ``ssm.backward_checkpointed`` on the group's upstream into
  one reused (N, M, W) buffer, and contract it, so they hold one group's
  scan outputs and upstream at a time.  Then ``backward`` lets go of what
  it has read: the SSM input z, f_q and the readout's upstream before the
  streams' adjoints, and each stream's saved (projected, rotated) values
  and upstream once that stream's adjoint has run, its features (saved
  only where a norm follows) once the norm's adjoint has.  It keeps the
  readout ``o_cat`` for ``w_o``'s gradient, which is formed last, so that
  the gradient is not held through the streams' adjoints.

``decode_step`` is that block loop over a one-token block.  A one-token
block scans ``sequential`` on every backend, since a one-step scan is the
recurrence: per group, lam x0 is written into the new state's row and the
drive added in place, with no buffer of states, temporary or copy.  Each
block makes its RoPE rotations once (``features.rope_rotations``); the k
and q streams share the table, and ``backward``'s adjoints rotate by its
conjugate.  ``decode_step`` checks the position, the layouts and the conv
tails up front but does not scan the SSM states for a NaN or an inf;
``prefill`` checks its input and the whole state before it runs anything.
A state that is not a ``LayerState`` raises ``ValueError`` naming it.  The
block loop runs with invalid and overflow warnings off and checks the
output once at the end: a non-finite output scans the state the call was
given, since a NaN or an inf there reaches every output, and names
``state.ssm_states`` if it holds one; otherwise a stage overflowed from a
finite input, which raises ``ValueError`` naming the output.  ``backward``
checks its input gradient the same way, naming ``grad_x``.

Two tables, each made once per config, give every tensor of the layer
as (shape, dtype) by name: ``param_layout`` every learnable tensor (dense
slots, input norms and the stacked SSM's fields) and ``state_layout``
every array of the decode state.  The containers are made from them, the
checks compare against them, and ``real_scalars`` counts them for
``count_layer_params``, ``accounting`` and ``bench``.

All the backends agree numerically.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .config import QUERY_VARIANTS, ModelConfig, streams
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
    rope_rotations,
    short_conv_backward,
    short_conv_with_tail,
)
from .ssm import (
    DiagonalSSM,
    _check_count,
    _real,
    backward_checkpointed,
    final_state,
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


# Every array field of ``LayerState``, in its order: what ``_check_state``
# compares against ``state_layout``.
_STATE_ARRAYS = tuple(f.name for f in fields(LayerState) if f.name != "position")


def init_layer_params(
    config: ModelConfig,
    rng: np.random.Generator,
    feature_kind: str = "silu_l2",
    contraction_scale: float = 0.0,
) -> LayerParams:
    """Random parameters for ``config``: every dense slot that
    ``param_layout`` lists, drawn in ``_DENSE`` order, the others None.

    The contraction matrices default to zero (the training init); pass a
    scale to make the no-query variants produce nonzero outputs, as the
    equivalence and gradient suites do.
    """
    layout = param_layout(config)
    n_kv, dh, r = config.n_kv, config.head_dim, config.feature_dim
    scale = 1.0 / np.sqrt(config.model_dim)

    def draw(name):
        if name not in layout:
            return None
        tensor = rng.standard_normal(layout[name][0])  # scaled in place: no second copy
        if name.startswith("conv_"):
            tensor *= 0.5
            tensor[0] += 1.0  # start near a pass-through
        else:
            tensor *= contraction_scale if name == "contraction" else scale
        return tensor

    def norm(name):
        return NormBias(gain=np.ones(layout[f"{name}.gain"][0]),
                        bias=np.zeros(layout[f"{name}.bias"][0]))

    # the contraction is drawn after the SSMs and the feature map: drawing it
    # before them would change every seed's SSM and feature-map tensors
    return LayerParams(
        **{name: draw(name) for name in _DENSE if name != "contraction"},
        k_norm=norm("k_norm"),
        v_norm=norm("v_norm"),
        ssm=stack_ssms([random_ssm(config.state_dim, rng) for _ in range(n_kv)]),
        feature_map=make_feature_map(feature_kind, dh, r, n_kv, rng),
        contraction=draw("contraction"),
    )


@functools.lru_cache(maxsize=32)
def state_layout(config: ModelConfig) -> Mapping[str, tuple[tuple[int, ...], np.dtype]]:
    """(shape, dtype) of every array a decode state for ``config`` holds:
    the per-group SSM states and the tail of each convolved stream.  The
    table is immutable and made once per config, as ``config.streams`` is;
    ``bench.state_units`` and ``accounting.state_dof`` count it."""
    dh = config.head_dim
    layout = {"ssm_states": ((config.n_kv, config.feature_dim + dh, config.state_dim),
                             np.dtype(complex))}
    layout.update({f"conv_{s.name}_tail": ((CONV_TAPS - 1, s.rows * dh), np.dtype(float))
                   for s in streams(config) if s.conv})
    return MappingProxyType(layout)


def real_scalars(pairs: Iterable[tuple[tuple[int, ...], np.dtype]]) -> int:
    """Real scalars in arrays of the given (shape, dtype) pairs, such as a
    ``state_layout`` or ``param_layout`` table's values; complex entries
    count twice."""
    return sum(math.prod(shape) * (2 if dtype.kind == "c" else 1) for shape, dtype in pairs)


def init_decode_state(config: ModelConfig) -> LayerState:
    return LayerState(position=0, **{name: np.zeros(shape, dtype)
                                     for name, (shape, dtype) in state_layout(config).items()})


def _check_finite(name: str, array: np.ndarray) -> None:
    """Raise ValueError naming ``array`` if any entry is NaN or infinite, so
    a bad input fails here instead of turning the outputs silently NaN, and
    an output that overflowed is named instead of returned."""
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite, got NaN or inf")


def _check_state(state: LayerState, config: ModelConfig, ssm_finite: bool = True) -> None:
    """Raise ValueError naming the first field of a passed-in decode state
    that ``init_decode_state(config)`` would not have made, or that holds a
    NaN or an inf.  The layouts are compared without building a state.

    With ``ssm_finite=False`` the SSM states' entries are not scanned, only
    their layout is checked: ``decode_step`` finds a NaN or an inf there
    from its output instead, and ``_forward_blocks`` then calls this again
    in full.
    """
    if not isinstance(state, LayerState):
        raise ValueError(f"state must be a LayerState, got {type(state).__name__}")
    _check_count(state.position, "state.position", 0)
    layout = state_layout(config)
    for name in _STATE_ARRAYS:
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


# The dense slots of ``LayerParams`` by their serialized names, in the order
# ``init_layer_params`` draws them, then every other learnable tensor.
_DENSE = ("w_q", "w_k", "w_v", "w_o", "conv_q", "conv_k", "conv_v", "contraction")
_LEARNABLE = _DENSE + ("k_norm.gain", "k_norm.bias", "v_norm.gain", "v_norm.bias",
                       "ssm.delta", "ssm.a", "ssm.b", "ssm.c_out")
_get_learnable = attrgetter(*_LEARNABLE)


@functools.lru_cache(maxsize=32)
def param_layout(config: ModelConfig) -> Mapping[str, tuple[tuple[int, ...], np.dtype]]:
    """(shape, dtype) of every learnable tensor a ``LayerParams`` for
    ``config`` holds, by its serialized name: exactly the slots the config
    uses, read from ``config.streams``.  Each stream has a projection, and
    a conv where it is convolved; then the output projection, the
    contraction where there is no q stream, the input norms and the
    stacked SSM's fields.  The one table of the parameters, as
    ``state_layout`` is of the decode state:
    ``_check_params`` checks presence, shapes and dtype kinds against it,
    ``init_layer_params`` draws from it and ``accounting`` counts it.
    Immutable and made once per config."""
    d, dh, r, m, n_kv = (config.model_dim, config.head_dim, config.feature_dim,
                         config.state_dim, config.n_kv)
    real, cplx = np.dtype(float), np.dtype(complex)
    layout = {}
    for s in streams(config):
        layout[f"w_{s.name}"] = ((d, s.rows * dh), real)
        if s.conv:
            layout[f"conv_{s.name}"] = ((CONV_TAPS, s.rows * dh), real)
    layout["w_o"] = ((d, d), real)
    if "w_q" not in layout:
        layout["contraction"] = ((config.heads, dh, m * (r + dh)), real)
    for norm, width in (("k_norm", r), ("v_norm", dh)):
        layout[f"{norm}.gain"] = layout[f"{norm}.bias"] = ((n_kv, width), real)
    layout.update({"ssm.delta": ((n_kv, m), real), "ssm.a": ((n_kv, m), cplx),
                   "ssm.b": ((n_kv, m), cplx), "ssm.c_out": ((n_kv, m, m), cplx)})
    return MappingProxyType(layout)


def _check_params(params: LayerParams, config: ModelConfig) -> None:
    """Raise ValueError naming the first field of ``params`` that disagrees
    with ``config``: a tensor present where ``param_layout`` does not list
    it or missing where it does, a tensor of another shape than the table
    gives (an SSM field of another group count or state size, or of an
    unstacked SSM, included), a complex tensor where the table says real or
    a real one where it says complex, an rff feature map whose frequencies
    are not (n_kv, feature_dim / 2, head_dim), or a width-preserving map
    where feature_dim differs from head_dim; whether a map has frequencies,
    and whether they are real, ``FeatureMap`` checks when it is made.
    Parameters made for another config would otherwise run on a wrong
    slice, return an output of the wrong width, fail deep inside with a bare
    IndexError or UFuncTypeError, or silently drop a slot or an imaginary
    part.  A container that is not a ``LayerParams``, a norm, SSM or feature
    map that is not its record, and a real slot of a dtype that is not
    bool, integer or float are named too.  Only shapes and dtype kinds are
    compared, so float32 or integer tensors still run and the check costs
    microseconds."""
    if not isinstance(params, LayerParams):
        raise ValueError(f"params must be a LayerParams, got {type(params).__name__}")
    for name, record in (("k_norm", NormBias), ("v_norm", NormBias), ("ssm", DiagonalSSM),
                         ("feature_map", FeatureMap)):
        slot = getattr(params, name)
        if not isinstance(slot, record):
            raise ValueError(f"params.{name} must be a {record.__name__}, "
                             f"got {type(slot).__name__}")
    layout = param_layout(config)
    tensors = _learnable(params)
    for name in _LEARNABLE:
        want = name in layout
        if (name in tensors) != want:
            raise ValueError(
                f"params.{name} is {'missing' if want else 'present'}, but the config "
                f"(variant {config.variant!r}) {'needs' if want else 'has no use for'} it")
    n_kv, dh, r = config.n_kv, config.head_dim, config.feature_dim
    for name, (want, dtype) in layout.items():
        tensor = tensors[name]
        got = getattr(tensor, "shape", None)
        if got != want:
            raise ValueError(f"params.{name} must be {want} for this config, got {got}")
        # the builtin dtypes are singletons, so the usual tensor costs one `is`
        if tensor.dtype is not dtype:
            kind = tensor.dtype.kind
            if (kind == "c") != (dtype.kind == "c"):
                raise ValueError(f"params.{name} must be "
                                 f"{'complex' if dtype.kind == 'c' else 'real'} for this "
                                 f"config, got dtype {tensor.dtype}")
            if kind not in "biufc":
                raise ValueError(f"params.{name} must be bool, integer or float, got dtype "
                                 f"{tensor.dtype}")
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


def _check_x(x_seq, config: ModelConfig, fresh: bool) -> np.ndarray:
    """``x_seq`` as a finite float (N, model_dim) array.  A fresh sequence
    (``forward``, ``forward_trace``, ``backward``) needs 1 <= N <=
    ``context_len``: the training path caps at the configured window, while
    a decode session (``prefill``, N >= 0) may run past it, since the state
    does not grow with position."""
    x_seq = _real(x_seq, "x")
    least = 1 if fresh else 0
    if x_seq.ndim != 2 or x_seq.shape[1] != config.model_dim or x_seq.shape[0] < least:
        raise ValueError(f"x must be (N, {config.model_dim}) with N >= {least}, "
                         f"got {x_seq.shape}")
    _check_finite("x", x_seq)
    if fresh and x_seq.shape[0] > config.context_len:
        raise ValueError(f"sequence of {x_seq.shape[0]} tokens exceeds "
                         f"context_len={config.context_len}")
    return x_seq


def _run_streams(params: LayerParams, x_seq: np.ndarray, config: ModelConfig,
                 state: LayerState | None, _keep: str = "all"):
    """Run every stream over the checked ``x_seq``, optionally continuing a
    state: x W -> short conv -> heads -> RoPE -> features -> norm.

    Returns (trace, state, tails): the trace holds ``x``, the block's RoPE
    table ``rope``, made once and shared by the k and q streams and by
    ``_backward_block``'s adjoints, the SSM input ``z`` and, in the query
    variants, the query features ``f_q``; ``state`` is the one continued
    (a fresh one for None) and ``tails`` the convolved streams' new tails.

    Every pass runs the same stages; ``_keep`` names only what it keeps:

    * ``"all"`` (``_backward_block``, ``forward_trace``): the trace also
      holds one (projected, rotated, features) entry per stream, the
      features saved only where a norm follows, since only the norm's
      adjoint reads them (the q stream's are ``f_q`` itself);
    * ``"readout"`` (``_forward_blocks``, ``_exit_state``): z and f_q
      only, and each stage's array is let go as soon as the next stage is
      made.

    The q stream runs first, so that its stages never meet z, which is made
    at the k stream's norm; the k and v norms write into its columns.
    """
    n = x_seq.shape[0]
    if state is None:
        state = init_decode_state(config)
    rope = rope_rotations(state.position + np.arange(n), config.head_dim)
    trace: dict = {"x": x_seq, "rope": rope}
    keep_all = _keep == "all"
    r = config.feature_dim
    columns = {"k": np.s_[..., :r], "v": np.s_[..., r:]}
    tails = {}
    table = streams(config)
    for s in table[2:] + table[:2]:  # q, k, v
        stage = x_seq @ getattr(params, f"w_{s.name}")
        flat = stage if keep_all else None
        if s.conv:
            tail = f"conv_{s.name}_tail"
            stage, tails[tail] = short_conv_with_tail(
                stage, getattr(params, f"conv_{s.name}"), getattr(state, tail))
        stage = stage.reshape(n, s.rows, config.head_dim)
        if s.rope:
            stage = rope_apply(stage, rope)
        rot = stage if keep_all else None
        if s.features:
            stage = apply_feature_map(params.feature_map, stage)
        if keep_all:
            trace[s.name] = (flat, rot, None if s.norm is None else stage)
        if s.norm is None:
            trace["f_q"] = stage
        else:
            if "z" not in trace:
                trace["z"] = np.empty((n, config.n_kv, r + config.head_dim))
            rmsnorm_bias(stage, getattr(params, s.norm), out=trace["z"][columns[s.name]])
        del stage  # before the next stream's projection is made
    return trace, state, tails


def _forward_core(
    params: LayerParams,
    x_seq: np.ndarray,
    config: ModelConfig,
    state: LayerState | None,
    owned: bool = False,
    _keep: str = "readout",
):
    """Shared forward over a block of tokens, optionally continuing a state.
    A one-token block, every decode step among them, scans ``sequential``:
    a one-step scan is the recurrence itself on every backend.

    Each group's scan writes its final state into its row of one (n_kv, W,
    M) array: the entry state's own for a fresh state (None) or an
    ``owned`` one, since each row is read only by the scan that overwrites
    it (``run_scan``'s ``out`` may be its ``x0``), and a new array for a
    state the caller still holds, which is never written.

    Returns (o_cat, new_state, trace), where ``o_cat`` is the readout, the
    output before the ``w_o`` projection, which the callers apply.  With
    ``_keep="all"`` (``forward_trace``) the trace is ``_run_streams``'s plus
    ``o_cat``, for the diagnostic tests; with ``"readout"`` it is None, and
    z and f_q are let go once every group is read out.  ``backward`` does
    not call this.
    """
    owned = owned or state is None  # a fresh state is made for this block alone
    trace, state, tails = _run_streams(params, x_seq, config, state, _keep)
    z, f_q = trace["z"], trace.get("f_q")
    if _keep != "all":
        trace = None
    n = x_seq.shape[0]
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    n_kv = config.n_kv
    per_group = config.heads // n_kv
    has_q = config.variant in QUERY_VARIANTS
    backend = "sequential" if n == 1 else config.backend
    if has_q:
        f_q = f_q.reshape(n, n_kv, per_group, r)
    else:
        contraction = params.contraction.reshape(n_kv, per_group * dh, m * (r + dh))

    # --- per-group SSM, one scan per group, read out as soon as it returns:
    # the query variants' scans return the group's head outputs, the others'
    # (N, M, W) outputs are contracted with the group's heads' matrices ---
    outputs = np.empty((n, n_kv, per_group * dh))
    ssm_states = state.ssm_states if owned else np.empty_like(state.ssm_states, order="C")
    for g in range(n_kv):
        res = run_scan(params.ssm[g], z[:, g], backend, chunk=config.chunk_size,
                       x0=state.ssm_states[g], f_q=f_q[:, g] if has_q else None,
                       out=ssm_states[g]).outputs.reshape(n, -1)
        outputs[:, g] = res if has_q else res @ contraction[g].T
    del z, f_q, res
    o_cat = outputs.reshape(n, config.model_dim)
    if trace is not None:
        trace["o_cat"] = o_cat
    new_state = LayerState(position=state.position + n, ssm_states=ssm_states, **tails)
    return o_cat, new_state, trace


def _forward_blocks(params: LayerParams, x_seq: np.ndarray, config: ModelConfig,
                    state: LayerState | None, chunk: int) -> tuple[np.ndarray, LayerState]:
    """Run the checked ``x_seq`` through ``_forward_core`` in blocks of
    ``chunk`` tokens, each continuing the last one's state (a fresh one for
    None), and write each block's ``o_cat @ w_o`` into its rows of one
    (N, model_dim) output.  No block's readout outlives its block.
    Returns (outputs, the state after the last block).

    The call owns every state it makes: the fresh one and each block's new
    one, whose SSM states the next block's scans update in place.  Only the
    first block from a passed-in state writes a new (n_kv, W, M) array, so
    the call holds at most the caller's SSM states and one array more, and
    never writes the caller's.

    The blocks run with invalid and overflow warnings off, and the outputs
    are checked once at the end.  A NaN or an inf in an SSM state reaches
    every later output, through every head's readout a = f_q X_r, Re(a
    C^T) C and Re(beta X_v^T) (or Re(C x) and the contraction), since NaN
    times 0 is NaN; so the SSM states need no scan up front (``decode_step``
    skips it), and a non-finite output scans the state it was given: a NaN
    or an inf there raises ValueError naming ``state.ssm_states``.
    Otherwise a stage overflowed from a finite input and state, or a
    parameter is not finite, which raises ValueError naming the output."""
    y = np.empty((x_seq.shape[0], config.model_dim))
    entry = state
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, x_seq.shape[0], chunk):
            o_cat, state = _forward_core(params, x_seq[lo:lo + chunk], config, state,
                                         owned=state is not entry)[:2]
            np.matmul(o_cat, params.w_o, out=y[lo:lo + chunk])
            del o_cat
    if not np.isfinite(y).all():
        if entry is not None:
            _check_state(entry, config)
        _check_finite("output", y)
    return y, init_decode_state(config) if state is None else state


def forward(params: LayerParams, x_seq: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Full-sequence forward from a fresh state; (N, model_dim) in,
    (N, model_dim) out, N <= ``context_len``.  It runs in blocks of
    ``config.prefill_chunk`` tokens, as ``prefill`` does, so it holds one
    block's working set however long the input."""
    _check_params(params, config)
    x_seq = _check_x(x_seq, config, fresh=True)
    return _forward_blocks(params, x_seq, config, None, config.prefill_chunk)[0]


def forward_trace(params: LayerParams, x_seq: np.ndarray, config: ModelConfig):
    """Forward plus the intermediate tensors, for tests and diagnostics; one
    block however long the input, so the trace covers every position."""
    _check_params(params, config)
    x_seq = _check_x(x_seq, config, fresh=True)
    o_cat, _, trace = _forward_core(params, x_seq, config, None, _keep="all")
    return o_cat @ params.w_o, trace


def prefill(
    params: LayerParams,
    x_seq: np.ndarray,
    config: ModelConfig,
    state: LayerState | None = None,
    chunk: int | None = None,
) -> tuple[np.ndarray, LayerState]:
    """Consume a prompt in blocks of ``chunk`` tokens (default
    ``config.prefill_chunk``), returning outputs for every position and the
    state ready for decoding.  Any chunking reproduces the single-block
    forward exactly up to roundoff.
    """
    x_seq = _check_x(x_seq, config, fresh=False)
    _check_params(params, config)
    if state is not None:
        _check_state(state, config)
    if chunk is None:
        chunk = config.prefill_chunk
    _check_count(chunk, "prefill chunk")
    return _forward_blocks(params, x_seq, config, state, chunk)


def decode_step(
    params: LayerParams,
    state: LayerState,
    token: np.ndarray,
    config: ModelConfig,
) -> tuple[np.ndarray, LayerState]:
    """Advance one token: ``prefill``'s block loop over a one-token block,
    which steps the sequential recurrence whatever backend the config names
    for training; state size is independent of how many steps have been
    taken.  Returns the output and a new state; the passed-in state is
    never written.

    The position, the layouts and the conv tails are checked up front, the
    SSM states' entries only from a non-finite output (``_forward_blocks``).
    """
    token = _real(token, "token")
    if token.shape != (config.model_dim,):
        raise ValueError(f"token must be ({config.model_dim},), got {token.shape}")
    _check_finite("token", token)
    _check_params(params, config)
    _check_state(state, config, ssm_finite=False)
    y, new_state = _forward_blocks(params, token[None, :], config, state, 1)
    return y[0], new_state


def _exit_state(params: LayerParams, x_seq: np.ndarray, config: ModelConfig,
                state: LayerState | None) -> LayerState:
    """The state after the checked block ``x_seq`` from ``state`` (a fresh
    one for None), from the streams, run as the forward's blocks run them
    (``_keep="readout"``), and each group's closed-form final state
    (``ssm.final_state``): no readout and no ``run_scan``.  Only z and the
    conv tails are read, so f_q is let go before the groups' steps."""
    trace, state, tails = _run_streams(params, x_seq, config, state, _keep="readout")
    trace.pop("f_q", None)
    ssm_states = np.empty_like(state.ssm_states, order="C")
    for g in range(config.n_kv):
        final_state(params.ssm[g], trace["z"][:, g], config.chunk_size,
                    x0=state.ssm_states[g], out=ssm_states[g])
    return LayerState(position=state.position + x_seq.shape[0], ssm_states=ssm_states, **tails)


def _accumulate(grads: dict[str, np.ndarray], name: str, value: np.ndarray) -> None:
    """Add one block's gradient of ``name`` into ``grads``; the first one
    added is kept as it is, so a single block's gradients are unchanged."""
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value


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

    It walks the blocks of ``config.prefill_chunk`` tokens that ``forward``
    runs.  With more than one, a first pass saves each block's entry state
    (``_exit_state``), and the second walks the blocks in reverse, each
    recomputing its streams from its entry state and carrying the gradient
    of that state back into the block before it (``_backward_block``).
    """
    _check_params(params, config)
    x_seq = _check_x(x_seq, config, fresh=True)
    n = x_seq.shape[0]
    upstream = _real(upstream, "upstream")
    if upstream.shape != (n, config.model_dim):
        raise ValueError(f"upstream must match the output shape {(n, config.model_dim)}")
    _check_finite("upstream", upstream)
    chunk = config.prefill_chunk
    entries = [None]  # each block's entry state; the first block's is fresh
    for lo in range(chunk, n, chunk):
        entries.append(_exit_state(params, x_seq[lo - chunk:lo], config, entries[-1]))
    grads: dict[str, np.ndarray] = {}
    grad_x = np.zeros_like(x_seq)
    grad_state = None  # of the state the block after this one enters with
    for lo in range(chunk * (len(entries) - 1), -1, -chunk):
        rows = slice(lo, lo + chunk)
        grad_state = _backward_block(params, x_seq[rows], upstream[rows], config,
                                     entries.pop(), grad_state, grads, grad_x[rows])
    _check_finite("grad_x", grad_x)
    return grads, grad_x


def _backward_block(params: LayerParams, x_seq: np.ndarray, upstream: np.ndarray,
                    config: ModelConfig, state: LayerState | None, grad_state: dict | None,
                    grads: dict[str, np.ndarray], grad_x: np.ndarray) -> dict | None:
    """One block's adjoint, from its entry ``state`` (None for the
    sequence's start) with ``grad_state``, the gradient of the state it
    leaves (None for the last block), carried in.  Adds the block's
    parameter gradients into ``grads`` and its input gradient into
    ``grad_x``, the block's rows.  Returns the gradient of the entry state
    by ``LayerState`` field name (SSM states and conv tails), None for the
    sequence's start."""
    trace = _run_streams(params, x_seq, config, state)[0]
    z = trace.pop("z")
    n = x_seq.shape[0]
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    heads, n_kv = config.heads, config.n_kv
    w = r + dh
    has_q = config.variant in QUERY_VARIANTS

    def group(array, g):  # the group's row of an optional per-group array
        return None if array is None else array[g]
    x0 = None if state is None else state.ssm_states
    final_up = None if grad_state is None else grad_state["ssm_states"]

    grad_o_cat = upstream @ params.w_o.T

    # readout and SSM backward one group at a time, batched over the
    # group's heads: one SSM adjoint per group, which returns the outputs
    # it forms, so no group's forward runs twice.  The variants without a
    # query path hold one group's (N, M W) outputs and upstream at a time
    per_group = heads // n_kv
    grad_outs = {}
    ssm_grads = [None] * n_kv
    if has_q:
        f_q = trace.pop("f_q").reshape(n, n_kv, per_group, r)
        grad_o = grad_o_cat.reshape(n, n_kv, per_group, dh)
        outputs, grad_f = np.empty_like(grad_o), np.empty_like(f_q)
        for g in range(n_kv):
            outputs[:, g], ssm_grads[g], grad_f[:, g] = query_readout_backward(
                params.ssm[g], z[:, g], f_q[:, g], grad_o[:, g], config.chunk_size,
                x0=group(x0, g), final_upstream=group(final_up, g))
        grad_outs["q"] = grad_f.reshape(n, heads, r)
        del f_q
    else:
        grad_o = grad_o_cat.reshape(n, n_kv, per_group * dh)
        contraction = params.contraction.reshape(n_kv, per_group * dh, m * w)
        outputs, grad_contraction = np.empty_like(grad_o), np.empty_like(contraction)
        scan_out = np.empty((n, m, w))  # the group's outputs, reused
        flat = scan_out.reshape(n, m * w)
        for g in range(n_kv):
            grad_scan = (grad_o[:, g] @ contraction[g]).reshape(n, m, w)
            ssm_grads[g] = backward_checkpointed(
                params.ssm[g], z[:, g], grad_scan, config.chunk_size, out=scan_out,
                x0=group(x0, g), final_upstream=group(final_up, g))[1]
            outputs[:, g] = flat @ contraction[g].T
            grad_contraction[g] = grad_o[:, g].T @ flat
        _accumulate(grads, "contraction", grad_contraction.reshape(params.contraction.shape))
        del scan_out, flat, grad_scan
    del z, grad_o, grad_o_cat
    for field in ("delta", "a_log_neg_re", "a_im", "b", "c_out"):
        _accumulate(grads, f"ssm.{field}", np.stack([getattr(sg, field) for sg in ssm_grads]))
    grad_entry = None if state is None else \
        {"ssm_states": np.stack([sg.x0 for sg in ssm_grads])}
    grad_z = np.stack([sg.z for sg in ssm_grads], axis=1)
    del ssm_grads
    grad_outs.update(k=grad_z[..., :r], v=grad_z[..., r:])
    del grad_z

    # streams, in reverse: norm -> features -> RoPE -> conv -> projection;
    # each stream's saved values and upstream go as soon as it is done
    for s in streams(config):
        flat, rot, feat = trace.pop(s.name)
        grad = grad_outs.pop(s.name)
        if s.norm is not None:
            grad, grad_gain, grad_bias = rmsnorm_bias_backward(feat, getattr(params, s.norm), grad)
            _accumulate(grads, f"{s.norm}.gain", grad_gain)
            _accumulate(grads, f"{s.norm}.bias", grad_bias)
        del feat  # read by the norm's adjoint only
        if s.features:
            grad = feature_map_backward(params.feature_map, rot, grad)
        if s.rope:
            grad = rope_apply(grad, trace["rope"].conj())
        grad = grad.reshape(n, s.rows * dh)
        if s.conv:
            tail = f"conv_{s.name}_tail"
            grad, grad_conv, grad_tail = short_conv_backward(
                flat, getattr(state, tail, None), getattr(params, f"conv_{s.name}"), grad,
                None if grad_state is None else grad_state[tail])
            _accumulate(grads, f"conv_{s.name}", grad_conv)
            if grad_entry is not None:
                grad_entry[tail] = grad_tail
        del flat, rot
        _accumulate(grads, f"w_{s.name}", x_seq.T @ grad)
        grad_x += grad @ getattr(params, f"w_{s.name}").T
        del grad
    # w_o's gradient waits for the streams, so that it is not held through
    # their adjoints
    _accumulate(grads, "w_o", outputs.reshape(n, config.model_dim).T @ upstream)
    return grad_entry


# --- parameter container serialization -------------------------------------
#
# Parameters serialize to a flat .npz archive: one entry per tensor, names
# matching the gradient keys, per-group tensors stacked on their leading
# group axis (``ssm.b`` is (n_kv, M)), plus the feature map's kind and
# frequencies, so the archive reloads standalone.

# Every entry an archive may hold, and those a variant or feature map that
# does not use them leaves out.  Archives written while the SSM record still
# carried its input width hold ``ssm.input_width``; older archives must still
# load, so it is accepted, and its value is never used: the scans take W from
# their input.
_ARCHIVE_KEYS = _LEARNABLE + ("ssm.input_width", "fmap.kind", "fmap.omega")
_ARCHIVE_OPTIONAL = ("w_q", "conv_q", "conv_v", "contraction", "fmap.omega",
                     "ssm.input_width")


def _learnable(params: LayerParams) -> dict[str, np.ndarray]:
    """Every learnable tensor by its serialized name; absent streams are skipped."""
    return {name: value for name, value in zip(_LEARNABLE, _get_learnable(params))
            if value is not None}


def save_layer_params(params: LayerParams, path) -> None:
    fmap = params.feature_map
    arrays = {**_learnable(params), "fmap.kind": np.array(fmap.kind)}
    if fmap.omega is not None:
        arrays["fmap.omega"] = fmap.omega
    with open(path, "wb") as fh:  # np.savez would add .npz to a path without it
        np.savez(fh, **arrays)


def load_layer_params(path) -> LayerParams:
    """Rebuild a saved container; raises ValueError naming the archive and
    every required entry it lacks and every entry the loader does not read
    (a misspelt ``w_G`` would otherwise be dropped silently), naming the
    archive key of any float or complex tensor that holds a NaN or an inf,
    or naming the archive and passing on the message of ``DiagonalSSM`` or
    ``FeatureMap``, which reject fields they cannot hold: an unstable
    ``ssm.a``, or a missing, stray or complex ``fmap.omega``.  The
    ``ssm.input_width`` of an archive written before the SSM record lost
    that field is accepted and not read."""
    with np.load(path, allow_pickle=False) as blob:
        arrays = {k: blob[k] for k in blob.files}
    missing = [k for k in _ARCHIVE_KEYS if k not in _ARCHIVE_OPTIONAL and k not in arrays]
    unknown = sorted(arrays.keys() - set(_ARCHIVE_KEYS))
    if missing or unknown:
        raise ValueError(f"parameter archive {path}: missing entries {missing}, "
                         f"unknown entries {unknown}")
    for key, value in arrays.items():
        if np.issubdtype(value.dtype, np.inexact):
            _check_finite(f"archive entry {key!r}", value)
    try:
        return LayerParams(
            **{name: arrays.get(name) for name in _DENSE},
            k_norm=NormBias(gain=arrays["k_norm.gain"], bias=arrays["k_norm.bias"]),
            v_norm=NormBias(gain=arrays["v_norm.gain"], bias=arrays["v_norm.bias"]),
            ssm=DiagonalSSM(arrays["ssm.delta"], arrays["ssm.a"], arrays["ssm.b"],
                            arrays["ssm.c_out"]),
            feature_map=FeatureMap(str(arrays["fmap.kind"]), arrays.get("fmap.omega")),
        )
    except ValueError as err:
        raise ValueError(f"parameter archive {path}: {err}") from err


def count_layer_params(params: LayerParams) -> int:
    """Trainable real scalars in the container (complex entries count twice)."""
    return real_scalars((value.shape, value.dtype) for value in _learnable(params).values())
