import dataclasses
import importlib.util
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from interdomain import layer as layer_module
from interdomain.accounting import mixer_params_per_layer
from interdomain.config import (
    BACKENDS,
    GENERIC_INPUT_VARIANTS,
    QUERY_VARIANTS,
    VARIANTS,
    load_config,
    make_rng,
)
from interdomain.layer import (
    backward,
    count_layer_params,
    decode_step,
    forward,
    forward_trace,
    init_decode_state,
    init_layer_params,
    load_layer_params,
    prefill,
    save_layer_params,
)
from interdomain.ssm import _BLOCK_BYTES, DiagonalSSM, random_ssm, run_scan, stack_ssms

from helpers import (
    SHAPES,
    central_diff,
    central_diff_complex,
    contraction_readout_loop,
    query_readout_loop,
    randomize_norms,
    rel_err,
    tiny_config,
    traced_peak,
)


def variant_setup(variant, seed=0, feature_kind="silu_l2", **overrides):
    config = tiny_config(variant=variant, **overrides)
    params = init_layer_params(
        config, make_rng(seed), feature_kind=feature_kind, contraction_scale=0.5
    )
    return config, params


# --- shapes and layout ---

@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_shapes(variant):
    config, params = variant_setup(variant)
    x = make_rng(1).standard_normal((6, config.model_dim))
    y = forward(params, x, config)
    assert y.shape == (6, config.model_dim)
    assert np.all(np.isfinite(y))
    assert np.max(np.abs(y)) > 0


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_layout_per_variant(variant, shape):
    _, params = variant_setup(variant, **SHAPES[shape])
    has_q = variant in QUERY_VARIANTS
    generic = variant in GENERIC_INPUT_VARIANTS
    assert (params.w_q is not None) == has_q
    assert (params.conv_q is not None) == has_q
    assert (params.contraction is None) == has_q
    assert (params.conv_v is not None) == generic


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_gradient_keys_match_layout(variant, shape):
    config, params = variant_setup(variant, **SHAPES[shape])
    rng = make_rng(2)
    x = rng.standard_normal((4, config.model_dim))
    grads, _ = backward(params, x, rng.standard_normal((4, config.model_dim)), config)
    has_q = variant in QUERY_VARIANTS
    generic = variant in GENERIC_INPUT_VARIANTS
    assert ("w_q" in grads) == has_q and ("conv_q" in grads) == has_q
    assert ("contraction" in grads) == (not has_q)
    assert ("conv_v" in grads) == generic
    for key in ("w_o", "w_k", "w_v", "conv_k"):
        assert key in grads
    assert grads["ssm.b"].shape == params.ssm.b.shape == (config.n_kv, config.state_dim)
    assert grads["ssm.c_out"].shape == params.ssm.c_out.shape
    assert grads["k_norm.gain"].shape == params.k_norm.gain.shape
    assert grads["v_norm.bias"].shape == params.v_norm.bias.shape
    for key, g in grads.items():
        assert np.all(np.isfinite(np.asarray(g, dtype=complex).view(float))), key


def test_zero_input_zero_output():
    for variant in VARIANTS:
        config, params = variant_setup(variant)
        y = forward(params, np.zeros((5, config.model_dim)), config)
        assert np.all(y == 0.0), variant


# --- causality and stream structure ---

@pytest.mark.parametrize("variant", VARIANTS)
def test_causal_under_suffix_edits(variant):
    config, params = variant_setup(variant)
    rng = make_rng(3)
    x = rng.standard_normal((10, config.model_dim))
    edited = x.copy()
    edited[7:] += rng.standard_normal((3, config.model_dim))
    assert np.array_equal(forward(params, x, config)[:7],
                          forward(params, edited, config)[:7])


@pytest.mark.parametrize("variant", VARIANTS)
def test_rope_rotates_keys_and_queries_not_values(monkeypatch, variant):
    # the same run with every rotation the identity: the values' columns of
    # z stay bit for bit, and the keys' columns, the query features and the
    # output all move
    config, params = variant_setup(variant)
    x = make_rng(4).standard_normal((6, config.model_dim))
    y_on, tr_on = forward_trace(params, x, config)
    monkeypatch.setattr(layer_module, "rope_rotations",
                        lambda positions, width: np.ones((len(positions), width // 2), complex))
    y_off, tr_off = forward_trace(params, x, config)
    r = config.feature_dim
    assert np.array_equal(tr_on["z"][:, :, r:], tr_off["z"][:, :, r:])
    assert not np.allclose(tr_on["z"][:, :, :r], tr_off["z"][:, :, :r])
    if config.variant in QUERY_VARIANTS:
        assert not np.allclose(tr_on["f_q"], tr_off["f_q"])
    assert not np.allclose(y_on, y_off)


def test_heads_with_private_groups_are_isolated():
    config, params = variant_setup("full_interdomain")  # n_kv == heads == 2
    dh = config.head_dim
    x = make_rng(5).standard_normal((6, config.model_dim))
    _, base = forward_trace(params, x, config)
    bumped = dataclasses.replace(params)
    bumped.w_k = params.w_k.copy()
    bumped.w_k[:, dh:] += 1.0  # group 1's key projection only
    _, got = forward_trace(bumped, x, config)
    assert np.array_equal(got["o_cat"][:, :dh], base["o_cat"][:, :dh])
    assert not np.allclose(got["o_cat"][:, dh:], base["o_cat"][:, dh:])


def test_shared_group_feeds_every_head():
    config, params = variant_setup("full_interdomain", n_kv=1)
    dh = config.head_dim
    x = make_rng(6).standard_normal((6, config.model_dim))
    _, base = forward_trace(params, x, config)
    bumped = dataclasses.replace(params)
    bumped.w_k = params.w_k + 1.0
    _, got = forward_trace(bumped, x, config)
    assert not np.allclose(got["o_cat"][:, :dh], base["o_cat"][:, :dh])
    assert not np.allclose(got["o_cat"][:, dh:], base["o_cat"][:, dh:])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_kv", [1, 2])
def test_readout_matches_per_head_loop(variant, n_kv):
    config, params = variant_setup(variant, n_kv=n_kv)
    n = 6
    x = make_rng(40).standard_normal((n, config.model_dim))
    _, trace = forward_trace(params, x, config)
    # the traces hold no scan outputs: scan each group
    scan_out = np.stack([run_scan(params.ssm[g], trace["z"][:, g], config.backend).outputs
                         for g in range(n_kv)], axis=1)
    if variant in QUERY_VARIANTS:
        want = query_readout_loop(trace["f_q"], scan_out, n_kv)
    else:
        want = contraction_readout_loop(scan_out, params.contraction, n_kv)
    assert rel_err(trace["o_cat"], want) < 1e-12
    # every backend, and the chunkwise one from one step per chunk through a
    # ragged chunk to one chunk past N
    cases = [(backend, config.chunk_size) for backend in BACKENDS]
    cases += [("chunkwise", chunk) for chunk in (1, 3, n, n + 5)]
    for backend, chunk in cases:
        other = dataclasses.replace(config, backend=backend, chunk_size=chunk)
        _, got = forward_trace(params, x, other)
        assert "scan_out" not in got, backend
        assert rel_err(got["o_cat"], want) < 1e-12, (backend, chunk)


def _forward_peak_over_every_groups_scan_outputs(variant, backend):
    """tracemalloc peak of a forward at width 8 and N = 512, one block,
    over the bytes of the float (N, n_kv, M, W) outputs of every group;
    measured on the second of two identical calls, after any first-call
    allocation."""
    width = 8
    config = dataclasses.replace(
        load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json"),
        variant=variant, backend=backend,
        heads=width, n_kv=width, head_dim=width, feature_dim=width, state_dim=width,
        model_dim=width * width, context_len=512, prefill_chunk=512)
    params = init_layer_params(config, make_rng(47), contraction_scale=0.1)
    x = make_rng(48).standard_normal((512, config.model_dim))
    forward(params, x, config)
    peak = traced_peak(lambda: forward(params, x, config)).peak
    return peak / (512 * width * width * 2 * width * 8)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", QUERY_VARIANTS)
def test_query_forward_never_holds_every_groups_scan_outputs(variant, backend):
    # each group's heads are read out as soon as its scan returns, so the
    # forward holds at most one group's (N, M, W) outputs, never the
    # (N, n_kv, M, W) outputs of every group
    assert _forward_peak_over_every_groups_scan_outputs(variant, backend) < 1.75


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", [v for v in VARIANTS if v not in QUERY_VARIANTS])
def test_no_query_forward_never_holds_every_groups_scan_outputs(variant, backend):
    # each group's (N, M, W) outputs are contracted as soon as its scan
    # returns, so the forward never holds the (N, n_kv, M, W) outputs of
    # every group
    assert _forward_peak_over_every_groups_scan_outputs(variant, backend) < 1.25


def _backward_peak(variant):
    """(tracemalloc peak of a backward at width 8 and N = 512, one block,
    bytes of one (N, model_dim) float array); measured on the second of two
    identical calls, after any first-call allocation."""
    width = 8
    config = dataclasses.replace(
        load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json"),
        variant=variant, heads=width, n_kv=width, head_dim=width,
        feature_dim=width, state_dim=width, model_dim=width * width, context_len=512,
        prefill_chunk=512)
    params = init_layer_params(config, make_rng(47), contraction_scale=0.1)
    rng = make_rng(48)
    x = rng.standard_normal((512, config.model_dim))
    up = rng.standard_normal((512, config.model_dim))
    backward(params, x, up, config)
    return traced_peak(lambda: backward(params, x, up, config)).peak, x.nbytes


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v not in QUERY_VARIANTS])
def test_no_query_backward_never_holds_every_groups_scan_outputs(variant):
    # each group's upstream, scan outputs and contraction slices are made
    # and used one group at a time, the outputs in one reused buffer, so
    # the backward never holds the (N, n_kv, M, W) outputs or upstream of
    # every group
    width = 8
    every_group = 512 * width * width * 2 * width * 8   # float (N, n_kv, M, W) bytes
    assert _backward_peak(variant)[0] < 2 * every_group


@pytest.mark.parametrize("variant", QUERY_VARIANTS)
def test_query_backward_releases_what_it_has_read(variant):
    # the readout's inputs, upstream and outputs go before the stream
    # adjoints, each stream's saved values and upstream once its adjoint
    # has run (its features once its norm's adjoint has), and the readout's
    # adjoint takes its chunks in blocks of about _BLOCK_BYTES, so the peak
    # stays below 22 (N, model_dim) float arrays
    peak, unit = _backward_peak(variant)
    assert peak < 22 * unit


# --- streaming equivalence ---

@pytest.mark.parametrize("variant", VARIANTS)
def test_prefill_plus_decode_matches_forward(variant):
    config, params = variant_setup(variant, seed=10)
    x = make_rng(11).standard_normal((16, config.model_dim))
    want = forward(params, x, config)
    y_pre, state = prefill(params, x[:12], config, chunk=5)
    rows = [y_pre]
    for t in range(12, 16):
        y_t, state = decode_step(params, state, x[t], config)
        rows.append(y_t[None, :])
    assert rel_err(np.concatenate(rows), want) < 1e-10
    assert state.position == 16


def test_prefill_chunking_invariant():
    # every block after the first continues from a nonzero state; under the
    # chunkwise backend that state enters the query readout's first chunk
    config, params = variant_setup("full_interdomain", seed=12)
    x = make_rng(13).standard_normal((11, config.model_dim))
    full, st_full = prefill(params, x, config)
    for backend, chunk_size in (("sequential", 3), ("chunkwise", 1), ("chunkwise", 3),
                                ("chunkwise", 16)):
        cfg = dataclasses.replace(config, backend=backend, chunk_size=chunk_size)
        for chunk in (1, 2, 7, 11, 99):
            got, st = prefill(params, x, cfg, chunk=chunk)
            assert rel_err(got, full) < 1e-12, (backend, chunk_size, chunk)
            assert st.position == st_full.position
            for a, b in zip(st.ssm_states, st_full.ssm_states):
                assert rel_err(a, b) < 1e-12


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_blocked_calls_match_one_block(variant, shape):
    # forward, prefill and backward walk the sequence in prefill_chunk
    # blocks; one block of L >= N is the unblocked call.  L = 1 and 2 are
    # shorter than the conv's tail, 5 leaves a ragged last block and N - 1
    # a one-token one
    n = 12
    config, params = variant_setup(variant, seed=80, prefill_chunk=n, **SHAPES[shape])
    randomize_norms(params, make_rng(81))
    rng = make_rng(82)
    x = rng.standard_normal((n, config.model_dim))
    up = rng.standard_normal((n, config.model_dim))
    want_y = forward(params, x, config)
    want_pre, want_state = prefill(params, x, config)
    want_grads, want_gx = backward(params, x, up, config)
    for chunk in (1, 2, 5, n - 1):
        blocked = dataclasses.replace(config, prefill_chunk=chunk)
        assert rel_err(forward(params, x, blocked), want_y) <= 1e-13, chunk
        got_pre, got_state = prefill(params, x, blocked)
        assert rel_err(got_pre, want_pre) <= 1e-13, chunk
        assert rel_err(got_state.ssm_states, want_state.ssm_states) <= 1e-13, chunk
        grads, grad_x = backward(params, x, up, blocked)
        assert rel_err(grad_x, want_gx) <= 1e-12, chunk
        assert grads.keys() == want_grads.keys()
        for key, value in grads.items():
            assert rel_err(value, want_grads[key]) <= 1e-12, (chunk, key)


def _long_small_peak(call, n):
    """tracemalloc peak of ``call`` (a backend's forward, or "backward")
    at ``long_small``'s width over N tokens, minus what the call returns;
    measured after a warm-up call at N = 256."""
    config = dataclasses.replace(
        load_config(Path(__file__).resolve().parents[1] / "perfbench" / "long_small.json"),
        context_len=n)
    params = init_layer_params(config, make_rng(83))
    rng = make_rng(84)
    x = rng.standard_normal((n, config.model_dim))
    up = rng.standard_normal((n, config.model_dim))
    if call == "backward":
        backward(params, x[:256], up[:256], config)
        traced = traced_peak(lambda: backward(params, x, up, config))
    else:
        config = dataclasses.replace(config, backend=call)
        forward(params, x[:256], config)
        traced = traced_peak(lambda: forward(params, x, config))
    return traced.peak - traced.held


@pytest.mark.parametrize("call", [*BACKENDS, "backward"])
def test_working_set_does_not_grow_with_the_sequence(call):
    # every call walks the sequence in prefill_chunk (256) blocks, so
    # besides its output a forward holds one block's working set, on
    # every backend, and a backward that and each block's entry state
    # (about 37 KiB here): at N = 8192 within 1 MiB of N = 2048
    short, long = _long_small_peak(call, 2048), _long_small_peak(call, 8192)
    assert long - short < 2 ** 20, (short, long)


@pytest.mark.parametrize("backend", BACKENDS)
def test_prefill_over_many_blocks_peaks_as_one_block(backend):
    # from a passed-in state the first block writes one new array and
    # every later block updates it in place, so over 4 blocks the call
    # holds no more than over one, besides 3 more blocks of output rows; a
    # new array per block would add a whole state
    config = dataclasses.replace(
        tiny_config(), backend=backend, heads=4, n_kv=4, head_dim=8, feature_dim=8,
        model_dim=32, state_dim=64, chunk_size=16, prefill_chunk=16, context_len=64)
    params = init_layer_params(config, make_rng(87))
    block = config.prefill_chunk
    x = make_rng(88).standard_normal((5 * block, config.model_dim))
    _, state = prefill(params, x[:block], config)
    one = traced_peak(lambda: prefill(params, x[block:2 * block], config, state=state)).peak
    four = traced_peak(lambda: prefill(params, x[block:], config, state=state)).peak
    slack = state.ssm_states.nbytes // 4
    assert four <= one + 3 * block * config.model_dim * 8 + slack, (one, four)


@pytest.mark.parametrize("backend", ["chunkwise", "fft"])
def test_one_block_forward_peaks_within_its_shapes(backend):
    # a forward block keeps only z and f_q of its streams, lets each stage
    # go once the next is made and scans into the state it made, so it
    # peaks below one state, z, f_q, the output and one stage array, plus
    # the about _BLOCK_BYTES a dual-form scan's block takes; a second state
    # or every stream's saved stages would exceed it
    config = dataclasses.replace(
        tiny_config(), backend=backend, heads=16, n_kv=16,
        head_dim=32, feature_dim=32, model_dim=512, state_dim=64, chunk_size=64,
        prefill_chunk=64, context_len=64)
    params = init_layer_params(config, make_rng(89))
    x = make_rng(90).standard_normal((config.prefill_chunk, config.model_dim))
    forward(params, x, config)
    peak = traced_peak(lambda: forward(params, x, config)).peak
    n, width = x.shape[0], config.feature_dim + config.head_dim
    state = init_decode_state(config)
    bound = (sum(a.nbytes for a in (state.ssm_states, state.conv_q_tail, state.conv_k_tail))
             + n * config.n_kv * width * 8               # z
             + n * config.heads * config.feature_dim * 8  # f_q
             + x.nbytes                                   # the output
             + n * config.heads * config.head_dim * 8     # one stage array
             + _BLOCK_BYTES)
    assert peak < bound, (peak, bound)


def test_state_shapes_do_not_grow():
    config, params = variant_setup("full_interdomain", seed=14)
    rng = make_rng(15)
    _, st_short = prefill(params, rng.standard_normal((3, config.model_dim)), config)
    _, st_long = prefill(params, rng.standard_normal((200, config.model_dim)), config)
    assert st_short.position == 3 and st_long.position == 200
    for a, b in zip(st_short.ssm_states, st_long.ssm_states):
        assert a.shape == b.shape
    assert st_short.conv_k_tail.shape == st_long.conv_k_tail.shape


def test_decode_runs_past_the_training_window():
    config, params = variant_setup("full_interdomain", context_len=16, seed=16)
    rng = make_rng(17)
    x = rng.standard_normal((40, config.model_dim))
    with pytest.raises(ValueError, match="context_len"):
        forward(params, x, config)
    _, state = prefill(params, x, config, chunk=8)  # stateful path is uncapped
    assert state.position == 40
    y, state = decode_step(params, state, rng.standard_normal(config.model_dim), config)
    assert np.all(np.isfinite(y)) and state.position == 41


def test_empty_prefill_is_a_no_op():
    config, params = variant_setup("full_interdomain")
    y, state = prefill(params, np.zeros((0, config.model_dim)), config)
    assert y.shape == (0, config.model_dim)
    assert state.position == 0


def test_input_shape_validation():
    config, params = variant_setup("full_interdomain")
    with pytest.raises(ValueError, match="x must be"):
        forward(params, np.zeros((4, config.model_dim + 1)), config)
    empty = np.zeros((0, config.model_dim))
    with pytest.raises(ValueError, match=r"N >= 1, got \(0, 8\)"):
        forward(params, empty, config)
    with pytest.raises(ValueError, match=r"N >= 1, got \(0, 8\)"):
        forward_trace(params, empty, config)
    with pytest.raises(ValueError, match=r"N >= 1, got \(0, 8\)"):
        backward(params, empty, empty, config)
    state = init_decode_state(config)
    with pytest.raises(ValueError, match="token must be"):
        decode_step(params, state, np.zeros(config.model_dim + 1), config)
    with pytest.raises(ValueError, match="chunk"):
        prefill(params, np.zeros((4, config.model_dim)), config, chunk=0)
    with pytest.raises(ValueError, match=r"N >= 0, got \(0, 13\)"):
        prefill(params, np.zeros((0, config.model_dim + 5)), config)
    with pytest.raises(ValueError, match=r"N >= 0, got \(8,\)"):
        prefill(params, np.zeros(config.model_dim), config)


def test_non_finite_input_is_rejected():
    # a NaN or inf fails loudly, naming the argument, instead of turning
    # the outputs or the gradients NaN
    config, params = variant_setup("full_interdomain")
    x = make_rng(44).standard_normal((6, config.model_dim))
    bad = x.copy()
    bad[2, 1] = np.nan
    for call in (forward, forward_trace):
        with pytest.raises(ValueError, match="x must be finite"):
            call(params, bad, config)
    with pytest.raises(ValueError, match="x must be finite"):
        prefill(params, bad, config, chunk=4)
    with pytest.raises(ValueError, match="x must be finite"):
        backward(params, bad, x, config)
    with pytest.raises(ValueError, match="upstream must be finite"):
        backward(params, x, bad, config)
    _, state = prefill(params, x, config)
    with pytest.raises(ValueError, match="token must be finite"):
        decode_step(params, state, bad[2], config)
    for name in ("ssm_states", "conv_q_tail", "conv_k_tail"):
        value = getattr(state, name).copy()
        value.flat[1] = np.inf
        broken = dataclasses.replace(state, **{name: value})
        with pytest.raises(ValueError, match=f"state.{name} must be finite"):
            decode_step(params, broken, x[0], config)
        with pytest.raises(ValueError, match=f"state.{name} must be finite"):
            prefill(params, x, config, state=broken)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n_kv", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_ssm_state_is_found_from_the_decode_output(variant, n_kv, shape,
                                                               monkeypatch):
    # decode_step does not scan the SSM states up front: a NaN or an inf in
    # either part of any entry reaches every output, and the step then names
    # the field, with no RuntimeWarning on the way.  prefill still checks the
    # state before it runs a stream
    config, params = variant_setup(variant, seed=70, n_kv=n_kv, **SHAPES[shape])
    x = make_rng(71).standard_normal((5, config.model_dim))
    _, state = prefill(params, x[:4], config)
    streams_run = Counter()
    real_run_streams = layer_module._run_streams

    def counting_run_streams(*args):
        streams_run["calls"] += 1
        return real_run_streams(*args)

    monkeypatch.setattr(layer_module, "_run_streams", counting_run_streams)
    for index in np.ndindex(state.ssm_states.shape):
        for part in ("real", "imag"):
            for bad in (np.nan, np.inf, -np.inf):
                broken = state.ssm_states.copy()
                getattr(broken, part)[index] = bad
                broken_state = dataclasses.replace(state, ssm_states=broken)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="state.ssm_states must be finite"):
                        decode_step(params, broken_state, x[4], config)
                    before = streams_run["calls"]
                    with pytest.raises(ValueError, match="state.ssm_states must be finite"):
                        prefill(params, x[4:], config, state=broken_state)
                    assert streams_run["calls"] == before, (index, part, bad)


@pytest.mark.parametrize("variant", VARIANTS)
def test_decode_overflow_from_a_finite_state_is_named(variant):
    # a finite state whose readout overflows fails with a named error, not
    # with a RuntimeWarning and an infinite output
    config, params = variant_setup(variant, seed=72)
    state = init_decode_state(config)
    state.ssm_states[...] = 1e308 + 1e308j
    token = make_rng(73).standard_normal(config.model_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^output must be finite"):
            decode_step(params, state, token, config)


@pytest.mark.parametrize("scale", [1e103, 1e160, 1e300])
@pytest.mark.parametrize("variant", VARIANTS)
def test_huge_finite_inputs_give_the_scale_invariant_result(variant, scale):
    # every variant is invariant to the scale of its input, as its
    # streams end in norms: huge finite inputs match s = 1e100, where
    # no norm overflows.  Each stage's squared norms overflow from about
    # 1.3e154 and the RMS norm's backward from about 1e102, so these take
    # the rescaled rows; the pyproject turns any RuntimeWarning into an error
    config = dataclasses.replace(
        load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json"),
        variant=variant)
    rng = make_rng(76)
    params = randomize_norms(init_layer_params(config, rng, contraction_scale=0.5), rng)
    x = rng.standard_normal((20, config.model_dim))
    up = rng.standard_normal((20, config.model_dim))

    def run(s):
        prefix, state = prefill(params, x[:13] * s, config)
        decoded = [prefix]
        for token in x[13:] * s:
            y, state = decode_step(params, state, token, config)
            decoded.append(y[None])
        grads, grad_x = backward(params, x * s, up, config)
        return forward(params, x * s, config), np.concatenate(decoded), grads, grad_x * s

    want_y, want_decoded, want_grads, want_grad_x = run(1e100)
    y, decoded, grads, grad_x = run(scale)
    assert rel_err(y, want_y) < 1e-12
    assert rel_err(decoded, want_decoded) < 1e-12
    assert rel_err(grad_x, want_grad_x) < 1e-12
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert rel_err(grad, want_grads[name]) < 1e-12, name


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_outputs_that_overflow_from_a_finite_input_are_named(variant, shape):
    # entries of +-1.7e308 pass the input check, then overflow the input
    # projections: forward and prefill name their output and backward its
    # input gradient, instead of returning NaN or inf.  The overflow's
    # RuntimeWarnings, errors under the pyproject, are ignored here
    config = dataclasses.replace(
        load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json"),
        variant=variant, **SHAPES[shape])
    rng = make_rng(77)
    params = init_layer_params(config, rng, contraction_scale=0.5)
    x = 1.7e308 * np.sign(rng.standard_normal((12, config.model_dim)))
    up = rng.standard_normal((12, config.model_dim))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="^output must be finite"):
            forward(params, x, config)
        with pytest.raises(ValueError, match="^output must be finite"):
            prefill(params, x, config)
        with pytest.raises(ValueError, match="^grad_x must be finite"):
            backward(params, x, up, config)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_decode_step_leaves_the_passed_in_state_unchanged(variant, shape):
    config, params = variant_setup(variant, seed=74, **SHAPES[shape])
    x = make_rng(75).standard_normal((6, config.model_dim))
    _, state = prefill(params, x[:3], config)
    for token in x[3:]:
        kept = {name: value.copy() for name, value in vars(state).items()
                if isinstance(value, np.ndarray)}
        position = state.position
        _, new_state = decode_step(params, state, token, config)
        assert state.position == position and new_state.position == position + 1
        for name, value in kept.items():
            assert np.array_equal(getattr(state, name), value), name
            assert not np.shares_memory(getattr(new_state, name), getattr(state, name)), name
        state = new_state


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_fortran_ordered_decode_state_runs_like_a_c_ordered_one(variant, backend):
    # the new state is made C-ordered whatever the order of the passed-in
    # one; a Fortran-ordered state used to fail naming run_scan's ``out``,
    # and a prefill from one on fft with numpy's float-view error
    config, params = variant_setup(variant, seed=80, backend=backend)
    x = make_rng(81).standard_normal((5, config.model_dim))
    _, state = prefill(params, x[:3], config)
    fortran = dataclasses.replace(state, **{
        name: np.asfortranarray(value) for name, value in vars(state).items()
        if isinstance(value, np.ndarray)})
    assert not fortran.ssm_states.flags.c_contiguous
    for step in (lambda st: prefill(params, x[3:], config, state=st),
                 lambda st: decode_step(params, st, x[3], config)):
        (y_c, state_c), (y_f, state_f) = step(state), step(fortran)
        assert np.array_equal(y_f, y_c)
        for name, value in vars(state_c).items():
            assert np.array_equal(getattr(state_f, name), value), name


def _one_column_short(params, field):
    """``params`` with ``field``, a dense tensor, the norms' gain or bias or
    the rff frequencies, one entry short on its last axis (on the frequency
    axis for the rff map)."""
    if field == "feature_map.omega":
        omega = params.feature_map.omega[:, :-1]
        return dataclasses.replace(params, feature_map=dataclasses.replace(params.feature_map,
                                                                           omega=omega))
    if "." in field:
        norm, part = field.split(".")
        short = {part: getattr(getattr(params, norm), part)[..., :-1]}
        return dataclasses.replace(params, **{norm: dataclasses.replace(getattr(params, norm),
                                                                        **short)})
    return dataclasses.replace(params, **{field: getattr(params, field)[..., :-1]})


_SHORT_FIELDS = {  # field: (config overrides, feature kind) of a layer that has it
    "w_q": ({}, "silu_l2"), "w_k": ({}, "silu_l2"), "w_v": ({}, "silu_l2"),
    "w_o": ({}, "silu_l2"),
    "conv_q": ({}, "silu_l2"), "conv_k": ({}, "silu_l2"),
    "conv_v": ({"variant": "single_input_qproj"}, "silu_l2"),
    "k_norm.gain": ({}, "silu_l2"), "k_norm.bias": ({}, "silu_l2"),
    "v_norm.gain": ({}, "silu_l2"), "v_norm.bias": ({}, "silu_l2"),
    "feature_map.omega": ({}, "rff"),
    "contraction": ({"variant": "dual_kv_linear"}, "silu_l2"),
}


@pytest.mark.parametrize("field", list(_SHORT_FIELDS))
def test_param_of_another_shape_is_rejected(field):
    # without the check a w_o one column short returns an (N, 7) output, a
    # short conv_k raises a bare IndexError, and the others fail deep inside
    # with numpy's broadcast or reshape errors
    overrides, feature_kind = _SHORT_FIELDS[field]
    config = tiny_config(**overrides)
    params = _one_column_short(
        init_layer_params(config, make_rng(76), feature_kind=feature_kind,
                          contraction_scale=0.5), field)
    x = make_rng(77).standard_normal((4, config.model_dim))
    match = rf"params\.{field} must be"
    with pytest.raises(ValueError, match=match):
        forward(params, x, config)
    with pytest.raises(ValueError, match=match):
        prefill(params, x, config)
    with pytest.raises(ValueError, match=match):
        decode_step(params, init_decode_state(config), x[0], config)
    with pytest.raises(ValueError, match=match):
        backward(params, x, x, config)


def test_width_preserving_feature_map_needs_equal_widths():
    # an rff layer's parameters under a silu_l2 map would feed head_dim-wide
    # features into a feature_dim-wide norm
    config = tiny_config(feature_dim=6)
    params = init_layer_params(config, make_rng(78), feature_kind="rff")
    params.feature_map = dataclasses.replace(params.feature_map, kind="silu_l2", omega=None)
    with pytest.raises(ValueError, match=r"params\.feature_map\.kind 'silu_l2' preserves width"):
        forward(params, make_rng(79).standard_normal((4, config.model_dim)), config)


@pytest.mark.parametrize("field", ["w_k", "w_o", "k_norm.gain"])
def test_complex_param_where_the_layout_says_real_is_rejected(field):
    # a complex w_k ran on its real part with only a ComplexWarning, and a
    # complex w_o failed with a bare UFuncTypeError
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json")
    params = init_layer_params(config, make_rng(90))
    if "." in field:
        norm, part = field.split(".")
        bad = dataclasses.replace(getattr(params, norm),
                                  **{part: getattr(getattr(params, norm), part) + 0.5j})
    else:
        bad = getattr(params, field) + 0.5j
    params = dataclasses.replace(params, **{field.split(".")[0]: bad})
    x = make_rng(91).standard_normal((4, config.model_dim))
    match = rf"params\.{field} must be real for this config, got dtype complex128"
    with pytest.raises(ValueError, match=match):
        forward(params, x, config)
    with pytest.raises(ValueError, match=match):
        decode_step(params, init_decode_state(config), x[0], config)
    with pytest.raises(ValueError, match=match):
        backward(params, x, x, config)


def test_real_ssm_field_where_the_layout_says_complex_is_cast():
    # every way of making the SSM casts c_out to complex, so a real one
    # cannot reach the layer's complex check
    _, params = variant_setup("full_interdomain")
    real = params.ssm.c_out.real.copy()
    ssm = dataclasses.replace(params.ssm, c_out=real)
    assert ssm.c_out.dtype == complex and np.array_equal(ssm.c_out, real)


def test_complex_rff_frequencies_are_rejected(tmp_path):
    # an archive with a complex fmap.omega loaded, and forward ran on its
    # real part bit for bit with only a ComplexWarning; the map now rejects
    # its frequencies when the archive loads
    config, params = variant_setup("full_interdomain", seed=95, feature_kind="rff")
    path = tmp_path / "layer.npz"
    save_layer_params(params, path)
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    arrays["fmap.omega"] = arrays["fmap.omega"] + 0.5j
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="omega must be real, got complex128"):
        load_layer_params(path)


@pytest.mark.parametrize("kind", ["silu_l2", "identity"])
def test_frequencies_on_a_map_without_them_are_rejected(tmp_path, kind):
    # a silu_l2 archive with an added fmap.omega loaded, forward ignored
    # the frequencies and save_layer_params wrote them back; neither the
    # archive nor a replaced map can now carry them
    config, params = variant_setup("full_interdomain", seed=97, feature_kind=kind)
    omega = make_rng(98).standard_normal((config.n_kv, config.feature_dim // 2, config.head_dim))
    path = tmp_path / "layer.npz"
    save_layer_params(params, path)
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    np.savez(path, **arrays, **{"fmap.omega": omega})
    match = rf"a '{kind}' feature map has no frequencies"
    with pytest.raises(ValueError, match=match):
        load_layer_params(path)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(params.feature_map, omega=omega)


def test_float32_and_integer_params_still_run():
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json")
    params = init_layer_params(config, make_rng(93))
    x = make_rng(94).standard_normal((4, config.model_dim))
    want = forward(params, x, config)
    params.w_q = params.w_q.astype(np.float32)
    params.k_norm = dataclasses.replace(params.k_norm, bias=params.k_norm.bias.astype(int))
    got = forward(params, x, config)
    assert got.dtype == np.float64
    assert rel_err(got, want) < 1e-6


def _every_entry_raises(params, config, match):
    x = make_rng(92).standard_normal((4, config.model_dim))
    with pytest.raises(ValueError, match=match):
        forward(params, x, config)
    with pytest.raises(ValueError, match=match):
        prefill(params, x, config)
    with pytest.raises(ValueError, match=match):
        decode_step(params, init_decode_state(config), x[0], config)
    with pytest.raises(ValueError, match=match):
        backward(params, x, x, config)


@pytest.mark.parametrize("bad", [None, "s", {"w_q": None}])
def test_params_that_are_not_layer_params_are_rejected(bad):
    # forward(None, ...) raised a bare AttributeError on w_q
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json")
    _every_entry_raises(bad, config, "params must be a LayerParams, got "
                                     + type(bad).__name__)


@pytest.mark.parametrize("field,record", [("k_norm", "NormBias"), ("v_norm", "NormBias"),
                                          ("ssm", "DiagonalSSM"),
                                          ("feature_map", "FeatureMap")])
def test_a_record_slot_that_does_not_hold_its_record_is_rejected(field, record):
    # None raised a bare AttributeError on gain, delta or kind
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json")
    params = init_layer_params(config, make_rng(95))
    setattr(params, field, None)
    _every_entry_raises(params, config, rf"params\.{field} must be a {record}, got NoneType")


@pytest.mark.parametrize("field", ["w_o", "w_k", "k_norm.gain"])
@pytest.mark.parametrize("dtype", [object, str])
def test_a_real_slot_of_a_dtype_that_is_not_numeric_is_rejected(field, dtype):
    # an object-dtype w_o got through the dtype check and failed with a
    # bare UFuncTypeError
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json")
    params = init_layer_params(config, make_rng(96))
    if "." in field:
        norm, part = field.split(".")
        bad = getattr(getattr(params, norm), part).astype(dtype)
        setattr(params, norm, dataclasses.replace(getattr(params, norm), **{part: bad}))
    else:
        bad = getattr(params, field).astype(dtype)
        setattr(params, field, bad)
    _every_entry_raises(params, config,
                        rf"params\.{field} must be bool, integer or float, got dtype "
                        + re.escape(str(bad.dtype)))


@pytest.mark.parametrize("entry", ["forward", "prefill", "decode_step", "backward"])
def test_complex_input_is_rejected(entry):
    # a complex input must not be cut to its real part
    config, params = variant_setup("full_interdomain")
    x = make_rng(45).standard_normal((4, config.model_dim))
    bad = x + 1j
    if entry == "forward":
        with pytest.raises(ValueError, match="x must be real"):
            forward(params, bad, config)
    elif entry == "prefill":
        with pytest.raises(ValueError, match="x must be real"):
            prefill(params, bad, config, chunk=2)
    elif entry == "decode_step":
        with pytest.raises(ValueError, match="token must be real"):
            decode_step(params, init_decode_state(config), bad[0], config)
    else:
        with pytest.raises(ValueError, match="x must be real"):
            backward(params, bad, x, config)
        with pytest.raises(ValueError, match="upstream must be real"):
            backward(params, x, bad, config)


def test_decode_state_from_another_variant_is_rejected():
    config, params = variant_setup("full_interdomain")
    s4d_config, s4d_params = variant_setup("s4d_only")
    x = make_rng(41).standard_normal((4, config.model_dim))
    _, state = prefill(s4d_params, x, s4d_config)
    with pytest.raises(ValueError, match="conv_q_tail"):
        decode_step(params, state, x[0], config)


def test_decode_state_with_an_extra_group_is_rejected():
    config, params = variant_setup("full_interdomain")
    state = init_decode_state(config)
    extra = np.zeros((1, config.feature_dim + config.head_dim, config.state_dim), dtype=complex)
    state.ssm_states = np.concatenate([state.ssm_states, extra])
    x = make_rng(42).standard_normal((4, config.model_dim))
    with pytest.raises(ValueError, match="ssm_states"):
        prefill(params, x, config, state=state)
    with pytest.raises(ValueError, match="ssm_states"):
        decode_step(params, state, x[0], config)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_state_array_field_is_checked(variant):
    # every array field of LayerState is held to state_layout: one of another
    # shape, or one present where the config has no such array, is named
    config, params = variant_setup(variant)
    fresh = init_decode_state(config)
    x = make_rng(45).standard_normal(config.model_dim)
    names = [f.name for f in dataclasses.fields(layer_module.LayerState) if f.name != "position"]
    for name in names:
        value = getattr(fresh, name)
        bad = np.zeros((1, 1)) if value is None else value[..., :-1]
        broken = dataclasses.replace(fresh, **{name: bad})
        with pytest.raises(ValueError, match=rf"state\.{name} must be \(shape, dtype\)"):
            decode_step(params, broken, x, config)


def test_decode_state_with_a_negative_position_is_rejected():
    config, params = variant_setup("full_interdomain")
    state = init_decode_state(config)
    state.position = -3
    x = make_rng(43).standard_normal((4, config.model_dim))
    with pytest.raises(ValueError, match="position"):
        prefill(params, x, config, state=state)
    with pytest.raises(ValueError, match="position"):
        decode_step(params, state, x[0], config)


def test_decode_state_with_a_bool_position_is_rejected():
    # a bool is an int to isinstance, so True would read as position 1
    config, params = variant_setup("full_interdomain")
    state = init_decode_state(config)
    state.position = True
    x = make_rng(46).standard_normal((4, config.model_dim))
    with pytest.raises(ValueError, match="position"):
        prefill(params, x, config, state=state)
    with pytest.raises(ValueError, match="position"):
        decode_step(params, state, x[0], config)


@pytest.mark.parametrize("bad", [None, "s", {"position": 0}])
def test_a_state_that_is_not_a_layer_state_is_rejected(bad):
    # named, not an AttributeError from deep inside
    config, params = variant_setup("full_interdomain")
    x = make_rng(47).standard_normal((4, config.model_dim))
    with pytest.raises(ValueError, match="state must be a LayerState"):
        decode_step(params, bad, x[0], config)
    if bad is not None:  # None asks prefill for a fresh state
        with pytest.raises(ValueError, match="state must be a LayerState"):
            prefill(params, x, config, state=bad)


def test_prefill_chunk_must_be_an_integer():
    # True would run one-token blocks and 2.5 fail inside range; a numpy
    # integer is a chunk like any other
    config, params = variant_setup("full_interdomain")
    x = make_rng(46).standard_normal((6, config.model_dim))
    for bad in (True, False, 2.5, 2.0, "2", [2]):
        with pytest.raises(ValueError, match="chunk must be an integer"):
            prefill(params, x, config, chunk=bad)
    want, _ = prefill(params, x, config, chunk=4)
    got, _ = prefill(params, x, config, chunk=np.int64(4))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("made_for, config_overrides, slot", [
    ({"variant": "single_input_qproj"}, {"variant": "full_interdomain"}, "conv_v"),
    ({"variant": "s4d_only"}, {"variant": "dual_kv_linear"}, "conv_v"),
])
def test_params_made_for_another_config_are_rejected(made_for, config_overrides, slot):
    # without the check each pair runs and silently ignores the extra slot
    params = init_layer_params(tiny_config(**made_for), make_rng(49), contraction_scale=0.5)
    config = tiny_config(**config_overrides)
    x = make_rng(50).standard_normal((4, config.model_dim))
    match = rf"params\.{slot} is present"
    with pytest.raises(ValueError, match=match):
        forward(params, x, config)
    with pytest.raises(ValueError, match=match):
        forward_trace(params, x, config)
    with pytest.raises(ValueError, match=match):
        prefill(params, x, config)
    with pytest.raises(ValueError, match=match):
        decode_step(params, init_decode_state(config), x[0], config)
    with pytest.raises(ValueError, match=match):
        backward(params, x, x, config)


@pytest.mark.parametrize("overrides, slot", [
    ({}, "w_k"),
    ({}, "conv_q"),
    ({"variant": "single_input_qproj"}, "conv_v"),
    ({"variant": "dual_kv_linear"}, "contraction"),
])
def test_params_missing_a_slot_the_config_needs_are_rejected(overrides, slot):
    # every slot _param_shapes lists must be there: a missing w_k would
    # otherwise fail deep inside with numpy's matmul error
    config = tiny_config(**overrides)
    params = dataclasses.replace(
        init_layer_params(config, make_rng(49), contraction_scale=0.5), **{slot: None})
    x = make_rng(50).standard_normal((4, config.model_dim))
    match = rf"params\.{slot} is missing, but the config .* needs it"
    with pytest.raises(ValueError, match=match):
        forward(params, x, config)
    with pytest.raises(ValueError, match=match):
        forward_trace(params, x, config)
    with pytest.raises(ValueError, match=match):
        prefill(params, x, config)
    with pytest.raises(ValueError, match=match):
        decode_step(params, init_decode_state(config), x[0], config)
    with pytest.raises(ValueError, match=match):
        backward(params, x, x, config)


@pytest.mark.parametrize("field", ["delta", "a", "b", "c_out"])
def test_ssm_made_for_another_config_is_rejected(field):
    # a third group runs on two of them without the check; an a, b or c_out
    # with a third group under a delta with two cannot be made at all
    config, params = variant_setup("full_interdomain", seed=51)
    ssm = params.ssm
    if field in ("a", "b", "c_out"):
        value = getattr(ssm, field)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            dataclasses.replace(ssm, **{field: np.concatenate([value, value[:1]])})
        return
    params.ssm = stack_ssms([ssm[0], ssm[1], ssm[0]])
    x = make_rng(52).standard_normal((4, config.model_dim))
    match = rf"params\.ssm\.{field} must be"
    with pytest.raises(ValueError, match=match):
        forward(params, x, config)
    with pytest.raises(ValueError, match=match):
        forward_trace(params, x, config)
    with pytest.raises(ValueError, match=match):
        prefill(params, x, config)
    with pytest.raises(ValueError, match=match):
        decode_step(params, init_decode_state(config), x[0], config)
    with pytest.raises(ValueError, match=match):
        backward(params, x, x, config)


def test_replacing_the_step_sizes_moves_the_output():
    # replace kept the old poles: forward returned the old output bit for
    # bit, and backward the gradients of a delta the scans never used
    config, params = variant_setup("full_interdomain", seed=56)
    rng = make_rng(57)
    x = rng.standard_normal((6, config.model_dim))
    up = rng.standard_normal((6, config.model_dim))
    old = forward(params, x, config)
    params.ssm = dataclasses.replace(params.ssm, delta=10 * params.ssm.delta)
    got, (got_grads, got_grad_x) = forward(params, x, config), backward(params, x, up, config)
    ssm = params.ssm
    params.ssm = DiagonalSSM(ssm.delta, ssm.a, ssm.b, ssm.c_out)
    grads, grad_x = backward(params, x, up, config)
    assert np.array_equal(got, forward(params, x, config))
    assert np.array_equal(got_grad_x, grad_x) and got_grads.keys() == grads.keys()
    for key, value in grads.items():
        assert np.array_equal(got_grads[key], value), key
    assert not np.allclose(got, old)


def test_ssm_state_size_checked_against_config():
    # an SSM of another state size names the field, not the decode state
    config, params = variant_setup("full_interdomain", seed=53)
    params.ssm = stack_ssms([random_ssm(config.state_dim + 1, make_rng(54))
                             for _ in range(config.n_kv)])
    with pytest.raises(ValueError, match=r"params\.ssm\.delta must be \(2, 4\)"):
        forward(params, make_rng(55).standard_normal((4, config.model_dim)), config)


@pytest.mark.parametrize("variant", VARIANTS)
def test_init_scales_each_tensor_in_place(variant):
    # every tensor is drawn and scaled in one buffer, so making the
    # parameters never holds a second copy of the largest one
    config = tiny_config(variant=variant, heads=8, n_kv=8, model_dim=256, head_dim=32,
                         feature_dim=32, state_dim=16)
    run = traced_peak(lambda: init_layer_params(config, make_rng(82), contraction_scale=0.5))
    largest = max(value.nbytes for value in layer_module._learnable(run.result).values())
    assert run.peak - run.held < largest / 2


def test_feature_width_constraints_enforced():
    with pytest.raises(ValueError, match="preserve width"):
        init_layer_params(tiny_config(feature_dim=6), make_rng(0))
    with pytest.raises(ValueError, match="even"):
        init_layer_params(tiny_config(feature_dim=5), make_rng(0), feature_kind="rff")


def test_unknown_feature_kind_rejected():
    # a misspelled kind must not fall through to the silu_l2 map
    with pytest.raises(ValueError, match=r"'rfff'.*\('rff', 'silu_l2', 'identity'\)"):
        init_layer_params(tiny_config(), make_rng(0), feature_kind="rfff")


# --- gradients ---

def test_zero_upstream_means_zero_grads():
    config, params = variant_setup("full_interdomain", seed=18)
    x = make_rng(19).standard_normal((5, config.model_dim))
    grads, grad_x = backward(params, x, np.zeros((5, config.model_dim)), config)
    assert np.all(grad_x == 0.0)
    for key, g in grads.items():
        assert np.all(g == 0.0), key


def test_upstream_shape_validated():
    config, params = variant_setup("full_interdomain")
    with pytest.raises(ValueError, match="upstream"):
        backward(params, np.zeros((4, config.model_dim)),
                 np.zeros((3, config.model_dim)), config)


def _fd_cases():
    # the tiny config's own layout (n_kv == heads, silu_l2) keeps the bare variant id
    for variant in VARIANTS:
        for n_kv in (1, 2):
            for kind in ("silu_l2", "rff"):
                default = (n_kv, kind) == (2, "silu_l2")
                yield pytest.param(variant, n_kv, kind,
                                   id=variant if default else f"{variant}-n_kv{n_kv}-{kind}")


@pytest.mark.parametrize("variant,n_kv,feature_kind", _fd_cases())
def test_backward_matches_finite_differences(variant, n_kv, feature_kind):
    config, params = variant_setup(variant, seed=20, feature_kind=feature_kind,
                                   state_dim=3, n_kv=n_kv)
    randomize_norms(params, make_rng(21))
    rng = make_rng(22)
    x = rng.standard_normal((5, config.model_dim))
    up = rng.standard_normal((5, config.model_dim))

    def loss():
        return float(np.sum(up * forward(params, x, config)))

    grads, grad_x = backward(params, x, up, config)

    assert rel_err(grad_x, central_diff(loss, x)) < 1e-5
    assert rel_err(grads["w_o"], central_diff(loss, params.w_o)) < 1e-5
    assert rel_err(grads["conv_k"], central_diff(loss, params.conv_k)) < 1e-5
    assert rel_err(grads["k_norm.gain"], central_diff(loss, params.k_norm.gain)) < 1e-5
    assert rel_err(grads["v_norm.bias"], central_diff(loss, params.v_norm.bias)) < 1e-5
    if variant in QUERY_VARIANTS:
        assert rel_err(grads["w_q"], central_diff(loss, params.w_q)) < 1e-5
    else:
        assert rel_err(grads["contraction"],
                       central_diff(loss, params.contraction)) < 1e-5

    base = params.ssm
    for field in ("b", "c_out"):
        fd = central_diff_complex(
            loss,
            lambda: getattr(params.ssm, field),
            lambda v: setattr(params, "ssm", dataclasses.replace(base, **{field: v})),
        )
        assert rel_err(grads[f"ssm.{field}"], fd) < 1e-4, field
    params.ssm = base


def test_transition_gradients_in_training_parameterization():
    config, params = variant_setup("full_interdomain", seed=23, state_dim=3)
    rng = make_rng(24)
    x = rng.standard_normal((4, config.model_dim))
    up = rng.standard_normal((4, config.model_dim))
    base = params.ssm
    p = np.log(-base.a.real)
    q = base.a.imag.copy()
    delta = base.delta.copy()

    def loss():
        params.ssm = dataclasses.replace(base, a=-np.exp(p) + 1j * q, delta=delta)
        return float(np.sum(up * forward(params, x, config)))

    grads, _ = backward(params, x, up, config)
    assert rel_err(grads["ssm.a_log_neg_re"], central_diff(loss, p)) < 1e-4
    assert rel_err(grads["ssm.a_im"], central_diff(loss, q)) < 1e-4
    assert rel_err(grads["ssm.delta"], central_diff(loss, delta, h=1e-7)) < 1e-4
    params.ssm = base


# --- serialization and counting ---

@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("feature_kind", ["silu_l2", "rff"])
def test_save_load_round_trip(tmp_path, variant, feature_kind):
    config, params = variant_setup(variant, seed=25, feature_kind=feature_kind)
    path = tmp_path / "layer.npz"
    save_layer_params(params, path)
    loaded = load_layer_params(path)
    x = make_rng(26).standard_normal((5, config.model_dim))
    assert np.array_equal(forward(params, x, config), forward(loaded, x, config))
    assert count_layer_params(loaded) == count_layer_params(params)
    a, b = params.feature_map, loaded.feature_map
    assert a.kind == b.kind
    if feature_kind == "rff":
        assert np.array_equal(a.omega, b.omega)


def test_save_load_round_trip_through_a_path_without_a_suffix(tmp_path):
    # np.savez added .npz to the path, so the archive could not be loaded
    # from the path it was saved to
    config, params = variant_setup("full_interdomain", seed=27, feature_kind="rff")
    path = tmp_path / "layer"
    save_layer_params(params, path)
    assert [p.name for p in tmp_path.iterdir()] == ["layer"]
    x = make_rng(26).standard_normal((5, config.model_dim))
    assert np.array_equal(forward(load_layer_params(path), x, config), forward(params, x, config))


@pytest.mark.parametrize("key", ["w_k", "ssm.delta", "ssm.c_out", "fmap.omega"])
def test_load_rejects_a_non_finite_tensor(tmp_path, key):
    _, params = variant_setup("full_interdomain", seed=28, feature_kind="rff")
    path = tmp_path / "layer.npz"
    save_layer_params(params, path)
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    arrays[key] = arrays[key].copy()
    arrays[key].flat[0] = np.nan
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=f"'{key}' must be finite"):
        load_layer_params(path)


_REQUIRED_ARCHIVE_KEYS = ["w_k", "w_v", "w_o", "conv_k", "k_norm.gain", "k_norm.bias",
                          "v_norm.gain", "v_norm.bias", "ssm.delta", "ssm.a", "ssm.b",
                          "ssm.c_out", "fmap.kind"]


@pytest.mark.parametrize("key", _REQUIRED_ARCHIVE_KEYS)
def test_load_names_missing_and_unknown_archive_entries(tmp_path, key):
    _, params = variant_setup("full_interdomain", seed=29)
    path = tmp_path / "layer.npz"
    save_layer_params(params, path)
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files if k != key}
    arrays["w_G"] = np.zeros(2)
    np.savez(path, **arrays)
    want = f"parameter archive {path}: missing entries ['{key}'], unknown entries ['w_G']"
    with pytest.raises(ValueError, match=re.escape(want)):
        load_layer_params(path)


def test_archive_of_a_gated_layer_is_refused(tmp_path):
    # the layer has no output gate: an archive carrying one would otherwise
    # load and run ungated, silently dropping w_g
    _, params = variant_setup("full_interdomain", seed=29)
    path = tmp_path / "layer.npz"
    save_layer_params(params, path)
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    np.savez(path, **arrays, w_g=np.zeros_like(params.w_o))
    with pytest.raises(ValueError, match=re.escape("unknown entries ['w_g']")):
        load_layer_params(path)


@pytest.mark.parametrize("width", [np.array(8), np.array(8.7)])
def test_archive_with_an_input_width_loads_and_it_is_not_read(tmp_path, width):
    # archives written while the SSM record carried its input width hold
    # ssm.input_width (an integer, 8 here); it loads, whatever it holds,
    # to the parameters it was saved from, and no archive written now has it
    config, params = variant_setup("full_interdomain", seed=30)
    fresh, old, again = (tmp_path / f"{name}.npz" for name in ("fresh", "old", "again"))
    save_layer_params(params, fresh)
    with np.load(fresh) as blob:
        arrays = {k: blob[k] for k in blob.files}
    assert "ssm.input_width" not in arrays
    np.savez(old, **arrays, **{"ssm.input_width": width})
    loaded = load_layer_params(old)
    save_layer_params(loaded, again)
    with np.load(again) as blob:
        assert blob.files == list(arrays)
        for key, value in arrays.items():
            assert np.array_equal(blob[key], value), key
    x = make_rng(31).standard_normal((5, config.model_dim))
    assert np.array_equal(forward(loaded, x, config), forward(params, x, config))


@pytest.mark.parametrize("overrides,feature_kind", [
    ({}, "silu_l2"),
    ({"n_kv": 1}, "silu_l2"),
    ({"variant": "s4d_only"}, "silu_l2"),
    ({"variant": "dual_kv_linear", "n_kv": 1}, "silu_l2"),
    ({"heads": 4, "model_dim": 16, "feature_dim": 8, "state_dim": 6, "n_kv": 4}, "rff"),
    *(({"variant": variant, **SHAPES["distinct"]}, "silu_l2") for variant in VARIANTS),
])
def test_parameter_count_matches_closed_form(overrides, feature_kind):
    config = tiny_config(**overrides)
    params = init_layer_params(config, make_rng(27), feature_kind=feature_kind,
                               contraction_scale=0.5)
    assert count_layer_params(params) == mixer_params_per_layer(config)


# --- what the traced benchmark relies on ---

def _tracer_rebinds() -> tuple[str, ...]:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses resolve through sys.modules
    spec.loader.exec_module(tracing)
    return (*tracing.ENTRY_POINTS, *tracing.CALLEES)


def test_tracer_rebinds_layer_attributes():
    for name in _tracer_rebinds():
        assert callable(getattr(layer_module, name, None)), name


@pytest.mark.parametrize("n_kv", [1, 2])
def test_one_scan_and_one_ssm_backward_per_group(monkeypatch, n_kv):
    """The traced benchmark counts ``run_scan`` calls per decode step against
    ``n_kv``; wrap the names in the layer namespace the way it does.  A
    forward, on every backend, and a decode step make one ``run_scan`` per
    group and nothing else, the query variants passing their query features
    so the scan returns the heads' outputs.  The backward makes one SSM
    adjoint call per group and no scan: each adjoint returns the outputs it
    forms, the query readout's the head outputs and
    ``backward_checkpointed`` the group's scan outputs.

    Over several ``prefill_chunk`` blocks the calls are per block: each
    group's scans, and each group's adjoints, cover every position exactly
    once, and the backward still makes no ``run_scan``."""
    counts = Counter()
    scans = []  # (backend, whether f_q was passed) per run_scan call
    inputs = []  # (name, ssm, z, x0) per call

    def counting(name):
        fn = getattr(layer_module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "run_scan":
                scans.append((args[2], kwargs.get("f_q") is not None))
            inputs.append((name, args[0], args[1].copy(), kwargs.get("x0")))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("run_scan", "backward_checkpointed", "query_readout_backward"):
        monkeypatch.setattr(layer_module, name, counting(name))
    for variant in ("full_interdomain", "s4d_only"):
        config, params = variant_setup(variant, n_kv=n_kv)
        has_q = variant in QUERY_VARIANTS
        rng = make_rng(44)
        x = rng.standard_normal((4, config.model_dim))
        for backend in BACKENDS:
            counts.clear()
            scans.clear()
            forward(params, x, dataclasses.replace(config, backend=backend))
            assert counts == {"run_scan": n_kv}, backend
            assert scans == [(backend, has_q)] * n_kv
        counts.clear()
        scans.clear()
        decode_step(params, init_decode_state(config), x[0], config)
        assert counts == {"run_scan": n_kv}
        assert scans == [("sequential", has_q)] * n_kv
        counts.clear()
        backward(params, x,rng.standard_normal((4, config.model_dim)), config)
        want = "query_readout_backward" if has_q else "backward_checkpointed"
        assert counts == {want: n_kv}

        # blocks of 4, 4 and 3 tokens
        x = rng.standard_normal((11, config.model_dim))
        z = forward_trace(params, x, config)[1]["z"]
        blocked = dataclasses.replace(config, prefill_chunk=4)

        def per_group(calls):
            """Each group's inputs in call order, by matching its SSM."""
            return [[(zz, x0) for _, ssm, zz, x0 in calls
                     if np.array_equal(ssm.delta, params.ssm.delta[g])] for g in range(n_kv)]

        for backend in BACKENDS:
            counts.clear()
            inputs.clear()
            forward(params, x, dataclasses.replace(blocked, backend=backend))
            assert counts == {"run_scan": 3 * n_kv}, backend
            for g, calls in enumerate(per_group(inputs)):
                assert [len(zz) for zz, _ in calls] == [4, 4, 3], backend
                assert rel_err(np.concatenate([zz for zz, _ in calls]), z[:, g]) < 1e-12
        counts.clear()
        inputs.clear()
        backward(params, x, rng.standard_normal((11, config.model_dim)), blocked)
        assert counts == {want: 3 * n_kv}  # and no run_scan
        for g, calls in enumerate(per_group(inputs)):
            calls = calls[::-1]  # the adjoint walks the blocks in reverse
            assert [len(zz) for zz, _ in calls] == [4, 4, 3]
            assert [x0 is None for _, x0 in calls] == [True, False, False]
            assert rel_err(np.concatenate([zz for zz, _ in calls]), z[:, g]) < 1e-12


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_token_blocks_scan_sequential_and_each_block_rotates_once(monkeypatch, backend):
    """A one-token block, a prefill's last or a decode step, is one step of
    the recurrence, so it scans ``sequential`` whatever the config names,
    and still matches the forward; every longer block scans on the config's
    backend.  Each block makes its RoPE table once, for the k and q streams
    and the adjoints alike: one per forward or prefill block, per decode
    step and per block of either backward pass."""
    config, params = variant_setup("full_interdomain", backend=backend)
    scans, tables = [], []  # (backend, tokens) per run_scan; positions per table
    run_scan_, rope_rotations_ = layer_module.run_scan, layer_module.rope_rotations

    def scan(*args, **kwargs):
        scans.append((args[2], len(args[1])))
        return run_scan_(*args, **kwargs)

    def rotations(positions, width):
        tables.append(list(positions))
        return rope_rotations_(positions, width)

    monkeypatch.setattr(layer_module, "run_scan", scan)
    monkeypatch.setattr(layer_module, "rope_rotations", rotations)
    n_kv, rng = config.n_kv, make_rng(96)
    x = rng.standard_normal((11, config.model_dim))
    want = forward(params, x, config)  # blocks of 8 and 3
    assert scans == [(backend, 8)] * n_kv + [(backend, 3)] * n_kv
    assert tables == [list(range(8)), list(range(8, 11))]
    scans.clear()
    tables.clear()

    y, state = prefill(params, x[:9], config, chunk=4)  # blocks of 4, 4 and 1
    assert scans == [(backend, 4)] * 2 * n_kv + [("sequential", 1)] * n_kv
    assert rel_err(y, want[:9]) <= 1e-10
    for t in (9, 10):
        y_t, state = decode_step(params, state, x[t], config)
        assert rel_err(y_t, want[t]) <= 1e-10
    assert scans[-2 * n_kv:] == [("sequential", 1)] * 2 * n_kv
    assert tables == [[0, 1, 2, 3], [4, 5, 6, 7], [8], [9], [10]]
    tables.clear()

    backward(params, x, rng.standard_normal(x.shape), config)
    # the first pass's one exit state, then the blocks in reverse
    assert tables == [list(range(8)), list(range(8, 11)), list(range(8))]


@pytest.mark.parametrize("variant", VARIANTS)
def test_first_backward_pass_runs_the_forwards_stages(monkeypatch, variant):
    """With N = 3 L the first pass saves two blocks' exit states from the
    streams run as the forward's blocks run them: every stream's conv, RoPE,
    feature map and norm, once per block, in ``_forward_core``'s order.
    The gradients equal those of a first pass built from ``_forward_core``'s
    states, bit for bit: under ``chunkwise`` ``ssm.final_state`` is the
    scan's final state."""
    config, params = variant_setup(variant, backend="chunkwise")
    chunk = config.prefill_chunk
    rng = make_rng(95)
    x = rng.standard_normal((3 * chunk, config.model_dim))
    up = rng.standard_normal(x.shape)
    calls = []  # (stage, shape of its input) per call, until the reverse pass
    reversing = False

    def recording(name):
        fn = getattr(layer_module, name)

        def wrapper(*args, **kwargs):
            if not reversing:
                arr = args[1] if name == "apply_feature_map" else args[0]
                calls.append((name, arr.shape))
            return fn(*args, **kwargs)
        return wrapper

    backward_block = layer_module._backward_block

    def reverse(*args, **kwargs):
        nonlocal reversing
        reversing = True
        return backward_block(*args, **kwargs)

    with monkeypatch.context() as m:
        for name in ("short_conv_with_tail", "rope_apply", "apply_feature_map", "rmsnorm_bias"):
            m.setattr(layer_module, name, recording(name))
        m.setattr(layer_module, "_backward_block", reverse)
        forward(params, x[:2 * chunk], config)  # two blocks of _forward_core
        want_calls, calls[:] = calls[:], []
        grads, grad_x = backward(params, x, up, config)
    assert calls == want_calls and len(calls) > 0

    def exit_state_from_forward(params, x_seq, config, state):
        return layer_module._forward_core(params, x_seq, config, state)[1]

    with monkeypatch.context() as m:
        m.setattr(layer_module, "_exit_state", exit_state_from_forward)
        want_grads, want_x = backward(params, x, up, config)
    assert np.array_equal(grad_x, want_x)
    assert grads.keys() == want_grads.keys()
    for key in grads:
        assert np.array_equal(grads[key], want_grads[key]), key


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_entry_states_are_prefills_states(monkeypatch, variant):
    """On a 3-block input under ``chunkwise``, every state the backward's
    first pass saves equals ``prefill``'s state at the same block boundary,
    bit for bit, field by field: the reverse pass starts from the forward's
    own states."""
    config, params = variant_setup(variant, backend="chunkwise")
    chunk = config.prefill_chunk
    rng = make_rng(97)
    x = rng.standard_normal((2 * chunk + 5, config.model_dim))
    exits = []
    exit_state = layer_module._exit_state

    def recording(*args):
        exits.append(exit_state(*args))
        return exits[-1]

    monkeypatch.setattr(layer_module, "_exit_state", recording)
    backward(params, x, rng.standard_normal(x.shape), config)
    assert len(exits) == 2
    for blocks, got in enumerate(exits, start=1):
        want = prefill(params, x[:blocks * chunk], config)[1]
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert (a is None and b is None) or np.array_equal(a, b), (blocks, field.name)
