import dataclasses
import importlib.util
import sys
import tracemalloc
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
    validate,
)
from interdomain.features import sigmoid
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
from interdomain.ssm import random_ssm, run_scan, ssm_with, stack_ssms

from helpers import (
    central_diff,
    central_diff_complex,
    contraction_readout_loop,
    query_readout_loop,
    randomize_norms,
    rel_err,
    tiny_config,
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


@pytest.mark.parametrize("variant", VARIANTS)
def test_parameter_layout_per_variant(variant):
    _, params = variant_setup(variant)
    has_q = variant in QUERY_VARIANTS
    generic = variant in GENERIC_INPUT_VARIANTS
    assert (params.w_q is not None) == has_q
    assert (params.conv_q is not None) == has_q
    assert (params.contraction is None) == has_q
    assert (params.conv_v is not None) == generic
    assert params.w_g is None  # gate off in the tiny config


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradient_keys_match_layout(variant):
    config, params = variant_setup(variant)
    rng = make_rng(2)
    x = rng.standard_normal((4, config.model_dim))
    grads, _ = backward(params, x, rng.standard_normal((4, config.model_dim)), config)
    has_q = variant in QUERY_VARIANTS
    generic = variant in GENERIC_INPUT_VARIANTS
    assert ("w_q" in grads) == has_q and ("conv_q" in grads) == has_q
    assert ("contraction" in grads) == (not has_q)
    assert ("conv_v" in grads) == generic
    assert "w_g" not in grads
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


def test_rope_rotates_keys_not_values():
    config, params = variant_setup("full_interdomain")
    off = dataclasses.replace(config, rope_enabled=False)
    x = make_rng(4).standard_normal((6, config.model_dim))
    _, tr_on = forward_trace(params, x, config)
    _, tr_off = forward_trace(params, x, off)
    r = config.feature_dim
    assert np.array_equal(tr_on["z"][:, :, r:], tr_off["z"][:, :, r:])
    assert not np.allclose(tr_on["z"][:, :, :r], tr_off["z"][:, :, :r])
    assert not np.allclose(forward(params, x, config), forward(params, x, off))


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
    if variant in QUERY_VARIANTS:
        # the query variants' traces hold no scan outputs: scan each group
        scan_out = np.stack([run_scan(params.ssm[g], trace["z"][:, g], config.backend).outputs
                             for g in range(n_kv)], axis=1)
        want = query_readout_loop(trace["f_q"], scan_out, n_kv)
    else:
        want = contraction_readout_loop(trace["scan_out"], params.contraction, n_kv)
    assert rel_err(trace["o_cat"], want) < 1e-12
    # every backend, and the chunkwise one from one step per chunk through a
    # ragged chunk to one chunk past N
    cases = [(backend, config.chunk_size) for backend in BACKENDS]
    cases += [("chunkwise", chunk) for chunk in (1, 3, n, n + 5)]
    for backend, chunk in cases:
        other = dataclasses.replace(config, backend=backend, chunk_size=chunk)
        _, got = forward_trace(params, x, other)
        assert ("scan_out" in got) == (variant not in QUERY_VARIANTS), backend
        assert rel_err(got["o_cat"], want) < 1e-12, (backend, chunk)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", QUERY_VARIANTS)
def test_query_forward_never_holds_every_groups_scan_outputs(variant, backend):
    # each group's heads are read out as soon as its scan returns, so the
    # forward holds at most one group's (N, M, W) outputs, never the
    # (N, n_kv, M, W) outputs of every group; measured on the second of two
    # identical calls, after any first-call allocation
    width = 8
    config = validate(dataclasses.replace(
        load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json"),
        variant=variant, backend=backend,
        heads=width, n_kv=width, head_dim=width, feature_dim=width, state_dim=width,
        model_dim=width * width, context_len=512))
    params = init_layer_params(config, make_rng(47))
    x = make_rng(48).standard_normal((512, config.model_dim))
    forward(params, x, config)
    tracemalloc.start()
    try:
        forward(params, x, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    every_group = 512 * width * width * 2 * width * 8   # float (N, n_kv, M, W) bytes
    assert peak < 1.75 * every_group


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v not in QUERY_VARIANTS])
def test_no_query_backward_never_holds_every_groups_scan_outputs(variant):
    # each group's upstream, scan outputs and contraction slices are made
    # and used one group at a time, the outputs in one reused buffer, so
    # the backward never holds the (N, n_kv, M, W) outputs or upstream of
    # every group; measured on the second of two identical calls
    width = 8
    config = validate(dataclasses.replace(
        load_config(Path(__file__).resolve().parents[1] / "configs" / "tiny.json"),
        variant=variant, heads=width, n_kv=width, head_dim=width, feature_dim=width,
        state_dim=width, model_dim=width * width, context_len=512))
    params = init_layer_params(config, make_rng(47), contraction_scale=0.1)
    rng = make_rng(48)
    x = rng.standard_normal((512, config.model_dim))
    up = rng.standard_normal((512, config.model_dim))
    backward(params, x, up, config)
    tracemalloc.start()
    try:
        backward(params, x, up, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    every_group = 512 * width * width * 2 * width * 8   # float (N, n_kv, M, W) bytes
    assert peak < 2 * every_group


# --- gating ---

def test_zero_gate_silences_everything():
    config, params = variant_setup("full_interdomain", output_gate_enabled=True)
    params.w_g = np.zeros_like(params.w_g)
    x = make_rng(7).standard_normal((5, config.model_dim))
    assert np.all(forward(params, x, config) == 0.0)


def test_gate_gradient_matches_finite_differences():
    config, params = variant_setup("full_interdomain", output_gate_enabled=True, seed=8)
    rng = make_rng(9)
    x = rng.standard_normal((4, config.model_dim))
    up = rng.standard_normal((4, config.model_dim))

    def loss():
        return float(np.sum(up * forward(params, x, config)))

    grads, _ = backward(params, x, up, config)
    assert rel_err(grads["w_g"], central_diff(loss, params.w_g)) < 1e-6


def test_gated_forward_and_backward_make_one_gate_sigmoid(monkeypatch):
    # the backward runs no forward: it makes the one sigmoid(gate_pre)
    # itself and builds silu and its derivative from it
    config, params = variant_setup("full_interdomain", output_gate_enabled=True)
    calls = []

    def counting(arg):
        calls.append(arg.shape)
        return sigmoid(arg)
    monkeypatch.setattr(layer_module, "sigmoid", counting)
    x = make_rng(10).standard_normal((4, config.model_dim))
    backward(params, x, make_rng(11).standard_normal((4, config.model_dim)), config)
    assert calls == [(4, config.model_dim)]


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


@pytest.mark.parametrize("gate", [False, True])
@pytest.mark.parametrize("n_kv", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_ssm_state_is_found_from_the_decode_output(variant, n_kv, gate, monkeypatch):
    # decode_step does not scan the SSM states up front: a NaN or an inf in
    # either part of any entry reaches every output, and the step then names
    # the field, with no RuntimeWarning on the way.  prefill still checks the
    # state before it runs a stream
    config, params = variant_setup(variant, seed=70, n_kv=n_kv, output_gate_enabled=gate)
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
        with pytest.raises(ValueError, match="decode output must be finite"):
            decode_step(params, state, token, config)


@pytest.mark.parametrize("gate", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_decode_step_leaves_the_passed_in_state_unchanged(variant, gate):
    config, params = variant_setup(variant, seed=74, output_gate_enabled=gate)
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
    "w_o": ({}, "silu_l2"), "w_g": ({"output_gate_enabled": True}, "silu_l2"),
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
    ({"output_gate_enabled": True}, {"output_gate_enabled": False}, "w_g"),
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


def _ssm_for_another_config(ssm, field):
    """The tiny config's stacked SSM with one field made for another config:
    a third group (runs on two of them without the check), a c_out with a
    third group under a delta with two, or a wider input."""
    if field == "delta":
        return stack_ssms([ssm[0], ssm[1], ssm[0]])
    if field == "c_out":
        return dataclasses.replace(ssm, c_out=np.concatenate([ssm.c_out, ssm.c_out[:1]]))
    return dataclasses.replace(ssm, input_width=ssm.input_width + 1)


@pytest.mark.parametrize("field", ["delta", "c_out", "input_width"])
def test_ssm_made_for_another_config_is_rejected(field):
    config, params = variant_setup("full_interdomain", seed=51)
    params.ssm = _ssm_for_another_config(params.ssm, field)
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


def test_ssm_state_size_checked_against_config():
    # an SSM of another state size names the field, not the decode state
    config, params = variant_setup("full_interdomain", seed=53)
    params.ssm = stack_ssms([random_ssm(config.state_dim + 1, params.ssm.input_width,
                                        make_rng(54)) for _ in range(config.n_kv)])
    with pytest.raises(ValueError, match=r"params\.ssm\.delta must be .* = \(2, 4\)"):
        forward(params, make_rng(55).standard_normal((4, config.model_dim)), config)


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
            lambda v: setattr(params, "ssm", ssm_with(base, **{field: v})),
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
        params.ssm = ssm_with(base, a=-np.exp(p) + 1j * q, delta=delta)
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


@pytest.mark.parametrize("overrides,feature_kind", [
    ({}, "silu_l2"),
    ({"n_kv": 1}, "silu_l2"),
    ({"variant": "s4d_only"}, "silu_l2"),
    ({"variant": "dual_kv_linear", "n_kv": 1}, "silu_l2"),
    ({"output_gate_enabled": True}, "silu_l2"),
    ({"heads": 4, "model_dim": 16, "feature_dim": 8, "state_dim": 6, "n_kv": 4}, "rff"),
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
    ``backward_checkpointed`` the group's scan outputs."""
    counts = Counter()
    scans = []  # (backend, whether f_q was passed) per run_scan call

    def counting(name):
        fn = getattr(layer_module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name == "run_scan":
                scans.append((args[2], kwargs.get("f_q") is not None))
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
