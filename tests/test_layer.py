import dataclasses
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from interdomain import layer as layer_module
from interdomain.accounting import mixer_params_per_layer
from interdomain.config import (
    GENERIC_INPUT_VARIANTS,
    QUERY_VARIANTS,
    VARIANTS,
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
from interdomain.ssm import ssm_with

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
        want = query_readout_loop(trace["f_q"], trace["scan_out"], n_kv)
    else:
        want = contraction_readout_loop(trace["scan_out"], params.contraction, n_kv)
    assert rel_err(trace["o_cat"], want) < 1e-12
    # the chunkwise backend, whose query readout never forms the scan
    # outputs, from one step per chunk through a ragged chunk to one chunk
    # past N
    for chunk in (1, 3, n, n + 5):
        chunked = dataclasses.replace(config, backend="chunkwise", chunk_size=chunk)
        _, got = forward_trace(params, x, chunked)
        assert ("scan_out" in got) == (variant not in QUERY_VARIANTS)
        assert rel_err(got["o_cat"], want) < 1e-12, chunk


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
    ``n_kv``; wrap the names in the layer namespace the way it does.  The
    backward makes one SSM adjoint call per group: the query readout's for
    the query variants, ``backward_checkpointed`` for the others."""
    counts = Counter()

    def counting(name):
        fn = getattr(layer_module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("run_scan", "backward_checkpointed", "query_readout_backward"):
        monkeypatch.setattr(layer_module, name, counting(name))
    for variant in ("full_interdomain", "s4d_only"):
        config, params = variant_setup(variant, n_kv=n_kv)
        rng = make_rng(44)
        x = rng.standard_normal((4, config.model_dim))
        counts.clear()
        decode_step(params, init_decode_state(config), x[0], config)
        assert counts == {"run_scan": n_kv}
        counts.clear()
        backward(params, x, rng.standard_normal((4, config.model_dim)), config)
        if variant in QUERY_VARIANTS:
            assert counts["query_readout_backward"] == n_kv
            assert counts["backward_checkpointed"] == 0
        else:
            assert counts["backward_checkpointed"] == n_kv
