"""The layer against its definition: ``reference_layer.reference_run``, which
steps one token at a time through every stage written out by hand.

Every other layer test checks the layer against itself (the backends against
each other, decode against the forward, finite differences of its own
forward), so a fault that every path shares passes all of them; here the
forward on every backend, chunked prefill plus decode, decode alone from an
empty prompt, and the gradients are held to an independent forward."""
import dataclasses

import numpy as np
import pytest

from interdomain.config import BACKENDS, VARIANTS, make_rng
from interdomain.features import NormBias
from interdomain.layer import backward, decode_step, forward, init_layer_params, prefill

from helpers import SHAPES, randomize_norms, rel_err, tiny_config
from reference_layer import reference_run

N = 19  # blocks of 8, 8 and 3 at the tiny config's prefill_chunk


def _cases():
    for shape in SHAPES:
        for variant in VARIANTS:
            # s4d_only runs no feature map, so its kind changes nothing
            for kind in ("silu_l2",) if variant == "s4d_only" else ("silu_l2", "rff", "identity"):
                for n_kv in (1, 2):
                    name = f"{variant}-{kind}-n_kv{n_kv}"
                    yield pytest.param(variant, kind, n_kv, shape, id=(
                        name if shape == "tiny" else f"{name}-{shape}"))


def _setup(variant, kind, n_kv, seed, shape="tiny"):
    config = tiny_config(variant=variant, n_kv=n_kv, **SHAPES[shape])
    params = init_layer_params(config, make_rng(seed), feature_kind=kind,
                               contraction_scale=0.5)
    randomize_norms(params, make_rng(seed + 1))
    return config, params


@pytest.mark.parametrize("variant, kind, n_kv, shape", _cases())
def test_forward_prefill_and_decode_match_the_reference(variant, kind, n_kv, shape):
    config, params = _setup(variant, kind, n_kv, seed=60, shape=shape)
    x = make_rng(62).standard_normal((N, config.model_dim))
    want, want_state = reference_run(params, x, config)
    assert N > config.prefill_chunk
    for backend in BACKENDS:
        got = forward(params, x, dataclasses.replace(config, backend=backend))
        assert rel_err(got, want) <= 1e-12, backend

    cut = 13
    y_pre, state = prefill(params, x[:cut], config, chunk=5)
    rows = [y_pre]
    for t in range(cut, N):
        y_t, state = decode_step(params, state, x[t], config)
        rows.append(y_t[None])
    assert rel_err(np.concatenate(rows), want) <= 1e-12
    _assert_states_match(state, want_state)


@pytest.mark.parametrize("variant, kind, n_kv, shape", _cases())
def test_decode_from_an_empty_prompt_matches_the_reference(variant, kind, n_kv, shape):
    # every token through decode_step alone: each rotation at its absolute
    # position and each conv tail grown from zeros, one token at a time
    config, params = _setup(variant, kind, n_kv, seed=60, shape=shape)
    x = make_rng(62).standard_normal((N, config.model_dim))
    want, want_state = reference_run(params, x, config)
    _, state = prefill(params, x[:0], config)
    rows = []
    for t in range(N):
        y_t, state = decode_step(params, state, x[t], config)
        rows.append(y_t)
    assert rel_err(np.stack(rows), want) <= 1e-12
    _assert_states_match(state, want_state)


def _assert_states_match(state, want_state):
    assert state.position == want_state.position == N
    for name in ("ssm_states", "conv_q_tail", "conv_k_tail", "conv_v_tail"):
        got, ref = getattr(state, name), getattr(want_state, name)
        assert (got is None) == (ref is None), name
        if got is not None:
            assert rel_err(got, ref) <= 1e-12, name


_DENSE = ("w_q", "w_k", "w_v", "w_o", "conv_q", "conv_k", "conv_v", "contraction")


def _training_values(params):
    """Every learnable tensor, keyed like the gradients; the SSM's in its
    training parameterization (delta, log(-Re a), Im a, b, c_out)."""
    ssm = params.ssm
    values = {name: getattr(params, name) for name in _DENSE if getattr(params, name) is not None}
    for norm in ("k_norm", "v_norm"):
        values[f"{norm}.gain"] = getattr(params, norm).gain
        values[f"{norm}.bias"] = getattr(params, norm).bias
    values.update({"ssm.delta": ssm.delta, "ssm.a_log_neg_re": np.log(-ssm.a.real),
                   "ssm.a_im": ssm.a.imag, "ssm.b": ssm.b, "ssm.c_out": ssm.c_out})
    return values


def _with_values(params, values):
    """``params`` holding ``values`` (keyed as ``_training_values``); the
    SSM's poles are left stale, as the reference derives its own."""
    a = -np.exp(values["ssm.a_log_neg_re"]) + 1j * values["ssm.a_im"]
    return dataclasses.replace(
        params, **{name: values[name] for name in _DENSE if name in values},
        k_norm=NormBias(gain=values["k_norm.gain"], bias=values["k_norm.bias"]),
        v_norm=NormBias(gain=values["v_norm.gain"], bias=values["v_norm.bias"]),
        ssm=dataclasses.replace(params.ssm, delta=values["ssm.delta"], a=a, b=values["ssm.b"],
                                c_out=values["ssm.c_out"]))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n_kv", [1, 2])
@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_matches_a_directional_derivative_of_the_reference(variant, n_kv, shape):
    # every gradient and grad_x at once, along one random direction scaled
    # to each tensor, against a central difference of the reference
    kind = "rff" if n_kv == 1 and variant != "s4d_only" else "silu_l2"
    config, params = _setup(variant, kind, n_kv, seed=64, shape=shape)
    rng = make_rng(66)
    n = 11  # blocks of 8 and 3
    x, up, dx = rng.standard_normal((3, n, config.model_dim))
    grads, grad_x = backward(params, x, up, config)
    values = _training_values(params)
    assert grads.keys() == values.keys()
    direction = {}
    for name, value in values.items():
        step = rng.standard_normal(value.shape)
        if np.iscomplexobj(value):
            step = step + 1j * rng.standard_normal(value.shape)
        direction[name] = step * max(float(np.sqrt(np.mean(np.abs(value) ** 2))), 0.1)
    analytic = np.sum(grad_x * dx) + sum(np.sum((np.conj(grads[name]) * d).real)
                                         for name, d in direction.items())
    h = 1e-6

    def loss(step):
        moved = _with_values(params, {name: value + step * direction[name]
                                      for name, value in values.items()})
        return np.sum(up * reference_run(moved, x + step * dx, config)[0])

    numeric = (loss(h) - loss(-h)) / (2 * h)
    assert abs(numeric - analytic) <= 1e-7 * abs(analytic), (numeric, analytic)
