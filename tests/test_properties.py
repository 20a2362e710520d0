"""The layer's contracts over random valid configs.

One property sweep draws a config (variant, feature kind, n_kv, RoPE,
state size, the SSM chunk and the ``prefill_chunk`` block length), a
sequence length and a prefill chunk, and checks the three contracts every
config must meet: the scan backends agree, and each matches the layer's
definition stepped one token at a time (``reference_layer``), chunked
prefill plus decode reproduces the forward, and ``grad_x`` matches a
directional finite difference.  The seed and example count are fixed, so
the sweep is the same on every run.
"""
import dataclasses

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from interdomain.config import (
    BACKENDS,
    GENERIC_INPUT_VARIANTS,
    VARIANTS,
    ModelConfig,
    make_rng,
)
from interdomain.layer import backward, decode_step, forward, init_layer_params, prefill

from helpers import randomize_norms, rel_err
from reference_layer import reference_run


@st.composite
def cases(draw):
    variant = draw(st.sampled_from(VARIANTS))
    generic = variant in GENERIC_INPUT_VARIANTS
    kind = draw(st.sampled_from(["silu_l2", "identity"] if generic else
                                ["silu_l2", "identity", "rff"]))
    heads = draw(st.integers(1, 3))
    head_dim = draw(st.sampled_from([2, 4]))
    feature_dim = draw(st.sampled_from([2, 4, 6])) if kind == "rff" else head_dim
    n = draw(st.integers(1, 24))
    config = ModelConfig(
        heads=heads, model_dim=heads * head_dim, head_dim=head_dim, feature_dim=feature_dim,
        state_dim=draw(st.integers(1, 5)), context_len=24,
        chunk_size=draw(st.integers(1, 24)), prefill_chunk=draw(st.integers(1, n)),
        backend=draw(st.sampled_from(BACKENDS)), variant=variant,
        n_kv=draw(st.sampled_from([1, heads])), seed=0)
    return config, kind, n, draw(st.integers(1, n)), draw(st.integers(0, 2 ** 16))


@seed(2026)
@settings(max_examples=120, deadline=None)
@given(cases())
def test_layer_contracts_hold_for_any_valid_config(case):
    config, kind, n, chunk, draw_seed = case
    params = init_layer_params(config, make_rng(draw_seed), feature_kind=kind,
                               contraction_scale=0.5)
    randomize_norms(params, make_rng(draw_seed + 1))
    rng = make_rng(draw_seed + 2)
    x = rng.standard_normal((n, config.model_dim))
    up = rng.standard_normal((n, config.model_dim))

    # the four backends agree (acceptance 2's bound), and match the reference
    ys = {b: forward(params, x, dataclasses.replace(config, backend=b)) for b in BACKENDS}
    want = ys[config.backend]
    ref = reference_run(params, x, config)[0]
    for b, y in ys.items():
        assert rel_err(y, want) <= 1e-8, b
        assert rel_err(y, ref) <= 1e-12, b

    # chunked prefill of a prefix, then decode, reproduces the forward
    cut = (n + 1) // 2
    y_pre, state = prefill(params, x[:cut], config, chunk=chunk)
    rows = [y_pre]
    for t in range(cut, n):
        y_t, state = decode_step(params, state, x[t], config)
        rows.append(y_t[None])
    assert rel_err(np.concatenate(rows), want) <= 1e-10

    # grad_x along a random direction, by central differences
    _, grad_x = backward(params, x, up, config)
    v = rng.standard_normal(x.shape)
    h = 1e-5
    numeric = (np.sum(up * forward(params, x + h * v, config))
               - np.sum(up * forward(params, x - h * v, config))) / (2 * h)
    analytic = np.sum(grad_x * v)
    assert abs(numeric - analytic) <= 1e-4 * max(abs(analytic), 1e-8)
