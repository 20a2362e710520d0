"""The stream table, ``config.streams``, and everything derived from it.

The closed-form counts are pinned to ``data/closed_form_counts.json``, which
was recorded from the hand-written per-variant formulas the table replaced;
the layer's parameters, decode state and gradients are checked against the
table one slot at a time, and the layer's own tables of parameters and
decode state against the containers it makes.
"""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from interdomain.accounting import backbone, mixer_params_per_layer, scale_config, state_dof
from interdomain.bench import decode_step_ops, state_units
from interdomain.config import VARIANTS, make_rng, streams
from interdomain.features import CONV_TAPS
from interdomain.layer import (
    _learnable,
    backward,
    init_decode_state,
    init_layer_params,
    load_layer_params,
    param_layout,
    save_layer_params,
)

from helpers import SHAPES, tiny_config

RECORDED = json.loads((Path(__file__).parent / "data" / "closed_form_counts.json").read_text())

STREAM_SLOTS = ("w_q", "w_k", "w_v", "conv_q", "conv_k", "conv_v")
TAILS = ("conv_q_tail", "conv_k_tail", "conv_v_tail")


def count_configs():
    """(key, config) for every variant x n_kv in {1, heads}, at the tiny
    config and at the 1.3b published scale."""
    for scale in ("tiny", "1.3b"):
        for variant in VARIANTS:
            base = (tiny_config(variant=variant) if scale == "tiny"
                    else scale_config(backbone("1.3b"), variant))
            for n_kv in (1, base.heads):
                yield f"{scale}/{variant}/n_kv={n_kv}", dataclasses.replace(base, n_kv=n_kv)


COUNT_CONFIGS = dict(count_configs())


def test_recorded_counts_cover_the_grid():
    assert sorted(RECORDED) == sorted(COUNT_CONFIGS)


@pytest.mark.parametrize("key", sorted(COUNT_CONFIGS))
def test_closed_form_counts_match_the_recorded_values(key):
    config = COUNT_CONFIGS[key]
    got = {
        "decode_step_ops": {kind: decode_step_ops(config, kind)
                            for kind in ("silu_l2", "identity", "rff")},
        "state_units": state_units(config),
        "mixer_params_per_layer": mixer_params_per_layer(config),
        "total_dof": state_dof(config).total_dof,
    }
    assert got == RECORDED[key]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_kv", [1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_layer_layout_follows_the_stream_table(variant, n_kv, shape):
    config = tiny_config(variant=variant, n_kv=n_kv, **SHAPES[shape])
    table = streams(config)
    d, dh = config.model_dim, config.head_dim
    assert [s.name for s in table] == ["k", "v", "q"][:len(table)]

    params = init_layer_params(config, make_rng(0), contraction_scale=0.5)
    slots = {name: getattr(params, name) for name in STREAM_SLOTS}
    want = {f"w_{s.name}": (d, s.rows * dh) for s in table}
    want.update({f"conv_{s.name}": (CONV_TAPS, s.rows * dh) for s in table if s.conv})
    assert {name: a.shape for name, a in slots.items() if a is not None} == want

    state = init_decode_state(config)
    tails = {name: getattr(state, name) for name in TAILS}
    assert {name: a.shape for name, a in tails.items() if a is not None} == \
        {f"conv_{s.name}_tail": (CONV_TAPS - 1, s.rows * dh) for s in table if s.conv}

    rng = make_rng(1)
    grads, _ = backward(params, rng.standard_normal((5, d)), rng.standard_normal((5, d)), config)
    stream_grads = {key for key in grads
                    if key.startswith(("w_", "conv_")) or "_norm." in key} - {"w_o"}
    want_grads = set(want)
    want_grads.update(f"{s.norm}.{part}" for s in table if s.norm for part in ("gain", "bias"))
    assert stream_grads == want_grads
    assert all(np.all(np.isfinite(grads[key])) for key in stream_grads)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n_kv", [1, 2])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("feature_kind", ["silu_l2", "rff", "identity"])
def test_layer_tables_match_the_containers(tmp_path, variant, n_kv, shape, feature_kind):
    # the parameter table names every learnable tensor with its shape and
    # dtype, before and after a save/load round trip; the state count is
    # the one over the arrays of a state actually made, plus the position
    config = tiny_config(variant=variant, n_kv=n_kv, **SHAPES[shape])
    params = init_layer_params(config, make_rng(2), feature_kind, contraction_scale=0.5)
    save_layer_params(params, tmp_path / "layer.npz")
    for container in (params, load_layer_params(tmp_path / "layer.npz")):
        assert {name: (value.shape, value.dtype)
                for name, value in _learnable(container).items()} == dict(param_layout(config))

    arrays = [value for value in vars(init_decode_state(config)).values()
              if isinstance(value, np.ndarray)]
    assert state_units(config) == \
        sum(a.size * (2 if np.iscomplexobj(a) else 1) for a in arrays) + 1
