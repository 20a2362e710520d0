import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdomain.config import (
    _RETIRED,
    BACKENDS,
    VARIANTS,
    ConfigError,
    ModelConfig,
    config_from_dict,
    load_config,
    make_rng,
)

from interdomain.layer import init_decode_state

from helpers import tiny_config

REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.json")) + [REPO / "perfbench" / "long_small.json"]


def test_published_scale_constructs():
    cfg = tiny_config(heads=32, model_dim=2048, head_dim=64, feature_dim=64,
                      state_dim=64, context_len=4096, chunk_size=64,
                      prefill_chunk=2048, n_kv=32)
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg


@pytest.mark.parametrize("field,value", [("prefill_chunk", -4), ("readout", "nw")])
def test_every_way_of_making_a_config_checks_it(tmp_path, field, value):
    # dataclasses.replace skipped the checks: with prefill_chunk=-4 forward
    # returned uninitialised memory that passed its output check, and
    # readout="nw" ran the denominator-free readout.  readout is no longer
    # a field, so the constructor and replace refuse it as a keyword, and
    # only a dict or a file can still carry it
    config = load_config(REPO / "configs" / "tiny.json")
    data = {**dataclasses.asdict(config), field: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    checked = [lambda: config_from_dict(data), lambda: load_config(path)]
    keyword = [lambda: dataclasses.replace(config, **{field: value}),
               lambda: ModelConfig(**data)]
    if field == "readout":
        for make in keyword:
            with pytest.raises(TypeError, match=field):
                make()
    else:
        checked += keyword
    messages = set()
    for make in checked:
        with pytest.raises(ConfigError, match=field) as err:
            make()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_head_width_mismatch_names_invariant():
    with pytest.raises(ConfigError, match="head"):
        tiny_config(heads=2, model_dim=7, head_dim=4)


def test_zero_state_dim_rejected():
    with pytest.raises(ConfigError, match="state_dim"):
        tiny_config(state_dim=0)


@pytest.mark.parametrize("field", ["heads", "model_dim", "head_dim", "feature_dim",
                                   "context_len", "chunk_size", "prefill_chunk"])
def test_nonpositive_counts_rejected(field):
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: 0})


def test_chunk_size_bounded_by_context():
    with pytest.raises(ConfigError, match="chunk_size"):
        tiny_config(chunk_size=300, context_len=128)
    tiny_config(chunk_size=128, context_len=128)


def test_n_kv_is_one_or_heads():
    tiny_config(n_kv=1)
    tiny_config(n_kv=2)
    with pytest.raises(ConfigError, match="n_kv"):
        tiny_config(heads=4, model_dim=16, n_kv=3)


@pytest.mark.parametrize("field,allowed", [("backend", BACKENDS), ("variant", VARIANTS)])
def test_enums_rejected(field, allowed):
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: "bogus"})
    for value in allowed:
        tiny_config(**{field: value})


# Per retired key, values that ask for something the layer does not run (a
# normalized readout, an output gate, no RoPE) or only look like the one it
# does.
_REFUSED = {
    "readout": ("nw", "bogus", None, 0),
    "output_gate_enabled": (True, 0, None, "false", 0.0),
    "rope_enabled": (False, 0, None, "true", 1),
}


@pytest.mark.parametrize("key", sorted(_RETIRED))
def test_retired_keys_load_only_at_their_value(tmp_path, key):
    # the layer has no normalized readout, no output gate and always runs
    # RoPE, so asking otherwise must fail; a dict or file may carry the key
    # only with the one value the layer runs, a bool only as a bool
    kept, bad_values = _RETIRED[key], _REFUSED[key]
    data = dataclasses.asdict(tiny_config())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**data, key: kept}))
    assert config_from_dict({**data, key: kept}) == load_config(path) == tiny_config()
    for value in bad_values:
        path.write_text(json.dumps({**data, key: value}))
        for make in (lambda: config_from_dict({**data, key: value}),
                     lambda: load_config(path)):
            with pytest.raises(ConfigError, match=f"^{key} must be {kept!r}, got"):
                make()
    for make in (lambda: tiny_config(**{key: kept}),
                 lambda: ModelConfig(**{key: kept}),
                 lambda: dataclasses.replace(tiny_config(), **{key: kept})):
        with pytest.raises(TypeError, match=key):
            make()


def test_generic_variants_need_square_features():
    with pytest.raises(ConfigError, match="feature_dim"):
        tiny_config(variant="s4d_only", feature_dim=6)
    tiny_config(variant="s4d_only", feature_dim=4)


def test_rope_needs_even_head_dim(tmp_path):
    odd = dict(heads=2, model_dim=6, head_dim=3, feature_dim=3, state_dim=2, n_kv=2)
    data = {**dataclasses.asdict(tiny_config()), **odd}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    for make in (lambda: tiny_config(**odd),
                 lambda: dataclasses.replace(tiny_config(), **odd),
                 lambda: load_config(path)):
        with pytest.raises(ConfigError, match="^RoPE rotates head_dim in pairs, "
                                              "so head_dim must be even, got 3$"):
            make()


def test_unknown_key_rejected():
    data = dataclasses.asdict(tiny_config())
    data["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict(data)


def test_round_trip(tmp_path):
    cfg = tiny_config(backend="fft", variant="s4d_only", seed=9)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert load_config(path) == cfg
    assert load_config(path, seed_override=77).seed == 77
    # everything else untouched by the override
    assert dataclasses.replace(load_config(path, seed_override=77), seed=9) == cfg


def test_rng_reproducible_at_bit_level():
    a = make_rng(123).integers(0, 2**63, size=32)
    b = make_rng(123).integers(0, 2**63, size=32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(124).integers(0, 2**63, size=32))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["heads", "model_dim", "head_dim", "feature_dim", "state_dim",
                     "context_len", "chunk_size", "prefill_chunk", "n_kv", "seed"]),
    st.integers(min_value=-4, max_value=40),
))
def test_validation_is_total(overrides):
    """Every input either makes a config or raises ConfigError; nothing else."""
    try:
        tiny_config(**overrides)
    except ConfigError:
        pass


@pytest.mark.parametrize("path", SHIPPED_CONFIGS,
                         ids=[str(p.relative_to(REPO)) for p in SHIPPED_CONFIGS])
def test_shipped_configs_load(path):
    # the benchmark reads perfbench/long_small.json, so a config-field change
    # that breaks it fails here rather than only when the benchmark runs
    config = load_config(path)
    state = init_decode_state(config)
    assert state.position == 0
    assert state.ssm_states.shape == (config.n_kv, config.feature_dim + config.head_dim,
                                      config.state_dim)
