import dataclasses
from pathlib import Path

import numpy as np
import pytest

from interdomain.accounting import (
    BACKBONES,
    MIXERS,
    StateBudget,
    backbone,
    budget_table,
    count_params,
    mixer_params_per_layer,
    overhead_fraction,
    scale_config,
    softmax_mixer_params,
    state_dof,
    swiglu_hidden,
)
from interdomain.config import load_config

from helpers import tiny_config

CFG_1P3B = Path(__file__).resolve().parent.parent / "configs" / "cfg1p3b.json"

PUBLISHED_SOFTMAX = {
    "125m": 134_105_856,
    "350m": 373_867_520,
    "760m": 777_856_512,
    "1.3b": 1_345_423_360,
}


# --- backbone table ---

def test_backbone_lookup():
    spec = backbone("1.3b")
    assert (spec.model_dim, spec.layers, spec.heads) == (2048, 24, 32)
    with pytest.raises(KeyError, match="unknown backbone"):
        backbone("13b")


def test_swiglu_hidden_anchor_and_rounding():
    assert swiglu_hidden(2048) == 5504
    for d in (768, 1024, 1536, 2048):
        h = swiglu_hidden(d)
        assert h % 128 == 0
        assert 0 <= h - 8 * d / 3 < 128


def test_scale_config_shape():
    config = scale_config(backbone("1.3b"))
    assert config.heads == config.n_kv == 32
    assert config.model_dim == 2048
    assert config.head_dim == config.feature_dim == config.state_dim == 64
    assert config.context_len == 4096


def test_1p3b_config_file_is_the_scale_config():
    # the benchmark's 1.3b shape and the one behind the budget suite and
    # acceptance 4-5 are written down twice; they must stay one shape
    assert load_config(CFG_1P3B) == scale_config(backbone("1.3b"))


# --- parameter counts ---

@pytest.mark.parametrize("name,total", sorted(PUBLISHED_SOFTMAX.items()))
def test_softmax_backbones_match_published_totals(name, total):
    assert count_params(backbone(name), "softmax") == total


def test_softmax_mixer_is_four_square_projections():
    assert softmax_mixer_params(2048) == 4 * 2048 * 2048


def test_count_params_rejects_unknown_mixer():
    with pytest.raises(KeyError, match="mixer"):
        count_params(backbone("125m"), "linear")


@pytest.mark.parametrize("name", [s.name for s in BACKBONES])
def test_mixer_swap_overhead_stays_under_1p2_percent(name):
    frac = overhead_fraction(backbone(name), "interdomain")
    assert 0.003 < frac < 0.012


def test_overhead_shrinks_with_width():
    fracs = [overhead_fraction(s) for s in BACKBONES]
    assert fracs[0] > fracs[-1]
    assert abs(fracs[-1] - 0.0052973) < 1e-4


def test_mixer_extras_closed_form():
    # interdomain minus softmax per layer: the q/k convs, the norms, and the
    # per-group SSM tensors; everything else is shared with the baseline
    spec = backbone("1.3b")
    config = scale_config(spec)
    d, n_kv, r, dh, m = 2048, 32, 64, 64, 64
    extras = 8 * d + n_kv * (2 * r + 2 * dh) + n_kv * (5 * m + 2 * m * m)
    assert mixer_params_per_layer(config) - softmax_mixer_params(d) == extras
    diff = count_params(spec, "interdomain") - count_params(spec, "softmax")
    assert diff == spec.layers * extras


def test_grouping_reduces_count():
    full = mixer_params_per_layer(tiny_config())
    grouped = mixer_params_per_layer(tiny_config(n_kv=1))
    assert grouped < full


# --- state budget ---

def test_state_budget_published_scale():
    budget = state_dof(scale_config(backbone("1.3b")))
    assert budget.cells == 32
    assert budget.per_cell_dof == 16_384
    assert budget.total_dof == 524_288
    assert budget.kv_cache_per_token == 4_096


def test_state_budget_grouped_kv():
    config = dataclasses.replace(scale_config(backbone("1.3b")), n_kv=1)
    budget = state_dof(config)
    assert budget.total_dof == 16_384
    assert budget.kv_cache_per_token == 4_096  # cache follows heads, not groups


def test_fixed_state_crossover_at_128_tokens():
    budget = state_dof(scale_config(backbone("1.3b")))
    assert budget.total_dof == 128 * budget.kv_cache_per_token


def test_state_budget_consistency_enforced():
    with pytest.raises(ValueError, match="total_dof"):
        StateBudget(cells=2, per_cell_dof=3, total_dof=7, kv_cache_per_token=1)


# --- budget table ---

def test_budget_table_flattens_everything():
    table = budget_table(scale_config(backbone("1.3b")))
    assert table["total_dof"] == 524_288
    assert table["per_cell_dof"] == 16_384
    for name, total in PUBLISHED_SOFTMAX.items():
        assert table[f"params_softmax_{name}"] == total
        over = table[f"params_interdomain_{name}"] / total - 1.0
        assert 0.003 < over < 0.012
    assert all(isinstance(v, (int, np.integer)) for v in table.values())


def test_mixer_names_exported():
    assert set(MIXERS) == {"softmax", "interdomain", "s4d_only"}
