import csv
import dataclasses

import numpy as np
import pytest

from interdomain.bench import (
    CSV_HEADER,
    PATHS,
    BenchRow,
    activation_units_per_token,
    decode_step_ops,
    emit_csv,
    run_decode_grid,
    simulate_decode,
    state_units,
    verify_prefill_equivalence,
)
from interdomain.features import CONV_TAPS

from helpers import tiny_config


# --- static unit counts ---

def test_state_units_closed_form():
    config = tiny_config()
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    want = (2 * config.n_kv * m * (r + dh)
            + (CONV_TAPS - 1) * config.n_kv * dh      # k-stream tail
            + (CONV_TAPS - 1) * config.model_dim      # q-stream tail
            + 1)
    assert state_units(config) == want


def test_state_units_track_the_variant_tails():
    base = state_units(tiny_config())
    no_q = state_units(tiny_config(variant="dual_kv_linear"))
    generic = state_units(tiny_config(variant="s4d_only"))
    config = tiny_config()
    assert base - no_q == (CONV_TAPS - 1) * config.model_dim
    # s4d_only drops the q tail but convolves the second stream
    assert generic == no_q + (CONV_TAPS - 1) * config.n_kv * config.head_dim


def test_decode_step_ops_is_length_free_by_type():
    ops = decode_step_ops(tiny_config())
    assert set(ops) == {"multiply_adds", "state_reads", "state_writes", "live_values"}
    assert all(isinstance(v, int) and v > 0 for v in ops.values())
    assert ops["state_reads"] == ops["state_writes"] == state_units(tiny_config())


def test_decode_step_ops_orders_variants_sensibly():
    # the no-query variants pay the dense contraction; the full variant
    # pays a second d^2 projection instead
    full = decode_step_ops(tiny_config())["multiply_adds"]
    ident = decode_step_ops(tiny_config(), feature_kind="identity")["multiply_adds"]
    assert ident < full  # feature maps cost something
    # term by term at the tiny config: model_dim 8, two heads and two KV
    # groups of width 4, M = 4, so W = 8 channels per group
    assert full == sum((
        8 * 8,                        # output projection
        3 * 8 * 8,                    # k, v and q projections
        2 * CONV_TAPS * 8,            # k and q convs
        2 * 2 * 8,                    # k and q RoPE
        2 * 2 * 4 * 4,                # silu_l2 on the k and q rows
        2 * 3 * 8,                    # input norms + bias
        2 * 6 * 4 * 8,                # state update
        2 * (2 * 4 * 4 + 4 * 4 * 4 + 2 * 4 * 4),  # query-first readout
    ))


def test_decode_step_ops_rejects_unknown_feature_kind():
    # a misspelled kind must not be booked at the silu_l2 count
    with pytest.raises(ValueError, match=r"'rfff'.*\('rff', 'silu_l2', 'identity'\)"):
        decode_step_ops(tiny_config(), feature_kind="rfff")


# --- decode simulation ---

def test_simulate_decode_row_schema():
    rows = simulate_decode(tiny_config(), b=2, l=16, steps=4)
    assert [r.path for r in rows] == list(PATHS)
    for r in rows:
        assert (r.b, r.l, r.steps) == (2, 16, 4)
        assert r.per_step_ops > 0 and r.peak_memory_units > 0


def test_fixed_state_per_step_ops_flat_in_prefix():
    config = tiny_config()
    got = {l: simulate_decode(config, 1, l, 4)[0].per_step_ops for l in (0, 64, 4096)}
    assert len(set(got.values())) == 1
    assert got[0] == decode_step_ops(config)["multiply_adds"]


def test_softmax_per_step_ops_grow_with_prefix():
    config = tiny_config()
    ops = [simulate_decode(config, 1, l, 4)[2].per_step_ops for l in (64, 256, 4096)]
    assert ops[0] < ops[1] < ops[2]
    d = config.model_dim
    # step i books 4d^2 + 2d(l+i); the mean over steps is exact
    l, steps = 64, 4
    want = sum(4 * d * d + 2 * d * (l + i) for i in range(steps)) // steps
    assert simulate_decode(config, 1, l, steps)[2].per_step_ops == want


def test_peak_memory_orders_the_three_paths():
    config = tiny_config(prefill_chunk=8)
    inter, chunked, soft = simulate_decode(config, 2, 64, 4)
    assert chunked.peak_memory_units < inter.peak_memory_units
    act, carried = activation_units_per_token(config), state_units(config)
    assert inter.peak_memory_units == 2 * (64 * act + carried)
    assert chunked.peak_memory_units == 2 * (8 * act + carried)
    assert soft.peak_memory_units == 2 * (2 * config.model_dim * (64 + 4) + 4 * config.model_dim)


def test_chunking_caps_at_the_prefix():
    config = tiny_config(prefill_chunk=512)
    inter, chunked, _ = simulate_decode(config, 1, 16, 2)
    assert chunked.peak_memory_units == inter.peak_memory_units


def test_zero_steps_books_nothing():
    rows = simulate_decode(tiny_config(), 1, 8, 0)
    assert all(r.per_step_ops == 0 for r in rows)


def test_batch_scales_everything_linearly():
    config = tiny_config()
    one = simulate_decode(config, 1, 32, 4)
    four = simulate_decode(config, 4, 32, 4)
    for a, b in zip(one, four):
        assert b.per_step_ops == 4 * a.per_step_ops
        assert b.peak_memory_units == 4 * a.peak_memory_units


def test_simulate_decode_validates_arguments():
    with pytest.raises(ValueError, match="b >= 1"):
        simulate_decode(tiny_config(), 0, 8, 1)


# --- real-path prefill check ---

@pytest.mark.parametrize("variant", ["full_interdomain", "s4d_only"])
def test_real_layer_backs_the_prefill_claim(variant):
    config = tiny_config(variant=variant)
    assert verify_prefill_equivalence(config, n=24, chunk=7) < 1e-10


# --- grid and CSV ---

def test_grid_is_sorted_and_complete():
    rows = run_decode_grid(tiny_config(), batches=(2, 1), prefix_lens=(32, 8), steps=2)
    assert len(rows) == len(PATHS) * 2 * 2
    keys = [(r.path, r.b, r.l) for r in rows]
    assert keys == sorted(keys)


def read_csv(path) -> list[tuple[str, ...]]:
    with open(path, newline="") as fh:
        return [tuple(row) for row in csv.reader(fh)]


def test_csv_round_trip(tmp_path):
    rows = run_decode_grid(tiny_config(), batches=(1,), prefix_lens=(8, 16), steps=2)
    dest = tmp_path / "grid.csv"
    emit_csv(rows, str(dest))
    header, *body = read_csv(dest)
    assert header == CSV_HEADER
    assert body == [tuple(str(value) for value in dataclasses.astuple(row)) for row in rows]


def test_empty_grid_round_trips(tmp_path):
    dest = tmp_path / "empty.csv"
    emit_csv([], str(dest))
    assert read_csv(dest) == [CSV_HEADER]


def test_rows_are_immutable():
    row = BenchRow("interdomain", 1, 2, 3, 4, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.b = 9
