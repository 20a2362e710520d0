"""Operation-counting decode simulator.

Contrasts the fixed-state mixer against a growing-KV softmax baseline
without touching a clock: the unit is one fused multiply-add (a complex
multiply-add counts 4, complex-by-real counts 2, an elementwise special
function counts 1), memory is live double-precision values.  The
fixed-state paths book the analytic per-step count of ``decode_step_ops``;
the softmax path books its per-step KV traffic, growing as prefix + step
index.  Wall-clock decode timings come from ``perfbench/``.

Three paths:

* ``softmax_kv``           growing cache, per-step work affine in prefix.
* ``interdomain``          fixed state, prompt consumed in one block.
* ``interdomain_chunked``  same decode, prompt consumed in fixed chunks so
                           peak memory is bounded by the chunk, not the
                           prompt.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import QUERY_VARIANTS, ModelConfig, make_rng, streams
from .features import CONV_TAPS, check_feature_kind
from .layer import decode_step, forward, init_layer_params, prefill, real_scalars, state_layout

PATHS = ("interdomain", "interdomain_chunked", "softmax_kv")

CSV_HEADER = ("path", "B", "L", "steps", "per_step_ops", "peak_memory_units")


@dataclass(frozen=True)
class BenchRow:
    """One (path, batch, prefix) cell of the decode grid."""

    path: str
    b: int
    l: int
    steps: int
    per_step_ops: int
    peak_memory_units: int


def state_units(config: ModelConfig) -> int:
    """Real scalars carried between decode steps: the arrays of
    ``layer.state_layout`` (complex SSM states count 2 per entry, plus the
    convolution tails) and the position counter."""
    return real_scalars(state_layout(config).values()) + 1


def _feature_ops(kind: str, dh: int, r: int) -> int:
    """Multiply-adds to featurize one width-dh vector."""
    if kind == "identity":
        return 0
    if kind == "rff":
        return dh * (r // 2) + 2 * r   # frequency matvec, then cos/sin + scale
    return 4 * dh                      # silu_l2: silu (2/elem) + square-sum + divide


def decode_step_ops(config: ModelConfig, feature_kind: str = "silu_l2") -> dict[str, int]:
    """Analytic cost of one decode step at batch 1.

    Everything is a pure function of the config, which is the claim under
    test: no term involves how many tokens came before.  Each KV group's
    state update is 6*M*(R+dh).  The query variants then read each head
    straight from the state, query first: a = f_q X_r (2*M*R),
    alpha = Re(a C^T) and beta = alpha C (4*M^2), Re(beta X_v^T)
    (2*M*dh), holding a, alpha and beta (5*M values) per head.  The
    variants without a query path read out every channel, the full complex
    readout matrix at 4*M^2*(R+dh) per group, and contract each group's
    M*(R+dh) outputs as soon as they are formed, holding one group's.
    """
    check_feature_kind(feature_kind)
    d, dh, r, m = config.model_dim, config.head_dim, config.feature_dim, config.state_dim
    n_kv, heads = config.n_kv, config.heads
    w = r + dh

    work = d * d                                  # output projection
    for s in streams(config):
        width = s.rows * dh
        work += d * width                         # projection
        if s.conv:
            work += CONV_TAPS * width
        if s.rope:
            work += 2 * width
        if s.features:
            work += s.rows * _feature_ops(feature_kind, dh, r)
    work += n_kv * 3 * (r + dh)                   # input norms + bias
    work += n_kv * 6 * m * w                      # state update
    if config.variant in QUERY_VARIANTS:
        work += heads * (2 * m * r + 4 * m * m + 2 * m * dh)  # query-first readout
        readout_values = heads * 5 * m
    else:
        work += n_kv * 4 * m * m * w              # complex readout of every channel
        work += heads * dh * m * w                # learned linear contraction
        readout_values = m * w

    carried = state_units(config)
    transient = 2 * d + 2 * n_kv * dh + readout_values
    return {
        "multiply_adds": work,
        "state_reads": carried,
        "state_writes": carried,
        "live_values": carried + transient,
    }


def activation_units_per_token(config: ModelConfig) -> int:
    """Live doubles booked per prefill token: 2 M (R + dh) per KV group, the
    size of one complex (W, M) state, plus 2 model_dim and 2 n_kv dh for the
    projected streams.  It is a booking rule for ``peak_memory_units``, not
    a measurement: no path stores a complex state per position."""
    dh, r, m = config.head_dim, config.feature_dim, config.state_dim
    return 2 * config.n_kv * m * (r + dh) + 2 * config.model_dim + 2 * config.n_kv * dh


def simulate_decode(config: ModelConfig, b: int, l: int, steps: int) -> list[BenchRow]:
    """One decode session per path: prefix of ``l`` tokens, then ``steps``
    generated tokens, batch ``b``.

    The fixed-state rows book the analytic per-step count, a function of
    the config alone, so the prefix length cannot leak into it.  The
    softmax row books 4d^2 projection work plus 2d*(l+i) cache traffic at
    step i.  ``per_step_ops`` is total decode work divided by steps, which
    is an integer; steps=0 books nothing.
    """
    if b < 1 or l < 0 or steps < 0:
        raise ValueError("need b >= 1, l >= 0, steps >= 0")
    d = config.model_dim
    act = activation_units_per_token(config)
    carried = state_units(config)
    chunk = min(config.prefill_chunk, l) if l else 0

    inter_per_step = b * decode_step_ops(config)["multiply_adds"] if steps else 0

    # the mean of 4d^2 + 2d(l+i) over i < steps, exact in integers
    soft_per_step = b * (4 * d * d + 2 * d * l + d * (steps - 1)) if steps else 0

    rows = [
        BenchRow("interdomain", b, l, steps, inter_per_step,
                 b * (l * act + carried)),
        BenchRow("interdomain_chunked", b, l, steps, inter_per_step,
                 b * (chunk * act + carried)),
        BenchRow("softmax_kv", b, l, steps, soft_per_step,
                 b * (2 * d * (l + steps) + 4 * d)),
    ]
    return rows


def verify_prefill_equivalence(config: ModelConfig, n: int, chunk: int, seed: int = 0) -> float:
    """Run the real layer both ways, one block and ``chunk``-token blocks,
    and return the worst deviation from the forward (itself in
    ``config.prefill_chunk`` blocks) across outputs, final SSM states, and
    a decode continuation."""
    rng = make_rng(seed)
    params = init_layer_params(config, rng, contraction_scale=0.5)
    x = rng.standard_normal((n, config.model_dim))
    y_full = forward(params, x, config)
    y_one, st_one = prefill(params, x, config, chunk=max(n, 1))
    y_chunk, st_chunk = prefill(params, x, config, chunk=chunk)
    worst = max(
        float(np.max(np.abs(y_one - y_full))),
        float(np.max(np.abs(y_chunk - y_full))),
        float(np.max(np.abs(st_one.ssm_states - st_chunk.ssm_states))),
    )
    nxt = rng.standard_normal(config.model_dim)
    y_a, _ = decode_step(params, st_one, nxt, config)
    y_b, _ = decode_step(params, st_chunk, nxt, config)
    return max(worst, float(np.max(np.abs(y_a - y_b))))


def run_decode_grid(
    config: ModelConfig,
    batches: tuple[int, ...],
    prefix_lens: tuple[int, ...],
    steps: int,
) -> list[BenchRow]:
    """Every (path, batch, prefix) cell, merged deterministically."""
    rows = []
    for b in batches:
        for l in prefix_lens:
            rows.extend(simulate_decode(config, b, l, steps))
    rows.sort(key=lambda r: (r.path, r.b, r.l))
    return rows


def emit_csv(rows: list[BenchRow], dest: str) -> None:
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.path, r.b, r.l, r.steps, r.per_step_ops, r.peak_memory_units])

