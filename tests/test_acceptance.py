"""Top-level acceptance gate.

Each test covers one shipping criterion and prints a single
``ACCEPTANCE n: PASS/FAIL`` line (run pytest with ``-s`` to see them).
Tolerances here are pinned; loosening them is not an option.
"""
import dataclasses
import itertools
from contextlib import contextmanager

import numpy as np
import pytest

from interdomain.accounting import (
    backbone,
    count_params,
    mixer_params_per_layer,
    overhead_fraction,
    scale_config,
    state_dof,
)
from interdomain.basis import (
    make_indicator_basis,
    make_legendre_basis,
    project,
    readout_nw,
)
from interdomain.bench import simulate_decode
from interdomain.config import VARIANTS, make_rng
from interdomain.features import FeatureMap, rff_features
from interdomain.layer import (
    backward,
    count_layer_params,
    decode_step,
    forward,
    init_decode_state,
    init_layer_params,
    prefill,
)
from interdomain.oracle import feature_attention
from interdomain.ssm import random_ssm, run_scan

from helpers import (
    central_diff,
    central_diff_complex,
    randomize_norms,
    rel_err,
    ssm_group_setter,
    tiny_config,
)


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n}: FAIL  ({label})")
        raise
    print(f"\nACCEPTANCE {n}: PASS  ({label})")


def test_acceptance_1_complete_basis_equality():
    with criterion(1, "complete-basis readout equals attention, 1e-10"):
        rng = make_rng(101)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 65))
            r = int(rng.integers(1, 17))
            d_v = int(rng.integers(1, 17))
            q = rng.uniform(0.05, 1.0, size=(int(rng.integers(1, 9)), r))
            k = rng.uniform(0.05, 1.0, size=(n, r))
            v = rng.standard_normal((n, d_v))
            want = feature_attention(q, k, v, FeatureMap("identity"))
            for basis in (make_indicator_basis(n), make_legendre_basis(n, n)):
                got = readout_nw(q, project(k, v, basis))
                worst = max(worst, rel_err(got, want))
        assert worst <= 1e-10, f"worst relative error {worst:.3e}"


def test_acceptance_2_scan_backend_agreement():
    with criterion(2, "four scan backends agree pairwise, 1e-8"):
        # the chunkwise block is K = min(chunk, N, W): W = 24 lets chunk 16
        # and chunk N reach K = 16 and 24, where W = 2 holds every chunk to 2
        worst = 0.0
        for w, m, n in itertools.product((2, 24), (1, 4, 64), (1, 2, 16, 257, 1024)):
            for seed in range(20):
                rng = make_rng(5_000 * w + 97 * seed + 7 * m + n)
                ssm = random_ssm(m, rng)
                z = rng.standard_normal((n, w))
                outs = [
                    run_scan(ssm, z, "sequential").outputs,
                    run_scan(ssm, z, "fft").outputs,
                    run_scan(ssm, z, "parallel_prefix").outputs,
                ]
                for chunk in (1, 16, n):
                    outs.append(run_scan(ssm, z, "chunkwise", chunk=chunk).outputs)
                for i in range(len(outs)):
                    for j in range(i + 1, len(outs)):
                        worst = max(worst, rel_err(outs[i], outs[j]))
        assert worst <= 1e-8, f"worst pairwise relative error {worst:.3e}"


def test_acceptance_3_gradients_match_finite_differences():
    with criterion(3, "analytic backward vs central differences, 1e-4"):
        for variant in VARIANTS:
            config = tiny_config(variant=variant)
            params = init_layer_params(config, make_rng(301), contraction_scale=0.5)
            randomize_norms(params, make_rng(302))
            rng = make_rng(303)
            x = rng.standard_normal((6, config.model_dim))
            up = rng.standard_normal((6, config.model_dim))

            def loss():
                return float(np.sum(up * forward(params, x, config)))

            grads, grad_x = backward(params, x, up, config)

            checks = {
                "x": (grad_x, x),
                "w_o": (grads["w_o"], params.w_o),
                "w_k": (grads["w_k"], params.w_k),
                "w_v": (grads["w_v"], params.w_v),
                "conv_k": (grads["conv_k"], params.conv_k),
                "k_norm.gain[0]": (grads["k_norm.gain"][0], params.k_norm.gain[0]),
                "v_norm.bias[0]": (grads["v_norm.bias"][0], params.v_norm.bias[0]),
            }
            if params.w_q is not None:
                checks["w_q"] = (grads["w_q"], params.w_q)
                checks["conv_q"] = (grads["conv_q"], params.conv_q)
            else:
                checks["contraction"] = (grads["contraction"], params.contraction)
            if params.conv_v is not None:
                checks["conv_v"] = (grads["conv_v"], params.conv_v)
            for name, (got, arr) in checks.items():
                fd = central_diff(loss, arr, h=1e-5)
                assert rel_err(got, fd) <= 1e-4, f"{variant}/{name}"

            base = params.ssm
            for field in ("b", "c_out"):
                fd = central_diff_complex(
                    loss,
                    lambda: getattr(params.ssm, field)[0],
                    ssm_group_setter(params, field),
                    h=1e-5,
                )
                assert rel_err(grads[f"ssm.{field}"][0], fd) <= 1e-4, f"{variant}/{field}"
            params.ssm = base

            # the SSM backward's chunk must not change the answer
            g1, gx1 = backward(params, x, up, dataclasses.replace(config, chunk_size=1))
            g16, gx16 = backward(params, x, up, dataclasses.replace(config, chunk_size=16))
            assert rel_err(gx16, gx1) <= 1e-9
            for key in g1:
                assert rel_err(g16[key], g1[key]) <= 1e-9, f"{variant}/{key}"


def test_acceptance_4_parameter_counts():
    with criterion(4, "published totals exact, overhead in the 0.3-1.2% band"):
        assert count_params(backbone("125m"), "softmax") == 134_105_856
        assert count_params(backbone("1.3b"), "softmax") == 1_345_423_360
        for spec_name in ("125m", "350m", "760m", "1.3b"):
            frac = overhead_fraction(backbone(spec_name), "interdomain")
            assert 0.003 < frac < 0.012, f"{spec_name}: {frac:.4%}"
        for overrides in ({}, {"n_kv": 1}, {"variant": "s4d_only"}):
            config = tiny_config(**overrides)
            params = init_layer_params(config, make_rng(401), contraction_scale=0.5)
            assert count_layer_params(params) == mixer_params_per_layer(config)


def test_acceptance_5_state_budget():
    with criterion(5, "state table exact; iso-state across mixers"):
        budget = state_dof(scale_config(backbone("1.3b")))
        assert budget.per_cell_dof == 16_384
        assert budget.total_dof == 524_288
        alt = state_dof(scale_config(backbone("1.3b"), variant="s4d_only"))
        assert (alt.per_cell_dof, alt.total_dof) == (budget.per_cell_dof, budget.total_dof)


def test_acceptance_6_prefill_and_decode_match_forward():
    with criterion(6, "chunked prefill and decode reproduce the forward, 1e-10"):
        n = 64
        for variant in VARIANTS:
            config = tiny_config(variant=variant)
            params = init_layer_params(config, make_rng(601), contraction_scale=0.5)
            x = make_rng(602).standard_normal((n, config.model_dim))
            want = forward(params, x, config)
            for chunk in (1, 8, n):
                got, _ = prefill(params, x, config, chunk=chunk)
                assert rel_err(got, want) <= 1e-10, f"{variant}/chunk={chunk}"
            state = init_decode_state(config)
            rows = []
            for t in range(n):
                y_t, state = decode_step(params, state, x[t], config)
                rows.append(y_t)
            assert rel_err(np.stack(rows), want) <= 1e-10, f"{variant}/decode"


def test_acceptance_7_decode_cost_is_flat():
    with criterion(7, "per-step decode ops flat for fixed state, growing for KV"):
        config = tiny_config()
        lens = (512, 1024, 2048, 4096, 8192, 16384)
        fixed, growing = [], []
        for l in lens:
            rows = simulate_decode(config, b=1, l=l, steps=8)
            fixed.append(rows[0].per_step_ops)
            growing.append(rows[2].per_step_ops)
        assert len(set(fixed)) == 1, f"fixed-state ops varied: {fixed}"
        assert all(a < b for a, b in zip(growing, growing[1:])), growing


def test_acceptance_8_causality():
    with criterion(8, "suffix edits never reach earlier outputs"):
        others = ("fft", "chunkwise", "parallel_prefix")
        n = 32
        for variant in VARIANTS:
            config = tiny_config(variant=variant)
            params = init_layer_params(config, make_rng(801), contraction_scale=0.5)
            rng = make_rng(802)
            x = rng.standard_normal((n, config.model_dim))
            base = forward(params, x, config)
            for trial in range(50):
                cut = int(rng.integers(1, n))
                edited = x.copy()
                edited[cut:] += rng.standard_normal((n - cut, config.model_dim))
                got = forward(params, edited, config)
                assert np.array_equal(got[:cut], base[:cut]), f"{variant}/seq/{trial}"
                alt = dataclasses.replace(config, backend=others[trial % 3])
                assert rel_err(forward(params, edited, alt)[:cut],
                               forward(params, x, alt)[:cut]) <= 1e-12, \
                    f"{variant}/{alt.backend}/{trial}"


def test_acceptance_9_rff_error_decreases():
    with criterion(9, "kernel estimate error falls with S; final < 0.005"):
        d = 4
        rng = make_rng(901)
        pairs = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(10)]
        errors = []
        for s in (100, 10_000, 1_000_000):
            omega = make_rng(902).standard_normal((s, d))
            worst = 0.0
            for xx, yy in pairs:
                want = np.exp(-0.5 * np.sum((xx - yy) ** 2))
                got = rff_features(xx, omega) @ rff_features(yy, omega)
                worst = max(worst, abs(got - want))
            errors.append(worst)
        assert errors[0] > errors[1] > errors[2], errors
        assert errors[-1] < 0.005, errors
