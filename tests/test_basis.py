import dataclasses

import numpy as np
import pytest

from interdomain.basis import (
    InterdomainState,
    make_indicator_basis,
    make_legendre_basis,
    project,
    readout_free,
    readout_nw,
    ssm_basis,
)
from interdomain.config import BACKENDS, QUERY_VARIANTS, make_rng
from interdomain.features import FeatureMap
from interdomain.layer import forward_trace, init_layer_params
from interdomain.oracle import ZeroDenominatorError, feature_attention
from interdomain.ssm import random_ssm, run_scan, stack_ssms

from helpers import rel_err, tiny_config


def positive_inputs(rng, n, r, d_v):
    # strictly positive features keep every attention denominator away from 0
    keys = rng.uniform(0.05, 1.0, size=(n, r))
    values = rng.standard_normal((n, d_v))
    return keys, values


# --- basis constructors ---

def test_indicator_basis_is_identity_grid():
    phi = make_indicator_basis(5)
    assert phi.shape == (5, 5)
    assert np.array_equal(phi, np.eye(5))


def test_indicator_rejects_empty_grid():
    with pytest.raises(ValueError, match="positive"):
        make_indicator_basis(0)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 5), (4, 8), (8, 8), (16, 64), (32, 257)])
def test_legendre_rows_orthonormal(m, n):
    phi = make_legendre_basis(m, n)
    assert phi.shape == (m, n)
    gram = phi @ phi.T
    assert np.max(np.abs(gram - np.eye(m))) < 1e-10


@pytest.mark.parametrize("m,n", [(78, 78), (82, 83), (257, 257)])
def test_legendre_rows_orthonormal_at_high_degree(m, n):
    # sizes where the three-term recurrence's drift left rows a modified
    # Gram-Schmidt sweep could not make orthonormal to 1e-10
    phi = make_legendre_basis(m, n)
    assert phi.shape == (m, n)
    assert np.max(np.abs(phi @ phi.T - np.eye(m))) < 1e-13
    assert np.all(phi[0] > 0)  # the constant row keeps its sign


def test_legendre_spans_monomials():
    # row space must equal the span of {1, s, ..., s^(M-1)}; compare the
    # orthogonal projectors built two independent ways
    m, n = 5, 12
    phi = make_legendre_basis(m, n)
    s = np.linspace(-1.0, 1.0, n)
    q, _ = np.linalg.qr(np.vander(s, m, increasing=True))
    assert rel_err(phi.T @ phi, q @ q.T) < 1e-10


def test_legendre_first_row_is_constant():
    phi = make_legendre_basis(3, 9)
    assert np.allclose(phi[0], 1.0 / 3.0)


def test_legendre_bad_sizes_rejected():
    with pytest.raises(ValueError, match="1 <= M <= N"):
        make_legendre_basis(5, 4)
    with pytest.raises(ValueError, match="1 <= M <= N"):
        make_legendre_basis(0, 4)


# --- projection ---

def test_indicator_projection_is_verbatim_copy():
    rng = make_rng(0)
    keys, values = positive_inputs(rng, 6, 3, 2)
    st = project(keys, values, make_indicator_basis(6))
    assert np.array_equal(st.u, keys)
    assert np.array_equal(st.gamma, values)
    assert np.array_equal(st.eta, np.ones(6))


def test_projection_zero_values_zero_gamma():
    rng = make_rng(1)
    keys, _ = positive_inputs(rng, 8, 3, 2)
    st = project(keys, np.zeros((8, 2)), make_legendre_basis(4, 8))
    assert np.all(st.gamma == 0.0)
    assert not np.all(st.u == 0.0)


def test_projection_matches_double_loop():
    rng = make_rng(2)
    keys, values = positive_inputs(rng, 8, 3, 2)
    phi = make_legendre_basis(4, 8)
    st = project(keys, values, phi)
    u = np.zeros((4, 3))
    for mi in range(4):
        for t in range(8):
            u[mi] += phi[mi, t] * keys[t]
    assert rel_err(st.u, u) < 1e-14


def test_projection_length_mismatch_rejected():
    with pytest.raises(ValueError, match="grid"):
        project(np.ones((5, 2)), np.ones((5, 2)), make_indicator_basis(6))


@pytest.mark.parametrize("name", ["keys_feat", "values", "phi"])
def test_projection_rejects_complex_arguments(name):
    # a complex argument names itself instead of losing its imaginary part
    args = {"keys_feat": np.ones((3, 2)), "values": np.ones((3, 2)),
            "phi": make_indicator_basis(3)}
    args[name] = (1 + 1j) * args[name]
    with pytest.raises(ValueError, match=f"{name} must be real"):
        project(**args)


@pytest.mark.parametrize("readout", [readout_free, readout_nw])
def test_readout_rejects_complex_queries(readout):
    st = project(np.ones((3, 2)), np.ones((3, 2)), make_indicator_basis(3))
    with pytest.raises(ValueError, match="q_feat must be real"):
        readout(np.ones(2) + 1j, st)


def test_projection_takes_any_2d_basis_array():
    # a list basis raised a bare AttributeError, and a 1-D one an IndexError
    keys, values = np.ones((2, 3)), np.ones((2, 2))
    st = project(keys, values, [[1.0, 2.0]])
    assert np.array_equal(st.u, [[3.0, 3.0, 3.0]]) and st.u.dtype == float
    with pytest.raises(ValueError, match=r"basis must be an \(M, N\) array, got shape \(2,\)"):
        project(keys, values, np.ones(2))


def test_projection_linear_in_values():
    rng = make_rng(3)
    keys, va = positive_inputs(rng, 7, 3, 2)
    vb = rng.standard_normal((7, 2))
    phi = make_legendre_basis(3, 7)
    qf = rng.uniform(0.05, 1.0, size=(4, 3))
    free = lambda v: readout_free(qf, project(keys, v, phi))
    assert rel_err(free(2.0 * va - 3.0 * vb), 2.0 * free(va) - 3.0 * free(vb)) < 1e-12


# --- readouts ---

def test_readout_free_matches_triple_loop():
    rng = make_rng(4)
    keys, values = positive_inputs(rng, 6, 3, 2)
    st = project(keys, values, make_legendre_basis(4, 6))
    qf = rng.uniform(0.05, 1.0, size=(2, 3))
    want = np.zeros((2, 2))
    for i in range(2):
        for mi in range(4):
            w = qf[i] @ st.u[mi]
            want[i] += w * st.gamma[mi]
    assert rel_err(readout_free(qf, st), want) < 1e-13


def test_readout_nw_single_basis_function_returns_value_mean():
    rng = make_rng(5)
    keys, values = positive_inputs(rng, 9, 3, 2)
    st = project(keys, values, make_legendre_basis(1, 9))
    qf = rng.uniform(0.05, 1.0, size=(3, 3))
    assert rel_err(readout_nw(qf, st), np.tile(values.mean(0), (3, 1))) < 1e-12


def test_readout_nw_zero_denominator_reports_row():
    st = InterdomainState(u=np.zeros((2, 3)), gamma=np.ones((2, 2)), eta=np.ones(2))
    with pytest.raises(ZeroDenominatorError) as exc:
        readout_nw(np.ones((4, 3)), st)
    assert exc.value.index == 0

    rng = make_rng(6)
    keys, values = positive_inputs(rng, 4, 3, 2)
    st = project(keys, values, make_indicator_basis(4))
    qf = np.vstack([rng.uniform(0.05, 1.0, size=3), np.zeros(3)])
    with pytest.raises(ZeroDenominatorError) as exc:
        readout_nw(qf, st)
    assert exc.value.index == 1


@pytest.mark.parametrize("readout", [readout_free, readout_nw])
def test_readout_names_both_feature_widths(readout):
    # numpy raised its bare matmul error on the width, and readout_nw
    # divided a stack of query rows by the wrong denominators
    st = project(np.ones((5, 4)), np.ones((5, 2)), make_indicator_basis(5))
    with pytest.raises(ValueError, match=r"must be \(N_q, 4\) rows.*got shape \(2, 3\)"):
        readout(np.ones((2, 3)), st)
    with pytest.raises(ValueError, match=r"got shape \(2, 2, 4\)"):
        readout(np.ones((2, 2, 4)), st)


def test_readout_accepts_single_query_row():
    rng = make_rng(7)
    keys, values = positive_inputs(rng, 5, 3, 2)
    st = project(keys, values, make_indicator_basis(5))
    qf = rng.uniform(0.05, 1.0, size=3)
    assert readout_free(qf, st).shape == (1, 2)
    assert readout_nw(qf, st).shape == (1, 2)


# --- complete bases recover attention exactly ---

@pytest.mark.parametrize("make", [make_indicator_basis, lambda n: make_legendre_basis(n, n)])
def test_complete_basis_reproduces_feature_attention(make):
    rng = make_rng(8)
    n = 16
    keys, values = positive_inputs(rng, n, 4, 3)
    qf = rng.uniform(0.05, 1.0, size=(6, 4))
    st = project(keys, values, make(n))
    want = feature_attention(qf, keys, values, FeatureMap("identity"))
    assert rel_err(readout_nw(qf, st), want) < 1e-10
    assert rel_err(readout_free(qf, st), (qf @ keys.T) @ values) < 1e-10


def test_truncation_residual_monotone_in_basis_size():
    # nested bases: each added row can only shrink what the projection misses
    rng = make_rng(9)
    n = 32
    t = np.linspace(0, 1, n)
    keys = np.stack([np.exp(-t), 0.5 + 0.5 * np.sin(2 * np.pi * t)], axis=1)
    residuals = []
    for m in range(1, n + 1):
        phi = make_legendre_basis(m, n)
        residuals.append(np.linalg.norm(keys - phi.T @ (phi @ keys)))
    diffs = np.diff(residuals)
    assert np.all(diffs <= 1e-12)
    assert residuals[-1] < 1e-10
    assert residuals[0] > 1e-3


def test_smooth_inputs_need_few_basis_functions():
    rng = make_rng(10)
    n = 64
    t = np.linspace(0, 1, n)
    keys = np.stack([1.5 + np.sin(2 * np.pi * t), np.exp(-2 * t) + 0.2], axis=1)
    values = np.stack([np.cos(np.pi * t), t], axis=1)
    qf = rng.uniform(0.05, 1.0, size=(4, 2))
    want = feature_attention(qf, keys, values, FeatureMap("identity"))
    errs = {}
    for m in (2, 8, n):
        st = project(keys, values, make_legendre_basis(m, n))
        errs[m] = rel_err(readout_nw(qf, st), want)
    assert errs[n] < 1e-10
    assert errs[8] < errs[2]
    assert errs[8] < 1e-2


# --- the SSM's basis: every scan is a causal projection ---

def ssm_prefix_states(ssm, z, r, x0=None):
    """[U | Gamma] at each position t, as ``project`` of the first t + 1
    inputs onto ``ssm_basis(ssm, t + 1)``; a state x0 adds
    Re(C diag(lam^(t+1)) x0^T)."""
    states = []
    for t in range(z.shape[0]):
        st = project(z[: t + 1, :r], z[: t + 1, r:], ssm_basis(ssm, t + 1))
        if x0 is not None:
            carried = (ssm.c_out @ (ssm.lam[:, None] ** (t + 1) * x0.T)).real
            st = InterdomainState(u=st.u + carried[:, :r], gamma=st.gamma + carried[:, r:],
                                  eta=st.eta)
        states.append(st)
    return states


@pytest.mark.parametrize("start", ["zero", "x0"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_scan_projects_on_the_ssm_basis(backend, start):
    # M = 8, R = 5, d = 3, N = 40, two heads; chunkwise takes chunks of 6,
    # the last one ragged
    rng = make_rng(16)
    m, r, n = 8, 5, 40
    ssm = random_ssm(m, rng)
    z, f_q = rng.standard_normal((n, r + 3)), rng.standard_normal((n, 2, r))
    x0 = rng.standard_normal((r + 3, m)) + 1j * rng.standard_normal((r + 3, m)) \
        if start == "x0" else None
    states = ssm_prefix_states(ssm, z, r, x0)
    outputs = run_scan(ssm, z, backend, chunk=6, x0=x0).outputs
    want = np.stack([np.concatenate([st.u, st.gamma], axis=1) for st in states])
    assert rel_err(outputs, want) < 1e-12
    heads = run_scan(ssm, z, backend, chunk=6, x0=x0, f_q=f_q).outputs
    want = np.stack([readout_free(f_q[t], st) for t, st in enumerate(states)])
    assert rel_err(heads, want) < 1e-12


@pytest.mark.parametrize("n_kv", [1, 2])
@pytest.mark.parametrize("variant", QUERY_VARIANTS)
def test_layer_heads_read_out_ssm_basis_projections(variant, n_kv):
    config = tiny_config(variant=variant, n_kv=n_kv)
    params = init_layer_params(config, make_rng(17))
    n, r = 7, config.feature_dim
    x = make_rng(18).standard_normal((n, config.model_dim))
    for backend in BACKENDS:
        _, trace = forward_trace(params, x, dataclasses.replace(config, backend=backend))
        z, f_q = trace["z"], trace["f_q"].reshape(n, n_kv, -1, r)
        states = [ssm_prefix_states(params.ssm[g], z[:, g], r) for g in range(n_kv)]
        want = np.stack([[readout_free(f_q[t, g], states[g][t]) for g in range(n_kv)]
                         for t in range(n)])
        assert rel_err(trace["o_cat"], want.reshape(n, -1)) < 1e-12, backend


def test_ssm_basis_takes_one_group():
    ssm = random_ssm(3, make_rng(19))
    with pytest.raises(ValueError, match="one group at a time"):
        ssm_basis(stack_ssms([ssm, ssm]), 4)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        ssm_basis(ssm, 0)


def test_ssm_basis_takes_an_integer_length():
    # 2.5 gave an (M, 3) basis at the fractional lags 1.5, 0.5 and -0.5,
    # and True an (M, 1) one; a numpy integer is a length like any other
    ssm = random_ssm(3, make_rng(20))
    for bad in (2.5, 3.0, True, False, "3", None):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            ssm_basis(ssm, bad)
    assert np.array_equal(ssm_basis(ssm, np.int64(4)), ssm_basis(ssm, 4))
    assert ssm_basis(ssm, 4).shape == (3, 4)
