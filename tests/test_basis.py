import numpy as np
import pytest

from interdomain.basis import (
    InterdomainState,
    causal_project,
    make_indicator_basis,
    make_legendre_basis,
    project,
    readout_free,
    readout_nw,
)
from interdomain.config import make_rng
from interdomain.features import FeatureMap
from interdomain.oracle import ZeroDenominatorError, feature_attention

from helpers import rel_err


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


# --- causal (per-prefix) projection ---

def test_causal_first_entry_sees_one_token():
    rng = make_rng(11)
    keys, values = positive_inputs(rng, 5, 3, 2)
    states = causal_project(keys, values, 3)
    assert len(states) == 5
    first = project(keys[:1], values[:1], make_legendre_basis(1, 1))
    assert np.array_equal(states[0].u, first.u)
    assert np.array_equal(states[0].gamma, first.gamma)


def test_causal_states_ignore_suffix_edits():
    rng = make_rng(12)
    keys, values = positive_inputs(rng, 6, 3, 2)
    states = causal_project(keys, values, 4)
    keys2, values2 = keys.copy(), values.copy()
    keys2[4:] = rng.uniform(0.05, 1.0, size=(2, 3))
    values2[4:] = rng.standard_normal((2, 2))
    states2 = causal_project(keys2, values2, 4)
    for i in range(4):
        assert np.array_equal(states[i].u, states2[i].u)
        assert np.array_equal(states[i].gamma, states2[i].gamma)
        assert np.array_equal(states[i].eta, states2[i].eta)


def test_causal_sweep_matches_prefix_calls():
    rng = make_rng(13)
    keys, values = positive_inputs(rng, 7, 3, 2)
    states = causal_project(keys, values, 3)
    for i in range(7):
        direct = project(keys[: i + 1], values[: i + 1], make_legendre_basis(min(3, i + 1), i + 1))
        assert rel_err(states[i].u, direct.u) < 1e-15
        assert rel_err(states[i].gamma, direct.gamma) < 1e-15


@pytest.mark.parametrize("n_keys,n_values", [(5, 7), (7, 5)])
def test_causal_key_and_value_counts_must_agree(n_keys, n_values):
    # five keys and seven values gave five states and never read the last
    # two values
    with pytest.raises(ValueError, match=f"key count {n_keys} != value count {n_values}"):
        causal_project(np.ones((n_keys, 2)), np.ones((n_values, 2)), 3)


def test_causal_states_truncate_early_prefixes():
    # prefix i is projected on min(M, i + 1) rows: every row its grid holds
    # until there are M
    rng = make_rng(14)
    keys, values = positive_inputs(rng, 6, 3, 2)
    states = causal_project(keys, values, 4)
    assert [st.u.shape for st in states] == [(m, 3) for m in (1, 2, 3, 4, 4, 4)]
    assert [st.gamma.shape for st in states] == [(m, 2) for m in (1, 2, 3, 4, 4, 4)]
    assert [st.eta.shape for st in states] == [(m,) for m in (1, 2, 3, 4, 4, 4)]
