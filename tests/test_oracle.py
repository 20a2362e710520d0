import numpy as np
import pytest

from interdomain.config import make_rng
from interdomain.features import FeatureMap
from interdomain.oracle import (
    AttentionInputs,
    ZeroDenominatorError,
    feature_attention,
    softmax_attention,
)

from helpers import rel_err


def random_inputs(rng, n_q, n, d, d_v, causal=False):
    return AttentionInputs(
        q=rng.standard_normal((n_q, d)),
        k=rng.standard_normal((n, d)),
        v=rng.standard_normal((n, d_v)),
        causal=causal,
    )


# --- input validation ---

def test_rejects_one_dimensional_arrays():
    with pytest.raises(ValueError, match="2-D"):
        AttentionInputs(q=np.zeros(3), k=np.zeros((3, 3)), v=np.zeros((3, 2)))


def test_rejects_mismatched_widths():
    with pytest.raises(ValueError, match="width"):
        AttentionInputs(q=np.zeros((2, 3)), k=np.zeros((2, 4)), v=np.zeros((2, 2)))


def test_rejects_mismatched_key_value_counts():
    with pytest.raises(ValueError, match="count"):
        AttentionInputs(q=np.zeros((2, 3)), k=np.zeros((4, 3)), v=np.zeros((5, 2)))


def test_causal_needs_square_alignment():
    with pytest.raises(ValueError, match="aligned"):
        AttentionInputs(
            q=np.zeros((2, 3)), k=np.zeros((4, 3)), v=np.zeros((4, 2)), causal=True
        )


# --- softmax reference ---

def test_softmax_single_key_returns_that_value():
    rng = make_rng(0)
    inp = random_inputs(rng, 3, 1, 4, 5)
    out = softmax_attention(inp)
    assert rel_err(out, np.broadcast_to(inp.v[0], (3, 5))) < 1e-15


def test_softmax_identical_keys_average_values():
    rng = make_rng(1)
    k = np.tile(rng.standard_normal(4), (6, 1))
    v = rng.standard_normal((6, 3))
    inp = AttentionInputs(q=rng.standard_normal((2, 4)), k=k, v=v)
    assert rel_err(softmax_attention(inp), np.tile(v.mean(0), (2, 1))) < 1e-12


def test_softmax_matches_unstabilized_loop():
    rng = make_rng(2)
    inp = random_inputs(rng, 4, 3, 5, 2)
    scale = 1.0 / np.sqrt(5.0)
    want = np.zeros((4, 2))
    for i in range(4):
        w = np.exp(inp.q[i] @ inp.k.T * scale)
        want[i] = (w / w.sum()) @ inp.v
    assert rel_err(softmax_attention(inp), want) < 1e-12


def test_softmax_causal_rows_match_prefix_calls():
    rng = make_rng(3)
    inp = random_inputs(rng, 5, 5, 4, 3, causal=True)
    out = softmax_attention(inp)
    for t in range(5):
        prefix = AttentionInputs(q=inp.q[t : t + 1], k=inp.k[: t + 1], v=inp.v[: t + 1])
        assert rel_err(out[t], softmax_attention(prefix)[0]) < 1e-12


def test_softmax_key_permutation_equivariance():
    rng = make_rng(4)
    inp = random_inputs(rng, 3, 7, 4, 2)
    perm = rng.permutation(7)
    shuffled = AttentionInputs(q=inp.q, k=inp.k[perm], v=inp.v[perm])
    assert rel_err(softmax_attention(inp), softmax_attention(shuffled)) < 1e-12


def test_softmax_output_stays_in_value_hull():
    rng = make_rng(5)
    inp = random_inputs(rng, 10, 6, 4, 3)
    out = softmax_attention(inp)
    lo, hi = inp.v.min(0), inp.v.max(0)
    assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


def test_softmax_survives_large_logits():
    q = np.array([[100.0, 0.0]])
    k = np.array([[100.0, 0.0], [-100.0, 0.0]])
    v = np.array([[1.0], [2.0]])
    out = softmax_attention(AttentionInputs(q=q, k=k, v=v))
    assert np.isfinite(out).all()
    assert rel_err(out, np.array([[1.0]])) < 1e-12


# --- feature-map reference ---

def test_feature_single_key_returns_that_value():
    rng = make_rng(6)
    inp = AttentionInputs(
        q=np.abs(rng.standard_normal((3, 4))) + 0.1,
        k=np.abs(rng.standard_normal((1, 4))) + 0.1,
        v=rng.standard_normal((1, 2)),
    )
    out = feature_attention(inp, FeatureMap("identity"))
    assert rel_err(out, np.broadcast_to(inp.v[0], (3, 2))) < 1e-12


def test_feature_causal_rows_match_prefix_calls():
    rng = make_rng(7)
    q = np.abs(rng.standard_normal((6, 3))) + 0.1
    k = np.abs(rng.standard_normal((6, 3))) + 0.1
    v = rng.standard_normal((6, 2))
    fmap = FeatureMap("identity")
    out = feature_attention(AttentionInputs(q=q, k=k, v=v, causal=True), fmap)
    for t in range(6):
        prefix = AttentionInputs(q=q[t : t + 1], k=k[: t + 1], v=v[: t + 1])
        assert rel_err(out[t], feature_attention(prefix, fmap)[0]) < 1e-12


def test_feature_zero_denominator_reports_query_index():
    q = np.ones((3, 2))
    k = np.zeros((4, 2))
    v = np.ones((4, 2))
    with pytest.raises(ZeroDenominatorError) as exc:
        feature_attention(AttentionInputs(q=q, k=k, v=v), FeatureMap("identity"))
    assert exc.value.index == 0
    assert "query index 0" in str(exc.value)


def test_feature_rff_matches_closed_form_gaussian_smoother():
    # With Gaussian features the estimator converges to the kernel-weighted
    # average under exp(-|q - k|^2 / 2); check against that form directly.
    rng = make_rng(8)
    n, d = 5, 2
    q = 0.3 * rng.standard_normal((4, d))
    k = 0.3 * rng.standard_normal((n, d))
    v = rng.standard_normal((n, 3))
    fmap = FeatureMap("rff", omega=make_rng(100).standard_normal((200_000, d)))
    got = feature_attention(AttentionInputs(q=q, k=k, v=v), fmap)
    w = np.exp(-0.5 * np.sum((q[:, None, :] - k[None, :, :]) ** 2, axis=-1))
    want = (w / w.sum(1, keepdims=True)) @ v
    assert rel_err(got, want) < 0.02
