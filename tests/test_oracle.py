import numpy as np
import pytest

from interdomain.config import make_rng
from interdomain.features import FeatureMap
from interdomain.oracle import ZeroDenominatorError, feature_attention

from helpers import rel_err


# --- input validation ---

def test_rejects_one_dimensional_arrays():
    with pytest.raises(ValueError, match="2-D"):
        feature_attention(np.zeros(3), np.zeros((3, 3)), np.zeros((3, 2)), FeatureMap("identity"))


def test_rejects_mismatched_widths():
    with pytest.raises(ValueError, match="width"):
        feature_attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 2)),
                          FeatureMap("identity"))


def test_rejects_mismatched_key_value_counts():
    with pytest.raises(ValueError, match="count"):
        feature_attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((5, 2)),
                          FeatureMap("identity"))


@pytest.mark.parametrize("name", ["q", "k", "v"])
def test_rejects_complex_arguments(name):
    # a complex argument names itself instead of losing its imaginary part
    args = {"q": np.ones((2, 3)), "k": np.ones((4, 3)), "v": np.ones((4, 2))}
    args[name] = (1 + 1j) * args[name]
    with pytest.raises(ValueError, match=f"{name} must be real"):
        feature_attention(args["q"], args["k"], args["v"], FeatureMap("identity"))


# --- feature-map reference ---

def test_feature_single_key_returns_that_value():
    rng = make_rng(6)
    q = np.abs(rng.standard_normal((3, 4))) + 0.1
    k = np.abs(rng.standard_normal((1, 4))) + 0.1
    v = rng.standard_normal((1, 2))
    out = feature_attention(q, k, v, FeatureMap("identity"))
    assert rel_err(out, np.broadcast_to(v[0], (3, 2))) < 1e-12


def test_feature_zero_denominator_reports_query_index():
    q = np.ones((3, 2))
    k = np.zeros((4, 2))
    v = np.ones((4, 2))
    with pytest.raises(ZeroDenominatorError) as exc:
        feature_attention(q, k, v, FeatureMap("identity"))
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
    got = feature_attention(q, k, v, fmap)
    w = np.exp(-0.5 * np.sum((q[:, None, :] - k[None, :, :]) ** 2, axis=-1))
    want = (w / w.sum(1, keepdims=True)) @ v
    assert rel_err(got, want) < 0.02
