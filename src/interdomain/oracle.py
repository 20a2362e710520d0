"""Reference attention: feature-space kernel regression by explicit loops.

The ground truth the basis projections are checked against.
``feature_attention`` is deliberately written as an explicit double
summation so it stays independent of the vectorized production code.
"""
from __future__ import annotations

import numpy as np

from .features import FeatureMap, apply_feature_map
from .ssm import _real


class ZeroDenominatorError(ValueError):
    """A normalized readout hit an exactly-zero denominator."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero attention denominator at query index {index}")


def feature_attention(q, k, v, fmap: FeatureMap) -> np.ndarray:
    """Kernel regression of values (N, d_v) at queries (N_q, d) over keys
    (N, d), with K(q, k) replaced by features(q) @ features(k).

    Every query attends to every key.  Evaluated by explicit double
    summation over queries and keys.  Raises ``ZeroDenominatorError``
    naming the first query whose weight sum is exactly zero, and
    ``ValueError`` naming a complex q, k or v.
    """
    q, k, v = (_real(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v")))
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("q, k, v must be 2-D arrays")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"query width {q.shape[1]} != key width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"key count {k.shape[0]} != value count {v.shape[0]}")
    q_feat = np.atleast_2d(apply_feature_map(fmap, q))
    k_feat = np.atleast_2d(apply_feature_map(fmap, k))
    n_q, n = q_feat.shape[0], k_feat.shape[0]
    out = np.zeros((n_q, v.shape[1]))
    for i in range(n_q):
        num = np.zeros(v.shape[1])
        den = 0.0
        for j in range(n):
            w = float(q_feat[i] @ k_feat[j])
            num += w * v[j]
            den += w
        if den == 0.0:
            raise ZeroDenominatorError(i)
        out[i] = num / den
    return out
