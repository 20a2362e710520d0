"""Exact basis projections: the uncompressed form of the fixed-state readout.

A sequence of key features and values is projected onto M basis functions
sampled on the N-point token grid, held as the (M, N) array of their
orthonormal rows.  With a complete basis (M == N) the normalized readout
reproduces feature attention exactly; truncating the basis is what the
learned state-space path approximates online.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import ZeroDenominatorError

ORTHO_TOL = 1e-10


def _check_orthonormal(phi: np.ndarray) -> None:
    gram = phi @ phi.T
    err = np.max(np.abs(gram - np.eye(phi.shape[0])))
    if err > ORTHO_TOL:
        raise ValueError(f"basis rows are not orthonormal (max Gram error {err:.3e})")


def make_indicator_basis(n: int) -> np.ndarray:
    """One indicator per grid point as the (N, N) identity; complete by
    construction (M == N)."""
    if n < 1:
        raise ValueError("grid size must be positive")
    return np.eye(n)


def make_legendre_basis(m: int, n: int) -> np.ndarray:
    """First M discrete orthonormal polynomials on the uniform N-point grid,
    as the (M, N) array of their rows.

    Built by orthonormalizing the monomial ladder with the three-term
    recurrence (numerically equivalent to Gram-Schmidt on monomials but
    stable at high degree), then re-orthonormalized once.  Requires M <= N.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= M <= N, got M={m}, N={n}")
    # an affine grid map changes nothing about the span; [-1, 1] conditions
    # the recurrence better than the raw token indices
    s = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    rows = np.zeros((m, n))
    rows[0] = 1.0 / np.sqrt(n)
    prev = np.zeros(n)
    for k in range(1, m):
        w = s * rows[k - 1]
        w -= (w @ rows[k - 1]) * rows[k - 1]
        if k >= 2:
            w -= (w @ prev) * prev
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise ValueError(f"monomial ladder degenerated at degree {k}")
        prev = rows[k - 1]
        rows[k] = w / nw
    # one modified Gram-Schmidt sweep to scrub accumulated drift
    for k in range(m):
        for j in range(k):
            rows[k] -= (rows[k] @ rows[j]) * rows[j]
        rows[k] /= np.linalg.norm(rows[k])
    _check_orthonormal(rows)
    return rows


@dataclass(frozen=True)
class InterdomainState:
    """Basis-space summary of a key/value sequence.

    u:     (M, R)   projected key features
    gamma: (M, d)   projected values
    eta:   (M,)     projected all-ones sequence (the normalizer's numerator)
    """

    u: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray


def project(keys_feat: np.ndarray, values: np.ndarray, phi: np.ndarray) -> InterdomainState:
    """Project key features (N, R) and values (N, d) onto the rows of the
    (M, N) basis ``phi``."""
    keys_feat = np.asarray(keys_feat, dtype=float)
    values = np.asarray(values, dtype=float)
    n = phi.shape[1]
    if keys_feat.shape[0] != n or values.shape[0] != n:
        raise ValueError(
            f"sequence length must match the basis grid ({n}), got "
            f"keys {keys_feat.shape[0]} / values {values.shape[0]}"
        )
    return InterdomainState(
        u=phi @ keys_feat,
        gamma=phi @ values,
        eta=phi @ np.ones(n),
    )


def readout_nw(q_feat: np.ndarray, state: InterdomainState) -> np.ndarray:
    """Normalized readout: (F U^T Gamma) / (F U^T eta) rowwise.

    Raises ``ZeroDenominatorError`` with the offending query row if any
    denominator is exactly zero.
    """
    q_feat = np.atleast_2d(np.asarray(q_feat, dtype=float))
    weights = q_feat @ state.u.T  # (N_q, M)
    den = weights @ state.eta
    bad = np.flatnonzero(den == 0.0)
    if bad.size:
        raise ZeroDenominatorError(int(bad[0]))
    return (weights @ state.gamma) / den[:, None]


def readout_free(q_feat: np.ndarray, state: InterdomainState) -> np.ndarray:
    """Denominator-free readout F U^T Gamma; the form the learned layer uses."""
    q_feat = np.atleast_2d(np.asarray(q_feat, dtype=float))
    return (q_feat @ state.u.T) @ state.gamma


def causal_project(keys_feat: np.ndarray, values: np.ndarray, m: int) -> list[InterdomainState]:
    """Per-prefix projection: entry i summarizes keys/values [0..i] on the
    first min(M, i + 1) Legendre rows of the (i + 1)-point grid.

    The result at position i depends only on the prefix, which is the
    causality statement the online path inherits.
    """
    keys_feat = np.asarray(keys_feat, dtype=float)
    values = np.asarray(values, dtype=float)
    n = keys_feat.shape[0]
    if values.shape[0] != n:
        raise ValueError(f"key count {n} != value count {values.shape[0]}")
    return [project(keys_feat[: i + 1], values[: i + 1],
                    make_legendre_basis(min(m, i + 1), i + 1)) for i in range(n)]
