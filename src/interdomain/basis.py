"""Exact basis projections: the uncompressed form of the fixed-state readout.

A sequence of key features K (N, R) and values V (N, d) is projected onto
M basis functions sampled on the N-point token grid, held as the (M, N)
array Phi of their rows: U = Phi K, Gamma = Phi V.  ``project`` takes any
rows, and the denominator-free readout of query features f_q is then the
Gram form

    f_q U^T Gamma = f_q K^T (Phi^T Phi) V.

With a complete orthonormal basis, Phi^T Phi = I (M == N), it is feature
attention's numerator f_q K^T V, and the normalized readout reproduces
feature attention exactly; orthonormality is needed only for that
equality.  ``make_indicator_basis(n)`` and ``make_legendre_basis(n, n)``
are such bases.

The SSM keeps such a projection online.  From a zero state its outputs
[U | Gamma] at position t are ``project`` of the first t + 1 inputs onto
``ssm_basis(ssm, t + 1)``, the rows Phi_t[:, s] = Re(C (lam^(t-s) * b)),
s <= t, which are the columns of the lower-triangular mixing matrix of
Dao and Gu, *Transformers are SSMs* (2024); a state x0 adds
Re(C diag(lam^(t+1)) x0^T).  So a query scan's head outputs are the Gram
form on Phi_t, and a learned SSM relaxes the complete basis to M rows
that every prefix shares.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import ZeroDenominatorError
from .ssm import DiagonalSSM, _check_count, _real

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
    recurrence (numerically equivalent to Gram-Schmidt on monomials), then
    re-orthonormalized by one Householder QR of those rows, which keeps
    their order, so row k still spans the polynomials of degree <= k, and
    the signs fixed by diag(R), so each row keeps its sign.  The rows are
    orthonormal to roundoff, (257, 257) included, as the tests check, and
    ``_check_orthonormal`` raises should they not be.  Requires M <= N.
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
    # the recurrence drifts from orthogonality at high degree: scrub it
    q, r = np.linalg.qr(rows.T)
    rows = q.T * np.sign(np.diag(r))[:, None]
    _check_orthonormal(rows)
    return rows


def ssm_basis(ssm: DiagonalSSM, n: int) -> np.ndarray:
    """The (M, n) rows Phi[:, s] = Re(C (lam^(n-1-s) * b)) onto which one
    SSM group projects its first n inputs to form its output at position
    n - 1.  Each pole is raised to each lag by a power, sharing no
    arithmetic with the scans; a stacked SSM, and an ``n`` that is not an
    integer >= 1 (a bool or 2.5 would give lags of another count or
    fractional ones), raise ``ValueError``."""
    if ssm.delta.ndim != 1:
        raise ValueError("ssm_basis takes one group at a time: pass ssm[g]")
    _check_count(n, "n")
    lags = np.arange(n - 1, -1, -1)
    return (ssm.c_out @ (ssm.lam[:, None] ** lags * ssm.b[:, None])).real


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
    (M, N) basis ``phi``, which need not be orthonormal.  A complex
    argument raises ``ValueError`` naming it instead of losing its
    imaginary part."""
    keys_feat, values, phi = (_real(a, name) for a, name in
                              ((keys_feat, "keys_feat"), (values, "values"), (phi, "phi")))
    if phi.ndim != 2:
        raise ValueError(f"basis must be an (M, N) array, got shape {phi.shape}")
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


def _query_rows(q_feat, state: InterdomainState) -> np.ndarray:
    """Query features as (N_q, R) float rows, R the state's key feature
    width; one row may come as a vector, and a complex one raises."""
    q_feat = np.atleast_2d(_real(q_feat, "q_feat"))
    if q_feat.ndim != 2 or q_feat.shape[1] != state.u.shape[1]:
        raise ValueError(f"query features must be (N_q, {state.u.shape[1]}) rows, as wide as "
                         f"the key features, got shape {q_feat.shape}")
    return q_feat


def readout_nw(q_feat: np.ndarray, state: InterdomainState) -> np.ndarray:
    """Normalized readout: (F U^T Gamma) / (F U^T eta) rowwise.

    Raises ``ZeroDenominatorError`` with the offending query row if any
    denominator is exactly zero.
    """
    q_feat = _query_rows(q_feat, state)
    weights = q_feat @ state.u.T  # (N_q, M)
    den = weights @ state.eta
    bad = np.flatnonzero(den == 0.0)
    if bad.size:
        raise ZeroDenominatorError(int(bad[0]))
    return (weights @ state.gamma) / den[:, None]


def readout_free(q_feat: np.ndarray, state: InterdomainState) -> np.ndarray:
    """Denominator-free readout F U^T Gamma; the form the learned layer uses."""
    return (_query_rows(q_feat, state) @ state.u.T) @ state.gamma

