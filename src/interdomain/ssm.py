"""Diagonal complex SSM: initialization, four forward scans, and a
segment-recompute backward.

The recurrence, per input channel c:

    x_t[c] = lam * x_{t-1}[c] + b * z_t[c]        lam = exp(delta * a)
    y_t[:, c] = Re(c_out @ x_t[c])                 c_out is (M, M)

``b`` is one complex M-vector applied to every input channel; the channels
share the dynamics and differ only through their inputs.  A state is
(W, M), one row per channel, so ``lam`` and ``b`` broadcast on the trailing
axis and every product of a real operand with a state is one real matmul on
the state's float view (real and imaginary parts interleaved along M).

Every scan returns the readouts and the final state, never the states in
between.  All four compute the same map and are interchangeable;
``scan_sequential`` is the definitional one.

The chunkwise scan and the backward get the state entering each segment
from one closed-form step per segment (``_segment_entries``).  The scan then
advances every chunk in lockstep from its entry state; the backward keeps
only the entry states, rebuilds each segment forward from one and runs the
adjoint back across it, so its memory is O(N/interval + interval) states.
Every time-stepping loop is ``_recur``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DELTA_LOG10_RANGE = (-3.0, -1.0)


@dataclass(frozen=True)
class DiagonalSSM:
    """Immutable parameter bundle; ``lam`` is derived, use ``make_ssm`` /
    ``ssm_with`` so it can never go stale.

    The fields may carry a leading group axis, (G, M) and (G, M, M), for G
    independent SSMs of one input width; ``ssm[g]`` is group g on its own.
    The scans and the backward take one group.
    """

    delta: np.ndarray        # (M,) positive step sizes
    a: np.ndarray            # (M,) complex, Re < 0
    b: np.ndarray            # (M,) complex input map, shared across channels
    c_out: np.ndarray        # (M, M) complex readout
    input_width: int
    lam: np.ndarray          # (M,) complex, exp(delta * a)

    @property
    def state_dim(self) -> int:
        return self.delta.shape[-1]

    def __getitem__(self, g: int) -> DiagonalSSM:
        if self.delta.ndim != 2:
            raise TypeError("only an SSM stacked on a group axis can be indexed")
        return DiagonalSSM(delta=self.delta[g], a=self.a[g], b=self.b[g],
                           c_out=self.c_out[g], input_width=self.input_width,
                           lam=self.lam[g])


def discretize(delta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Elementwise pole map lam = exp(delta * a)."""
    return np.exp(np.asarray(delta, dtype=float) * np.asarray(a, dtype=complex))


def make_ssm(delta, a, b, c_out, input_width: int) -> DiagonalSSM:
    delta = np.asarray(delta, dtype=float)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c_out = np.asarray(c_out, dtype=complex)
    m = delta.shape[-1]
    if (delta.ndim not in (1, 2) or a.shape != delta.shape or b.shape != delta.shape
            or c_out.shape != delta.shape + (m,)):
        raise ValueError(
            f"inconsistent shapes: delta {delta.shape}, a {a.shape}, "
            f"b {b.shape}, c_out {c_out.shape}"
        )
    if np.any(delta <= 0):
        raise ValueError("step sizes must be positive")
    if np.any(a.real >= 0):
        raise ValueError("state matrix must be strictly stable (Re a < 0)")
    if input_width < 1:
        raise ValueError("input width must be positive")
    return DiagonalSSM(delta=delta, a=a, b=b, c_out=c_out,
                       input_width=input_width, lam=discretize(delta, a))


def ssm_with(ssm: DiagonalSSM, delta=None, a=None, b=None, c_out=None) -> DiagonalSSM:
    """Rebuild with some fields replaced; recomputes the poles."""
    return make_ssm(
        ssm.delta if delta is None else delta,
        ssm.a if a is None else a,
        ssm.b if b is None else b,
        ssm.c_out if c_out is None else c_out,
        ssm.input_width,
    )


def s4d_inv_init(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-law initialization: returns (delta, a).

    Re a_n = -1/2 for every mode; Im a_n = (M/pi) * (M/(2n+1) - 1) spreads
    the mode frequencies like the reciprocals of the odd integers.  Step
    sizes are log-uniform in [1e-3, 1e-1].
    """
    n = np.arange(m)
    a = -0.5 + 1j * (m / np.pi) * (m / (2.0 * n + 1.0) - 1.0)
    lo, hi = DELTA_LOG10_RANGE
    delta = 10.0 ** rng.uniform(lo, hi, size=m)
    return delta, a


def random_ssm(m: int, input_width: int, rng: np.random.Generator) -> DiagonalSSM:
    """An SSM with the standard init plus a random complex readout."""
    delta, a = s4d_inv_init(m, rng)
    b = np.ones(m, dtype=complex)
    c_out = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(m)
    return make_ssm(delta, a, b, c_out, input_width)


def stack_ssms(ssms: list[DiagonalSSM]) -> DiagonalSSM:
    """One SSM whose fields stack the given ones on a leading group axis."""
    fields = ("delta", "a", "b", "c_out")
    return make_ssm(*(np.stack([getattr(s, f) for s in ssms]) for f in fields),
                    ssms[0].input_width)


@dataclass(frozen=True)
class ScanResult:
    outputs: np.ndarray      # (N, M, W) float, Re(c_out @ x_t[c]) per position and channel
    final_state: np.ndarray  # (W, M) complex, x_{N-1}; x0 itself when N = 0


def _check_scan_input(ssm: DiagonalSSM, z: np.ndarray, x0) -> tuple[np.ndarray, np.ndarray]:
    if ssm.delta.ndim != 1:
        raise ValueError("scan one group at a time: pass ssm[g]")
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != ssm.input_width:
        raise ValueError(f"z must be (N, {ssm.input_width}), got {z.shape}")
    w, m = ssm.input_width, ssm.state_dim
    if x0 is None:
        x0 = np.zeros((w, m), dtype=complex)
    else:
        x0 = np.asarray(x0, dtype=complex)
        if x0.shape != (w, m):
            raise ValueError(f"x0 must be ({w}, {m}), got {x0.shape}")
    return z, x0


def _result(ssm: DiagonalSSM, states: np.ndarray, x0: np.ndarray) -> ScanResult:
    """Read out the (N, W, M) states and keep a copy of the last one, so the
    result does not hold the state buffer.  Re(C x) is the real matmul
    [Re C, -Im C] @ [Re x; Im x], interleaved as the float views of conj(C)
    and x are."""
    c_float = np.conj(ssm.c_out).view(float)  # (M, 2M)
    return ScanResult(outputs=c_float @ states.view(float).swapaxes(-1, -2),
                      final_state=states[-1].copy() if len(states) else x0)


def _lam_powers(lam: np.ndarray, n: int) -> np.ndarray:
    """(n, M) table of lam**t for t < n, by cumulative product."""
    powers = np.ones((n, lam.shape[0]), dtype=complex)
    np.cumprod(np.broadcast_to(lam, (n - 1, lam.shape[0])), axis=0, out=powers[1:])
    return powers


def _recur(lam: np.ndarray, drive: np.ndarray, x0: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Step x_t = lam * x_{t-1} + drive[t] from x_{-1} = x0, storing x_t in
    out[t]; returns the last state.  ``out`` may be ``drive`` itself, and
    reversed views of both run the same recurrence backwards in time."""
    state = x0
    for t in range(drive.shape[0]):
        state = lam * state + drive[t]
        out[t] = state
    return state


def scan_sequential(ssm: DiagonalSSM, z: np.ndarray, x0=None) -> ScanResult:
    """The defining stepwise recurrence."""
    z, x0 = _check_scan_input(ssm, z, x0)
    states = z[:, :, None] * ssm.b  # each drive is overwritten in place by its state
    _recur(ssm.lam, states, x0, states)
    return _result(ssm, states, x0)


def scan_fft(ssm: DiagonalSSM, z: np.ndarray, x0=None) -> ScanResult:
    """Convolution form: x_t = sum_{s<=t} lam^(t-s) b z_s, via one padded FFT.

    The kernel lam^tau comes from the cumulative-product table (O(N M)).
    FFT length is the next power of two at or above 2N, which makes the
    circular convolution linear on the first N samples.
    """
    z, x0 = _check_scan_input(ssm, z, x0)
    n = z.shape[0]
    powers = _lam_powers(ssm.lam, n + 1)
    n_fft = 1 << (2 * n - 1).bit_length()
    kernel_hat = np.fft.fft(powers[:n], n=n_fft, axis=0)     # (F, M)
    z_hat = np.fft.fft(z, n=n_fft, axis=0)                    # (F, W)
    states = np.fft.ifft(z_hat[:, :, None] * kernel_hat[:, None, :], axis=0)[:n] * ssm.b
    if np.any(x0):
        states += powers[1:, None, :] * x0  # homogeneous part: lam^(t+1) x0
    return _result(ssm, states, x0)


def _segment_entries(ssm: DiagonalSSM, z: np.ndarray, k: int, x0: np.ndarray) -> np.ndarray:
    """States entering each ``k``-step segment of ``z`` from x0, shape
    (max(ceil(N/k), 1), W, M): entry j is x_{jk-1}, entry 0 is x0 itself.

    Every segment but the last is full, so each contributes one closed-form
    step x_{j+k} = lam^k x_j + b * sum_p lam^(k-1-p) z_{j+p}.  The sums are
    one batched real matmul on the float view of b * lam^(k-1-p).
    """
    n, w = z.shape
    n_seg = max(-(-n // k), 1)
    powers = _lam_powers(ssm.lam, k + 1)
    b_powers = (ssm.b * powers[k - 1::-1]).view(float)  # (k, 2M), row p is b lam^(k-1-p)
    z_full = z[:(n_seg - 1) * k].reshape(n_seg - 1, k, w).transpose(0, 2, 1)
    entries = np.empty((n_seg, w, ssm.state_dim), dtype=complex)
    entries[0] = x0
    _recur(powers[k], (z_full @ b_powers).view(complex), x0, entries[1:])
    return entries


def scan_chunkwise(ssm: DiagonalSSM, z: np.ndarray, chunk: int, x0=None) -> ScanResult:
    """Chunked scan: the state entering each chunk in closed form (the
    backward's ``_segment_entries``), then one pass over chunk positions
    that advances every chunk in lockstep from its entry state.

    chunk >= N degenerates to a single chunk, chunk == 1 to the sequential
    recurrence.  A ragged final chunk is zero-padded; the padding never
    reaches the outputs or the final state.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    z, x0 = _check_scan_input(ssm, z, x0)
    n, w, m = z.shape[0], ssm.input_width, ssm.state_dim
    chunk = min(chunk, max(n, 1))  # an input shorter than a chunk is one unpadded chunk
    entries = _segment_entries(ssm, z, chunk, x0)  # (chunks, W, M)
    n_chunks = entries.shape[0]
    drive = np.zeros((n_chunks, chunk, w, m), dtype=complex)
    drive.reshape(n_chunks * chunk, w, m)[:n] = z[:, :, None] * ssm.b
    by_position = drive.swapaxes(0, 1)
    _recur(ssm.lam, by_position, entries, by_position)
    return _result(ssm, drive.reshape(n_chunks * chunk, w, m)[:n], x0)


def scan_prefix(ssm: DiagonalSSM, z: np.ndarray, x0=None) -> ScanResult:
    """Inclusive associative scan over (a, b) pairs with
    (a1, b1) o (a2, b2) = (a1 a2, a2 b1 + b2); identity (1, 0).

    Doubling sweep: log2(N) vectorized passes.
    """
    z, x0 = _check_scan_input(ssm, z, x0)
    n = z.shape[0]
    a = np.broadcast_to(ssm.lam, (n, 1, ssm.state_dim)).copy()
    b = z[:, :, None] * ssm.b
    b[:1] += ssm.lam * x0  # a slice, so N = 0 gives an empty result
    shift = 1
    while shift < n:
        # order matters: b reads the pre-update a of the right block
        b[shift:] = a[shift:] * b[:-shift] + b[shift:]
        a[shift:] = a[:-shift] * a[shift:]
        shift *= 2
    return _result(ssm, b, x0)


def run_scan(ssm: DiagonalSSM, z: np.ndarray, backend: str,
             chunk: int = 16, x0=None) -> ScanResult:
    if backend == "sequential":
        return scan_sequential(ssm, z, x0)
    if backend == "fft":
        return scan_fft(ssm, z, x0)
    if backend == "chunkwise":
        return scan_chunkwise(ssm, z, chunk, x0)
    if backend == "parallel_prefix":
        return scan_prefix(ssm, z, x0)
    raise ValueError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class SsmGrads:
    """Gradients of a real loss; complex entries follow the convention
    grad = d/d(Re) + i d/d(Im), so FD on the real and imaginary parts
    matches the real and imaginary parts of the gradient."""

    z: np.ndarray              # (N, W) real
    delta: np.ndarray          # (M,) real
    a_log_neg_re: np.ndarray   # (M,) real, w.r.t. log(-Re a)
    a_im: np.ndarray           # (M,) real, w.r.t. Im a
    b: np.ndarray              # (M,) complex
    c_out: np.ndarray          # (M, M) complex


def backward_checkpointed(
    ssm: DiagonalSSM, z: np.ndarray, upstream: np.ndarray, interval: int
) -> SsmGrads:
    """Reverse-mode gradients of loss = sum(upstream * outputs) from x_0 = 0.

    Only the state entering each ``interval``-step segment is kept, from
    the closed-form step that ``scan_chunkwise`` uses too,
    x_{j+K} = lam^K x_j + b * sum_p lam^(K-1-p) z_{j+p}.  The segments are
    then walked in reverse: each recomputes its states forward from its
    entry state, runs the adjoint s_t = C^T g_t + lam s_{t+1} back across
    the segment, carries s into the segment before, and accumulates the
    gradients from the recomputed states.  Nothing divides by lam, so the
    result agrees with interval == 1 to roundoff for any pole magnitude.
    """
    if interval < 1:
        raise ValueError("checkpoint interval must be positive")
    z, x0 = _check_scan_input(ssm, z, None)
    upstream = np.asarray(upstream, dtype=float)
    n, m, w = z.shape[0], ssm.state_dim, ssm.input_width
    if upstream.shape != (n, m, w):
        raise ValueError(f"upstream must be (N, M, W) = ({n}, {m}, {w}), got {upstream.shape}")
    lam, b = ssm.lam, ssm.b
    n_seg = -(-n // interval)
    entries = _segment_entries(ssm, z, interval, x0)

    # holomorphic adjoints; the loss is Re of a holomorphic function of the
    # complex quantities, so real gradients drop out via conjugation at the end
    c_float = np.ascontiguousarray(ssm.c_out).view(float)  # (M, 2M)
    s_adj = np.zeros((w, m), dtype=complex)
    df_dlam = np.zeros(m, dtype=complex)
    df_db = np.zeros(m, dtype=complex)
    df_dc_conj = np.zeros((m, 2 * m))
    grad_z = np.zeros_like(z)
    for j in range(n_seg - 1, -1, -1):
        seg = slice(j * interval, (j + 1) * interval)
        z_seg, g_seg = z[seg], upstream[seg]
        k = z_seg.shape[0]
        # each drive is overwritten in place by the states it drives
        states = z_seg[:, :, None] * b
        _recur(lam, states, entries[j], states)
        adj = (g_seg.transpose(0, 2, 1) @ c_float).view(complex)  # (C^T g_t)^T
        s_adj = _recur(lam, adj[::-1], s_adj, adj[::-1])
        grad_z[seg] = (adj @ b).real
        df_db += z_seg.ravel() @ adj.reshape(k * w, m)
        df_dlam += (np.einsum("wm,wm->m", adj[0], entries[j])
                    + np.einsum("kwm,kwm->m", adj[1:], states[:-1]))
        # sum_t g_t x_t^T over the segment as one matmul; conjugated at the end
        g_rows = g_seg.transpose(1, 0, 2).reshape(m, k * w)
        df_dc_conj += g_rows @ states.view(float).reshape(k * w, 2 * m)

    p = df_dlam * ssm.delta * ssm.lam  # holomorphic dF/da
    return SsmGrads(
        z=grad_z,
        delta=(df_dlam * ssm.a * ssm.lam).real,
        a_log_neg_re=p.real * ssm.a.real,
        a_im=-p.imag,
        b=np.conj(df_db),
        c_out=np.conj(df_dc_conj.view(complex)),
    )
