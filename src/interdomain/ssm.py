"""Diagonal complex SSM: initialization, four forward scans, and a
segment-recompute backward.

The recurrence, per input channel c:

    x_t[:, c] = lam * x_{t-1}[:, c] + b * z_t[c]        lam = exp(delta * a)
    y_t       = Re(c_out @ x_t)                          c_out is (M, M)

``b`` is one complex M-vector applied to every input channel; the channels
share the dynamics and differ only through their inputs.  All four scans
compute the same map and are interchangeable; ``scan_sequential`` is the
definitional one.

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
    states: np.ndarray   # (N, M, W) complex
    outputs: np.ndarray  # (N, M, W) float, Re(c_out @ state) per position

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _check_scan_input(ssm: DiagonalSSM, z: np.ndarray, x0) -> tuple[np.ndarray, np.ndarray]:
    if ssm.delta.ndim != 1:
        raise ValueError("scan one group at a time: pass ssm[g]")
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] != ssm.input_width:
        raise ValueError(f"z must be (N, {ssm.input_width}), got {z.shape}")
    m, w = ssm.state_dim, ssm.input_width
    if x0 is None:
        x0 = np.zeros((m, w), dtype=complex)
    else:
        x0 = np.asarray(x0, dtype=complex)
        if x0.shape != (m, w):
            raise ValueError(f"x0 must be ({m}, {w}), got {x0.shape}")
    return z, x0


def _read_out(ssm: DiagonalSSM, states: np.ndarray) -> np.ndarray:
    return (ssm.c_out @ states).real


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
    n = z.shape[0]
    states = np.empty((n, ssm.state_dim, ssm.input_width), dtype=complex)
    drive = ssm.b[None, :, None] * z[:, None, :]  # (N, M, W)
    _recur(ssm.lam[:, None], drive, x0, states)
    return ScanResult(states=states, outputs=_read_out(ssm, states))


def scan_fft(ssm: DiagonalSSM, z: np.ndarray, x0=None) -> ScanResult:
    """Convolution form: x_t = sum_{s<=t} lam^(t-s) b z_s, via one padded FFT.

    The kernel lam^tau is materialized with a cumulative product (O(N M)).
    FFT length is the next power of two at or above 2N, which makes the
    circular convolution linear on the first N samples.
    """
    z, x0 = _check_scan_input(ssm, z, x0)
    n = z.shape[0]
    lam = ssm.lam
    powers = np.empty((n, ssm.state_dim), dtype=complex)  # powers[t] = lam^t
    powers[:1] = 1.0  # a slice, so N = 0 gives an empty result
    if n > 1:
        np.cumprod(np.broadcast_to(lam, (n - 1, ssm.state_dim)), axis=0, out=powers[1:])
    n_fft = 1 << (2 * n - 1).bit_length()
    kernel_hat = np.fft.fft(powers, n=n_fft, axis=0)          # (F, M)
    z_hat = np.fft.fft(z, n=n_fft, axis=0)                    # (F, W)
    conv = np.fft.ifft(kernel_hat[:, :, None] * z_hat[:, None, :], axis=0)[:n]
    states = ssm.b[None, :, None] * conv
    if np.any(x0):
        # homogeneous part: lam^(t+1) x0
        states += (powers * lam)[:, :, None] * x0[None, :, :]
    return ScanResult(states=states, outputs=_read_out(ssm, states))


def _segment_entries(ssm: DiagonalSSM, z: np.ndarray, k: int, x0: np.ndarray) -> np.ndarray:
    """States entering each ``k``-step segment of ``z`` from x0, shape
    (max(ceil(N/k), 1), W, M): entry j is x_{jk-1}, entry 0 is x0 itself.

    Every segment but the last is full, so each contributes one closed-form
    step x_{j+k} = lam^k x_j + b * sum_p lam^(k-1-p) z_{j+p}.  The sums are
    one batched real matmul on the float view of b * lam^(k-1-p); the
    states are held transposed, (W, M), so that view interleaves the real
    and imaginary parts along M.
    """
    n, w = z.shape
    n_seg = max(-(-n // k), 1)
    b_powers = (ssm.b * ssm.lam ** np.arange(k - 1, -1, -1)[:, None]).view(float)  # (k, 2M)
    z_full = z[:(n_seg - 1) * k].reshape(n_seg - 1, k, w).transpose(0, 2, 1)
    entries = np.empty((n_seg, w, ssm.state_dim), dtype=complex)
    entries[0] = x0
    _recur(ssm.lam ** k, (z_full @ b_powers).view(complex), x0, entries[1:])
    return entries


def scan_chunkwise(ssm: DiagonalSSM, z: np.ndarray, chunk: int, x0=None) -> ScanResult:
    """Chunked scan: the state entering each chunk in closed form (the
    backward's ``_segment_entries``), then one pass over chunk positions
    that advances every chunk in lockstep from its entry state.

    chunk >= N degenerates to a single chunk, chunk == 1 to the sequential
    recurrence.  A ragged final chunk is zero-padded; the padding never
    reaches the reported states.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    z, x0 = _check_scan_input(ssm, z, x0)
    n, m, w = z.shape[0], ssm.state_dim, ssm.input_width
    chunk = min(chunk, max(n, 1))  # an input shorter than a chunk is one unpadded chunk
    entries = _segment_entries(ssm, z, chunk, x0.T).transpose(0, 2, 1)  # (chunks, M, W)
    n_chunks = entries.shape[0]
    drive = np.zeros((n_chunks, chunk, m, w), dtype=complex)
    drive.reshape(n_chunks * chunk, m, w)[:n] = ssm.b[None, :, None] * z[:, None, :]
    by_position = drive.swapaxes(0, 1)
    _recur(ssm.lam[:, None], by_position, entries, by_position)
    states = drive.reshape(n_chunks * chunk, m, w)[:n]
    return ScanResult(states=states, outputs=_read_out(ssm, states))


def scan_prefix(ssm: DiagonalSSM, z: np.ndarray, x0=None) -> ScanResult:
    """Inclusive associative scan over (a, b) pairs with
    (a1, b1) o (a2, b2) = (a1 a2, a2 b1 + b2); identity (1, 0).

    Doubling sweep: log2(N) vectorized passes.
    """
    z, x0 = _check_scan_input(ssm, z, x0)
    n = z.shape[0]
    m, w = ssm.state_dim, ssm.input_width
    a = np.broadcast_to(ssm.lam[None, :, None], (n, m, 1)).copy()
    b = ssm.b[None, :, None] * z[:, None, :]
    if np.any(x0):
        b = b.copy()
        b[:1] += ssm.lam[:, None] * x0  # a slice, so N = 0 gives an empty result
    shift = 1
    while shift < n:
        # order matters: b reads the pre-update a of the right block
        b[shift:] = a[shift:] * b[:-shift] + b[shift:]
        a[shift:] = a[:-shift] * a[shift:]
        shift *= 2
    return ScanResult(states=b, outputs=_read_out(ssm, b))


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
    z, _ = _check_scan_input(ssm, z, None)
    upstream = np.asarray(upstream, dtype=float)
    n, m, w = z.shape[0], ssm.state_dim, ssm.input_width
    if upstream.shape != (n, m, w):
        raise ValueError(f"upstream must be (N, M, W) = ({n}, {m}, {w}), got {upstream.shape}")
    lam, b = ssm.lam, ssm.b
    n_seg = -(-n // interval)

    # States are held transposed, (W, M), so that every product of a real
    # operand with a complex one is a real matmul on the complex operand's
    # float view (the real and imaginary parts interleaved along M).
    entries = _segment_entries(ssm, z, interval, np.zeros((w, m), dtype=complex))

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
