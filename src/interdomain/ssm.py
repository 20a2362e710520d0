"""Diagonal complex SSM: initialization, four forward scans, and the
backward of the chunkwise scan.

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

The chunkwise scan is the dual (Toeplitz) form of Dao and Gu, *Transformers
are SSMs* (2024).  The state entering each chunk comes from one closed-form
step per chunk (``_segment_entries``); inside a chunk the outputs are two
real matmuls, a lower-Toeplitz kernel on the inputs and an entry matrix on
the entry state, so no state inside a chunk is ever formed.  The backward
is the adjoint of those matmuls and carries only the adjoints of the entry
states across chunks.  Every time-stepping loop is ``_recur``: over
positions in the sequential scan, over chunks everywhere else.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _real(array, name: str) -> np.ndarray:
    """``array`` as floats; a complex array raises instead of losing its
    imaginary part."""
    if np.iscomplexobj(array):
        raise ValueError(f"{name} must be real, got a complex array")
    return np.asarray(array, dtype=float)


def _check_scan_input(ssm: DiagonalSSM, z: np.ndarray, x0) -> tuple[np.ndarray, np.ndarray]:
    if ssm.delta.ndim != 1:
        raise ValueError("scan one group at a time: pass ssm[g]")
    z = _real(z, "z")
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


def _segment_entries(ssm: DiagonalSSM, powers: np.ndarray, z: np.ndarray,
                     x0: np.ndarray) -> np.ndarray:
    """States entering each k-step segment of ``z`` from x0, shape
    (max(ceil(N/k), 1), W, M), where ``powers`` is the (k + 1, M) table of
    lam**t: entry j is x_{jk-1}, entry 0 is x0 itself.

    Every segment but the last is full, so each contributes one closed-form
    step x_{j+k} = lam^k x_j + b * sum_p lam^(k-1-p) z_{j+p}.  The sums are
    one batched real matmul on the float view of b * lam^(k-1-p), written
    into the entries and then carried across segments in place.
    """
    n, w = z.shape
    k = powers.shape[0] - 1
    n_seg = max(-(-n // k), 1)
    b_powers = (ssm.b * powers[k - 1::-1]).view(float)  # (k, 2M), row p is b lam^(k-1-p)
    z_full = z[:(n_seg - 1) * k].reshape(n_seg - 1, k, w).transpose(0, 2, 1)
    entries = np.empty((n_seg, w, ssm.state_dim), dtype=complex)
    entries[0] = x0
    np.matmul(z_full, b_powers, out=entries[1:].view(float))
    _recur(powers[k], entries[1:], x0, entries[1:])
    return entries


def _block_size(chunk: int, n: int, w: int) -> int:
    """The chunk length K = min(chunk, N, W) of the dual form, so that the
    K^2 M Toeplitz kernel never outgrows the (N, M, W) outputs."""
    return min(chunk, max(n, 1), w)


def _chunk_blocks(n: int, k: int) -> list[tuple[int, int, int]]:
    """(start, stop, chunk length) of the full k-chunks of n steps, taken
    together, then of the ragged last chunk if there is one."""
    full = n - n % k
    return [(lo, hi, ell) for lo, hi, ell in ((0, full, k), (full, n, n % k)) if hi > lo]


def _dual_kernels(ssm: DiagonalSSM, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two maps of a k-chunk in the dual form, from the (k + 1, M) table
    of lam**t:

    * the (k M, k) real lower-Toeplitz kernel: row (t, i), column s holds
      h[t - s, i] = Re(C diag(b) lam^(t-s))[i] for s <= t and 0 above;
    * the (k M, 2M) float view of the complex entry maps
      A[t] = C diag(lam^(t+1)), stacked over t.

    A chunk of L < k steps reads the top-left (L M, L) block of the kernel
    and the first L M rows of the entry matrix.
    """
    k, m = powers.shape[0] - 1, ssm.state_dim
    lags = np.zeros((2 * k - 1, m))  # lags[k - 1 + tau] = h[tau]; zeros for tau < 0
    lags[k - 1:] = ((ssm.b * powers[:k]) @ ssm.c_out.T).real
    # window t holds lags[t + r] = h[t - s] at column s = k - 1 - r
    toeplitz = np.ascontiguousarray(sliding_window_view(lags, k, axis=0)[..., ::-1])
    entry = (powers[1:, None, :] * ssm.c_out).view(float).reshape(k * m, 2 * m)
    return toeplitz.reshape(k * m, k), entry


def _lag_sums(g_z: np.ndarray) -> np.ndarray:
    """The adjoint of the Toeplitz kernel's construction: R[tau, i], the sum
    over s of row (tau + s, i), column s of a (k M, k) array, which is
    the gradient of h[tau, i]."""
    k = g_z.shape[1]
    padded = np.zeros((2 * k - 1, g_z.shape[0] // k, k))  # rows t >= k are zero
    padded[:k] = g_z.reshape(k, -1, k)
    windows = sliding_window_view(padded, k, axis=0)  # [tau, i, s, r] = padded[tau + r, i, s]
    return np.diagonal(windows, axis1=2, axis2=3).sum(axis=-1)


def scan_chunkwise(ssm: DiagonalSSM, z: np.ndarray, chunk: int, x0=None) -> ScanResult:
    """Chunked scan in the dual (Toeplitz) form of Dao and Gu (2024).

    The input is cut into chunks of K = min(chunk, N, W) steps, and the
    state entering each chunk comes from one closed-form step per chunk
    (``_segment_entries``).  Within a chunk that starts from entry state e,
    output t is

        y_t = sum_{s<=t} h[t-s] z_s + Re(C diag(lam^(t+1)) e),
        h[tau] = Re(C diag(b) lam^tau),

    that is, one real matmul by a lower-Toeplitz (K M, K) kernel and one by
    a (K M, 2M) entry matrix on the float view of e, each over every full
    chunk at once.  Chunk 0 from x0 = 0 has no entry term; a ragged last
    chunk of L steps uses the top-left (L M, L) block of the same kernel;
    the final state is one more closed-form step from the last entry.  No
    state inside a chunk is ever formed, and K never exceeds N or W, so the
    K^2 M kernel is no larger than the (N, M, W) outputs.
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    z, x0 = _check_scan_input(ssm, z, x0)
    n, w, m = z.shape[0], ssm.input_width, ssm.state_dim
    k = _block_size(chunk, n, w)
    powers = _lam_powers(ssm.lam, k + 1)
    entries = _segment_entries(ssm, powers, z, x0)  # (chunks, W, M)
    last = n - (entries.shape[0] - 1) * k  # steps in the last chunk; 0 when N = 0
    b_powers = (ssm.b * powers[:last][::-1]).view(float)  # row p is b lam^(last-1-p)
    final = powers[last] * entries[-1] + (z[n - last:].T @ b_powers).view(complex)

    toeplitz, entry = _dual_kernels(ssm, powers)
    # Re(A e) = [Re A, Im A] @ [Re e; -Im e]: the float views of A and of
    # conj(e), conjugated in place now that the final state is taken
    conj_entries = np.conj(entries, out=entries).view(float).swapaxes(1, 2)  # (chunks, 2M, W)
    first = 0 if np.any(x0) else 1  # the first chunk with an entry term
    outputs = np.empty((n, m, w))
    for lo, hi, ell in _chunk_blocks(n, k):
        out = outputs[lo:hi].reshape(-1, ell * m, w)
        np.matmul(toeplitz[:ell * m, :ell], z[lo:hi].reshape(-1, ell, w), out=out)
        skip = first if lo == 0 else 0
        out[skip:] += entry[:ell * m] @ conj_entries[lo // k + skip:lo // k + len(out)]
    return ScanResult(outputs=outputs, final_state=final if n else x0)


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
    """Reverse-mode gradients of loss = sum(upstream * outputs) from x_0 = 0:
    the adjoint of ``scan_chunkwise``'s dual form with chunks of
    K = min(interval, N, W) steps.  No state is checkpointed or rebuilt any
    more; the name is kept because perfbench traces it.

    * grad z: the transposed Toeplitz kernel on each chunk's upstream;
    * C, b and lam through the kernel's h[tau] = Re(C diag(b) lam^tau),
      via the lag correlation R[tau, i] = sum_t sum_c g[t, i, c] z[t-tau, c];
    * the entry term, on chunks >= 1 only: g @ e for C and lam, and
      g^T @ A for the adjoint of each entry state;
    * one reversed ``_recur`` with lam^K over the entry states carries that
      adjoint across chunks, and the closed-form entry step passes it on to
      z, b and lam; the lam^K of that step takes one forward ``_recur`` over
      the entry states before they are overwritten.

    Nothing divides by lam: tau lam^(tau-1) is read from the pole-power table
    shifted by one, so the result agrees with interval == 1 to roundoff for
    any pole magnitude.  Each chunk's upstream is read in place, never
    copied.  Besides sums the size of the kernel and the entry matrix, the
    one large temporary is a single buffer of ceil(N/K) complex (W, M)
    states that holds the entry states and then their adjoints: 2/K of the
    size of ``upstream``, so within it for K >= 2 and twice it at K = 1,
    where every state is an entry state.
    """
    if interval < 1:
        raise ValueError("interval must be positive")
    z, x0 = _check_scan_input(ssm, z, None)
    upstream = _real(upstream, "upstream")
    n, m, w = z.shape[0], ssm.state_dim, ssm.input_width
    if upstream.shape != (n, m, w):
        raise ValueError(f"upstream must be (N, M, W) = ({n}, {m}, {w}), got {upstream.shape}")
    lam, b, c = ssm.lam, ssm.b, ssm.c_out
    k = _block_size(interval, n, w)
    powers = _lam_powers(lam, k + 1)
    d_powers = np.zeros_like(powers)  # row tau is tau lam^(tau-1), d(lam^tau)/d(lam)
    d_powers[1:] = np.arange(1, k + 1)[:, None] * powers[:k]
    entries = _segment_entries(ssm, powers, z, x0)
    toeplitz, entry = _dual_kernels(ssm, powers)

    # holomorphic adjoints; the loss is Re of a holomorphic function of the
    # complex quantities, so real gradients drop out via conjugation at the end
    chunks = [(j, j * k, min(k, n - j * k)) for j in range(-(-n // k))]  # (index, start, length)
    grad_z = np.empty_like(z)
    g_z = np.zeros((k * m, k))      # [(t, i), s]: sum over chunks, c of g[t, i, c] z[s, c]
    g_e = np.zeros((k * m, 2 * m))  # [(t, i), m]: sum over chunks, c of g[t, i, c] e[c, m]
    for j, lo, ell in chunks:
        g = upstream[lo:lo + ell].reshape(ell * m, w)
        np.matmul(toeplitz[:ell * m, :ell].T, g, out=grad_z[lo:lo + ell])
        g_z[:ell * m, :ell] += g @ z[lo:lo + ell].T
        if j:  # chunk 0 enters from x_0 = 0
            g_e[:ell * m] += g @ entries[j].view(float)

    # The adjoint a_j of entry j is driven by d_j = g_j^T @ A and carried back
    # by a_j = lam^K a_{j+1} + d_j.  The lam^K of the entry step wants
    # sum_j a_j e_{j-1} = sum_j d_j S_j, S_j = sum_{i<j} lam^(K(j-1-i)) e_i,
    # so one buffer serves all three: S_{j+1} overwrites e_j, then d_j
    # overwrites S_{j+1} (read at chunk j + 1 just before), then a_j does.
    zero = np.zeros((w, m), dtype=complex)
    _recur(powers[k], entries, zero, entries)
    entry_sum = np.zeros(m, dtype=complex)  # sum_j d_j S_j, per mode
    for j, lo, ell in chunks[:0:-1]:
        g = upstream[lo:lo + ell].reshape(ell * m, w)
        np.matmul(g.T, entry[:ell * m], out=entries[j].view(float))
        entry_sum += np.einsum("wm,wm->m", entries[j], entries[j - 1])
    _recur(powers[k], entries[:0:-1], zero, entries[:0:-1])

    # entry j + 1 is the closed-form step over full chunk j from entry j
    exits = entries[1:]  # the adjoints of entries 1, 2, ...
    z_exit = z[:len(exits) * k].reshape(len(exits), k, w)
    b_powers = b * powers[k - 1::-1]  # row p is b lam^(k-1-p)
    grad_z_full = grad_z[:len(exits) * k].reshape(-1, k, w)
    grad_z_full += np.conj(b_powers).view(float) @ exits.view(float).swapaxes(1, 2)
    # row p: sum over full chunks j and channels c of z[jk + p, c] exits[j, c]
    z_s = (z_exit.transpose(1, 0, 2).reshape(k, -1)
           @ exits.view(float).reshape(-1, 2 * m)).view(complex)

    lag = _lag_sums(g_z)  # R[tau, i]
    g_e = g_e.view(complex).reshape(k, m, m)
    by_lag = lag @ c + z_s[::-1]  # d loss / d (b lam^tau), holomorphic
    df_db = np.sum(by_lag * powers[:k], axis=0)
    df_dlam = (b * np.sum(by_lag * d_powers[:k], axis=0)
               + np.sum(c * np.einsum("tim,tm->im", g_e, d_powers[1:]), axis=0)
               + d_powers[k] * entry_sum)
    df_dc = (lag.T @ powers[:k]) * b + np.einsum("tim,tm->im", g_e, powers[1:])

    p = df_dlam * ssm.delta * ssm.lam  # holomorphic dF/da
    return SsmGrads(
        z=grad_z,
        delta=(df_dlam * ssm.a * ssm.lam).real,
        a_log_neg_re=p.real * ssm.a.real,
        a_im=-p.imag,
        b=np.conj(df_db),
        c_out=np.conj(df_dc),
    )
