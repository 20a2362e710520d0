"""Diagonal complex SSM: initialization, four forward scans, the query
readout in the same chunked form, and the backward of both.

The recurrence, per input channel c:

    x_t[c] = lam * x_{t-1}[c] + b * z_t[c]        lam = exp(delta * a)
    y_t[:, c] = Re(c_out @ x_t[c])                 c_out is (M, M)

``b`` is one complex M-vector applied to every input channel; the channels
share the dynamics and differ only through their inputs.  A state is
(W, M), one row per channel, so ``lam`` and ``b`` broadcast on the trailing
axis and every product of a real operand with a state is one real matmul on
the state's float view (real and imaginary parts interleaved along M).

Every scan returns the readouts and the final state, never the states in
between, and none holds the N-long history of states; given an ``out``
array, every backend writes the final state into it instead of a fresh
array (``out`` may be x0 itself, a state updated in place), and a one-step
scan (a decode step) forms its one state there.  All
four compute the same map and are interchangeable; ``scan_sequential`` is
the definitional one.  It and ``scan_prefix`` share one block loop
(``_scan_blocks``): positions go in blocks of about ``_BLOCK_BYTES`` of
states, each block is swept in place from lam times the state carried in,
read out into its rows of the outputs, and its last state carried on.  They
differ only in the sweep: ``_recur`` step by step, or a work-efficient
up-sweep/down-sweep scan, about 2L combines for L positions.  ``scan_fft``
forms no state: each output is a real convolution of the inputs with the
lag kernel h[tau] = Re(C diag(b) lam^tau) of the dual form below, by real
FFT one mode at a time, and its final state is one closed-form step.

The chunkwise scan is the dual (Toeplitz) form of Dao and Gu, *Transformers
are SSMs* (2024).  The state entering each chunk comes from one closed-form
step per chunk (``_segment_entries``); inside a chunk the outputs are one
real matmul of a stacked [entry matrix | lower-Toeplitz kernel] operator on
the chunk's [entry state; inputs] (``_chunk_outputs``), so no state inside
a chunk is ever formed.  ``backward_checkpointed`` is the adjoint of that
matmul and carries only the adjoints of the entry states across chunks;
it also returns the outputs, made by the same per-chunk product from the
entry states and operator it builds anyway.  Every pass in the dual form
starts from the same setup (``_dual_setup``): the chunk length, the table
of pole powers and the entry states; ``final_state`` is that setup and
the closed-form last step alone, a scan's final state with no outputs.
Both adjoints run from an entry state x0, take an upstream on the final
state, and return the gradient of x0.  None, for either state, is the zero
state, resolved where the inputs are checked: a fresh sequence is the same
recurrence from x0 = 0, so no adjoint has a boundary case, and x0's
gradient is returned from a zero entry too.  Both end in one shared tail
(``_adjoint_tail``), which carries the entry states' adjoints back across
the chunks, entry 0 included, and assembles the gradients, so a sequence
can be differentiated block by block, each block's state gradient carried
into the block before it.

Given the query features f_q of the group's heads, ``run_scan`` returns
each head's f_q U^T Gamma, where [U | Gamma] are the scan's outputs, on
every backend.  Under ``chunkwise`` that is ``query_readout``: from the same
chunks and entry states, a handful of GEMMs the size of the heads' outputs
(the intra-/inter-chunk split of the same paper), never forming the
(N, M, W) outputs.  It takes the full chunks in blocks whose products stay
within about the same ``_BLOCK_BYTES`` as the scans' blocks
(``_chunk_blocks``), and its adjoint sweeps the same blocks, so only the
ceil(N/K) entry states (and, in the adjoint, their adjoints' drives) and
arrays the size of the inputs or the returned ones grow with N.
``sequential`` and ``parallel_prefix`` read each head query first from
each block of states they form (``_read_out``), a = f_q X_r, alpha =
Re(a C^T), beta = alpha C and Re(beta X_v^T), position by position, so no
readout of all W channels is made; a decode step is that readout of one
state.  ``fft`` reads each mode's convolution outputs out
as soon as they are made, adding (f_q U_i^T) Gamma_i to the heads'
outputs, so it never holds the (N, M, W) outputs either.
``query_readout_backward`` is the adjoint of ``query_readout`` and ends in
the same tail as ``backward_checkpointed``; it also returns the head
outputs it forms on the way, so a training step runs the readout once per
group.
Only the variants without a query path read out every channel.  Every
time-stepping loop is ``_recur``: over positions within a block in the
sequential scan, over chunks everywhere else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

DELTA_LOG10_RANGE = (-3.0, -1.0)


@dataclass(frozen=True)
class DiagonalSSM:
    """Immutable parameter bundle that checks its fields when it is made,
    ``dataclasses.replace`` included, and derives ``lam`` from them, so the
    poles can never go stale.

    No field depends on the input width W: ``b`` is shared by every channel,
    so one record scans inputs of any width, and the scans take W from
    ``z``.  The fields may carry a leading group axis, (G, M) and (G, M, M),
    for G independent SSMs; ``ssm[g]`` is group g on its own.  The scans and
    the backward take one group.
    """

    delta: np.ndarray        # (M,) positive step sizes
    a: np.ndarray            # (M,) complex, Re < 0
    b: np.ndarray            # (M,) complex input map, shared across channels
    c_out: np.ndarray        # (M, M) complex readout
    lam: np.ndarray = field(init=False, repr=False, compare=False)  # (M,) exp(delta * a)

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        a = np.asarray(self.a, dtype=complex)
        # the scans and readouts take float views of b and C
        b = np.ascontiguousarray(self.b, dtype=complex)
        c_out = np.ascontiguousarray(self.c_out, dtype=complex)
        if (delta.ndim not in (1, 2) or a.shape != delta.shape or b.shape != delta.shape
                or c_out.shape != delta.shape + delta.shape[-1:]):
            raise ValueError(
                f"inconsistent shapes: delta {delta.shape}, a {a.shape}, "
                f"b {b.shape}, c_out {c_out.shape}"
            )
        # before the sign checks, which a NaN passes, and before the poles
        for name, value in (("delta", delta), ("a", a), ("b", b), ("c_out", c_out)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got NaN or inf")
        if np.any(delta <= 0):
            raise ValueError("step sizes must be positive")
        if np.any(a.real >= 0):
            raise ValueError("state matrix must be strictly stable (Re a < 0)")
        for name, value in (("delta", delta), ("a", a), ("b", b), ("c_out", c_out),
                            ("lam", np.exp(delta * a))):
            object.__setattr__(self, name, value)

    @property
    def state_dim(self) -> int:
        return self.delta.shape[-1]

    def __getitem__(self, g: int) -> DiagonalSSM:
        if self.delta.ndim != 2:
            raise TypeError("only an SSM stacked on a group axis can be indexed")
        # a row of a checked stack is checked already: views of its rows,
        # with no checks rerun and no poles derived again (every call takes
        # one row per group)
        row = object.__new__(DiagonalSSM)
        row.__dict__.update(delta=self.delta[g], a=self.a[g], b=self.b[g], c_out=self.c_out[g],
                            lam=self.lam[g])
        return row


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


def random_ssm(m: int, rng: np.random.Generator) -> DiagonalSSM:
    """An SSM with the standard init plus a random complex readout."""
    delta, a = s4d_inv_init(m, rng)
    b = np.ones(m, dtype=complex)
    c_out = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(m)
    return DiagonalSSM(delta, a, b, c_out)


def stack_ssms(ssms: list[DiagonalSSM]) -> DiagonalSSM:
    """One SSM whose fields stack the given ones on a leading group axis."""
    fields = ("delta", "a", "b", "c_out")
    return DiagonalSSM(*(np.stack([getattr(s, f) for s in ssms]) for f in fields))


@dataclass(frozen=True)
class ScanResult:
    outputs: np.ndarray      # (N, M, W) float for (N, W) inputs z, Re(c_out @ x_t[c]) per
                             # position and channel; given query features f_q (run_scan on
                             # any backend, or query_readout), the (N, P, W - R) head
                             # outputs f_q U^T Gamma
    final_state: np.ndarray  # (W, M) complex, x_{N-1}, an array of its own that is no
                             # view of a scan buffer; x0 itself when N = 0.  Given an
                             # ``out`` array (run_scan on any backend), ``out`` itself,
                             # holding x_{N-1}, or a copy of x0 when N = 0


def _real(array, name: str) -> np.ndarray:
    """``array`` as floats; a complex array raises instead of losing its
    imaginary part."""
    if np.iscomplexobj(array):
        raise ValueError(f"{name} must be real, got a complex array")
    return np.asarray(array, dtype=float)


def _check_scan_input(ssm: DiagonalSSM, z: np.ndarray, x0,
                      out=None) -> tuple[np.ndarray, np.ndarray]:
    """``z`` as real (N, W) inputs, W >= 1, and ``x0`` as a complex (W, M)
    state (``_check_state_arg``: zeros for None); ``out``, the final state's
    array, must be None or a writeable C-contiguous complex (W, M) array.
    W = 0 is rejected: the dual form's chunk length K = min(chunk, N, W)
    would be 0."""
    if ssm.delta.ndim != 1:
        raise ValueError("scan one group at a time: pass ssm[g]")
    z = _real(z, "z")
    if z.ndim != 2 or z.shape[1] < 1:
        raise ValueError(f"z must be (N, W) with W >= 1, got {z.shape}")
    _check_out(out, (z.shape[1], ssm.state_dim), complex)
    return z, _check_state_arg(ssm, z, "x0", x0)


def _check_out(out, shape: tuple[int, ...], dtype: type) -> None:
    """Raise ValueError unless ``out`` is None or a writeable C-contiguous
    ``dtype`` array of ``shape``."""
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == shape
                                and out.dtype == dtype and out.flags.c_contiguous
                                and out.flags.writeable):
        got = (getattr(out, "shape", None), str(getattr(out, "dtype", type(out).__name__)))
        raise ValueError(f"out must be a writeable C-contiguous {dtype.__name__} {shape} "
                         f"array, got (shape, dtype) {got}")


def _check_state_arg(ssm: DiagonalSSM, z: np.ndarray, name: str, value):
    """The state argument ``name`` (``x0``, or an adjoint's
    ``final_upstream``) as a C-contiguous complex (W, M) array for the
    checked (N, W) inputs ``z``, copied only from another layout, since the
    scans take float views of it.  None is the zero state: a fresh
    sequence's entry, or a final state that no loss reads."""
    shape = (z.shape[1], ssm.state_dim)
    if value is None:
        return np.zeros(shape, dtype=complex)
    value = np.ascontiguousarray(value, dtype=complex)
    if value.shape != shape:
        raise ValueError(f"{name} must be (W, M) = {shape}, got {value.shape}")
    return value


def _check_query(z: np.ndarray, f_q):
    """``f_q`` as real (N, P, R) query features with 1 <= R < W, for the
    checked (N, W) inputs ``z``; None stays None."""
    if f_q is None:
        return None
    f_q = _real(f_q, "f_q")
    if f_q.ndim != 3 or f_q.shape[0] != z.shape[0] or not 1 <= f_q.shape[2] < z.shape[1]:
        raise ValueError(f"f_q must be (N, P, R) with N = {z.shape[0]} and "
                         f"1 <= R < W = {z.shape[1]}, got {f_q.shape}")
    return f_q


def _new_outputs(ssm: DiagonalSSM, z: np.ndarray, f_q=None, fill=np.empty) -> np.ndarray:
    """The scan outputs' array for the (N, W) inputs ``z``, made by
    ``fill`` (uninitialised by default): (N, M, W), or (N, P, W - R) given
    ``f_q``."""
    if f_q is None:
        return fill((z.shape[0], ssm.state_dim, z.shape[1]))
    return fill(f_q.shape[:2] + (z.shape[1] - f_q.shape[2],))


def _read_out(ssm: DiagonalSSM, states: np.ndarray, f_q, outputs: np.ndarray) -> None:
    """Write the readouts of the (L, W, M) states into ``outputs``, an
    L-row slice of ``_new_outputs``.

    Without ``f_q`` the outputs are Re(C x) on every channel, the real matmul
    [Re C, -Im C] @ [Re x; Im x], interleaved as the float views of conj(C)
    and x are.  With it they are each head's f_q U^T Gamma, read from the
    states and never from the (L, M, W) outputs: a = f_q X_r on the float
    view, alpha = Re(a C^T), beta = alpha C and o = Re(beta X_v^T).  Each
    Re(u v^T) is the float view of conj(u) times that of v, and only the
    small a and beta are conjugated, each in place through its complex
    view, never C or a state.  Every product is batched over positions,
    one matmul of the same shape per position, so a position's outputs are
    those of a one-step scan from its state, bit for bit, however the
    positions are blocked.  (One GEMM over all L P rows of a would not be:
    BLAS picks its kernel, and with it the rounding, by the row count.)
    """
    if f_q is None:
        np.matmul(np.conj(ssm.c_out).view(float), states.view(float).swapaxes(-1, -2),
                  out=outputs)
        return
    r = f_q.shape[2]
    c = ssm.c_out.view(float)
    a = f_q @ states[:, :r].view(float)  # (L, P, 2M)
    np.conjugate(a.view(complex), out=a.view(complex))
    beta = (a @ c.T) @ c  # alpha C
    np.conjugate(beta.view(complex), out=beta.view(complex))
    np.matmul(beta, states[:, r:].view(float).swapaxes(1, 2), out=outputs)


def _kept(state: np.ndarray, out=None) -> np.ndarray:
    """``state`` written into ``out`` and ``out`` returned, or ``state``
    itself when ``out`` is None."""
    if out is None:
        return state
    out[...] = state
    return out


# The sequential and prefix scans sweep blocks of about this many bytes of
# complex (W, M) states, and the dual-form query readout blocks of chunks
# whose products take about as many: small enough to stay in cache, long
# enough that each block's numpy calls are few per position.
_BLOCK_BYTES = 1 << 20


def _scan_blocks(ssm: DiagonalSSM, z: np.ndarray, x0: np.ndarray, f_q, out,
                 sweep) -> ScanResult:
    """The block loop of ``scan_sequential`` and ``scan_prefix``, on checked
    inputs.  Positions go in blocks of L = max(1, ``_BLOCK_BYTES`` // (16 W
    M)) rows; each block's buffer starts as its drives b z_t (``_drive``),
    lam times the carried state is folded into its first row, and
    ``sweep(lam, block)`` turns it into the block's states in place.  The
    block is then read out into its rows of the outputs (``_read_out``) and
    a copy of its last state carried on, so the scan holds one block of
    states at a time, never the (N, W, M) history, and no block buffer
    outlives the scan.

    The final state is that carried copy, written into ``out`` when given;
    x0 itself (or copied into ``out``) when N = 0.  A one-step scan,
    as in decode, forms its one state where it is returned: lam x0 is
    written into ``out`` (or a fresh array) and the drive added in place,
    with no block buffer, no lam x0 temporary and no copy.
    """
    n, w = z.shape
    outputs = _new_outputs(ssm, z, f_q)  # _read_out writes every row
    if n == 1:
        final = np.multiply(ssm.lam, x0, out=out)
        final += _drive(ssm, z)[0]
        _read_out(ssm, final[None], f_q, outputs)
        return ScanResult(outputs=outputs, final_state=final)
    rows = max(1, _BLOCK_BYTES // (16 * w * ssm.state_dim))
    state = x0
    for lo in range(0, n, rows):
        block = _drive(ssm, z[lo:lo + rows])
        block[0] += ssm.lam * state
        sweep(ssm.lam, block)
        _read_out(ssm, block, None if f_q is None else f_q[lo:lo + rows], outputs[lo:lo + rows])
        state = block[-1].copy()
        del block  # freed before the next block's buffer is made
    return ScanResult(outputs=outputs, final_state=_kept(state, out))


def _drive(ssm: DiagonalSSM, z: np.ndarray) -> np.ndarray:
    """The (N, W, M) drives b z_t[c]: one contiguous product on the float
    view of b, bit-identical to ``z[:, :, None] * b``, which pays numpy's
    broadcast loop row by row."""
    return np.einsum("nw,m->nwm", z, ssm.b.view(float), order="C").view(complex)


def _lam_powers(lam: np.ndarray, n: int) -> np.ndarray:
    """(n, M) table of lam**t for t < n, by cumulative product."""
    powers = np.ones((n, lam.shape[0]), dtype=complex)
    np.cumprod(np.broadcast_to(lam, (n - 1, lam.shape[0])), axis=0, out=powers[1:])
    return powers


def _flat_rows(array: np.ndarray, width: int) -> np.ndarray:
    """A (rows, W, M) array as a (rows, W M = ``width``) view, never a copy:
    a copy of ``_recur``'s ``out`` would take the states instead of ``out``
    itself.  A copy is a new allocation, so the bounds check of
    ``np.may_share_memory`` tells it from a view."""
    flat = array.reshape(-1, width)
    assert not flat.size or np.may_share_memory(flat, array), "the rows must reshape as a view"
    return flat


def _recur(lam: np.ndarray, drive: np.ndarray, x0: np.ndarray, out: np.ndarray) -> None:
    """Step x_t = lam * x_{t-1} + drive[t] from x_{-1} = x0, storing x_t in
    out[t].  ``out`` may be ``drive`` itself, and reversed views of both run
    the same recurrence backwards in time.  The (M,) lam is broadcast once
    to the (W, M) state, and the steps run on flat (rows, W M) views of
    ``drive`` and ``out`` (``_flat_rows``) and x0, so each is one contiguous
    multiply into a reused buffer and one add, over one axis."""
    lam = np.broadcast_to(lam, x0.shape).copy().reshape(-1)
    step = np.empty_like(lam)
    state = x0.reshape(-1)  # only read, so a copy would do
    for row, into in zip(_flat_rows(drive, lam.size), _flat_rows(out, lam.size)):
        # positional out: a keyword costs about as much as the arithmetic here
        np.multiply(lam, state, step)
        state = np.add(step, row, into)


def scan_sequential(ssm: DiagonalSSM, z: np.ndarray, x0=None, f_q=None,
                    out=None) -> ScanResult:
    """The defining stepwise recurrence, one block of positions at a time
    (``_scan_blocks``): ``_recur`` steps each block's states from its first
    row.  With ``f_q``, the heads' outputs; the final state in ``out`` when
    given, and a one-step scan, as in decode, forms its state there.
    """
    z, x0 = _check_scan_input(ssm, z, x0, out)
    f_q = _check_query(z, f_q)
    return _scan_blocks(ssm, z, x0, f_q, out,
                        lambda lam, block: _recur(lam, block[1:], block[0], block[1:]))


def scan_fft(ssm: DiagonalSSM, z: np.ndarray, x0=None, f_q=None, out=None) -> ScanResult:
    """Convolution form: each output is a real convolution of the inputs
    with the lag kernel h[tau] = Re(C diag(b) lam^tau) of ``_lag_kernels``,

        y_t[:, c] = sum_{s<=t} h[t-s] z_s[c] + Re(C diag(lam^(t+1)) x0[c]),

    made as irfft(rfft(h[:, i]) rfft(z)) one mode i at a time, with an FFT
    length of the next power of two at or above 2N - 1, which makes the
    circular convolution linear on the first N samples.  The entry term,
    row i of the entry map of ``_dual_kernel``'s first 2M columns, is added
    to each mode's (N, W) outputs only when x0 is nonzero; the final state
    is one closed-form step from x0.  Work is O(M W N log N), and no state
    is ever formed.

    Without ``f_q`` each mode's outputs fill their column of the (N, M, W)
    outputs.  With it, mode i's [U_i | Gamma_i] is read out as soon as it
    is made: the heads' outputs gain (f_q U_i^T) Gamma_i, so besides them
    the scan holds one mode's (n_fft, W) spectrum and convolution, never
    the (N, M, W) outputs.  The final state goes into ``out`` when given.
    """
    z, x0 = _check_scan_input(ssm, z, x0, out)
    f_q = _check_query(z, f_q)
    n, m = z.shape[0], ssm.state_dim
    powers = _lam_powers(ssm.lam, n + 1)
    n_fft = 1 << (2 * n - 1).bit_length()
    h_hat = np.fft.rfft(_lag_kernels(ssm, powers), n_fft, axis=0)  # (F, M)
    z_hat = np.fft.rfft(z, n_fft, axis=0)                              # (F, W)
    entry = np.conj(x0).view(float).T if np.any(x0) else None
    # the modes fill the outputs' columns, or add up in the heads' outputs
    outputs = _new_outputs(ssm, z, f_q, np.empty if f_q is None else np.zeros)
    for i in range(m):
        y = np.fft.irfft(h_hat[:, i, None] * z_hat, n_fft, axis=0)[:n]
        if entry is not None:  # Re(A_i[t] x0[c]), A_i[t] = C[i] diag(lam^(t+1))
            y += (powers[1:] * ssm.c_out[i]).view(float) @ entry
        if f_q is None:
            outputs[:, i] = y
        else:  # the heads' share of mode i, (f_q U_i^T) Gamma_i
            r = f_q.shape[2]
            outputs += np.einsum("tp,tv->tpv", np.einsum("tpr,tr->tp", f_q, y[:, :r]), y[:, r:])
        del y  # freed before the next mode's convolution is made
    return ScanResult(outputs=outputs,
                      final_state=_final_state(ssm, powers, z, x0[None], x0, out))


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


def _final_state(ssm: DiagonalSSM, powers: np.ndarray, z: np.ndarray,
                 entries: np.ndarray, x0: np.ndarray, out=None) -> np.ndarray:
    """The state after the last step, written into ``out`` when given: one
    closed-form step over the last chunk's L <= k steps from its entry
    state; x0 itself (or copied into ``out``) when N = 0."""
    n, k = z.shape[0], powers.shape[0] - 1
    if n == 0:
        return _kept(x0, out)
    last = n - (entries.shape[0] - 1) * k
    b_powers = (ssm.b * powers[:last][::-1]).view(float)  # row p is b lam^(last-1-p)
    final = np.multiply(powers[last], entries[-1], out=out)
    final += (z[n - last:].T @ b_powers).view(complex)
    return final


def _block_size(chunk: int, n: int, w: int) -> int:
    """The chunk length K = min(chunk, N, W) of the dual form, so that the
    K^2 M Toeplitz kernel never outgrows the (N, M, W) outputs."""
    return min(chunk, max(n, 1), w)


def _dual_setup(ssm: DiagonalSSM, z: np.ndarray, chunk: int, x0=None, out=None):
    """The steps every dual-form pass starts with: check ``chunk``, an
    integer >= 1 that is not a bool, and the scan input
    (``_check_scan_input``), then take K = ``_block_size``, the (K + 1, M)
    table of lam**t and the K-chunks' entry states (``_segment_entries``).
    Returns (z, x0, K, powers, entries)."""
    if isinstance(chunk, bool) or not isinstance(chunk, (int, np.integer)) or chunk < 1:
        raise ValueError(f"chunk must be an integer >= 1, got {chunk!r}")
    z, x0 = _check_scan_input(ssm, z, x0, out)
    k = _block_size(chunk, *z.shape)
    powers = _lam_powers(ssm.lam, k + 1)
    return z, x0, k, powers, _segment_entries(ssm, powers, z, x0)


def _chunk_blocks(n: int, k: int, p: int, w: int, m: int) -> list[tuple[int, int, int]]:
    """(start, stop, chunk length) of the blocks of the dual-form query
    readout over n steps in k-chunks, for P heads on a group of width W
    with M modes: the full k-chunks in blocks of as many chunks as keep
    the block's products within about ``_BLOCK_BYTES``, then the ragged
    last chunk, if there is one, as a block of its own.  A block holds at
    least one chunk, however large.

    A chunk of L steps counts 16 L (P (W + 2L + 6M) + W) bytes, its
    forward's products and their adjoints: 8 L (P (W + 2L + 5M) + W) for
    the (L, P, L) scores and mix, the (L, P, M) alpha and complex fe and
    beta, the (L, P, R) features, (L, P, W - R) outputs and (L, W) inputs
    that ``_ReadoutBlock`` holds, and the adjoint's arrays of the same
    shapes, with 2 L P M floats more.
    """
    full = n - n % k
    step = k * max(1, _BLOCK_BYTES // (16 * k * (p * (w + 2 * k + 6 * m) + w)))
    blocks = [(lo, min(lo + step, full), k) for lo in range(0, full, step)]
    if n > full:
        blocks.append((full, n, n % k))
    return blocks


def _lag_kernels(ssm: DiagonalSSM, powers: np.ndarray) -> np.ndarray:
    """The (K, M) lag kernel h[tau] = Re(C diag(b) lam^tau), row tau."""
    return ((ssm.b * powers[:-1]) @ ssm.c_out.T).real


def _dual_kernel(ssm: DiagonalSSM, powers: np.ndarray) -> np.ndarray:
    """The (k M, 2M + k) real operator of a k-chunk in the dual form, from
    the (k + 1, M) table of lam**t.  Row (t, i) holds

    * in its first 2M columns, row i of the float view of the complex entry
      map A[t] = C diag(lam^(t+1));
    * in its last k columns, the lower-Toeplitz kernel: column s holds
      h[t - s, i] = Re(C diag(b) lam^(t-s))[i] for s <= t and 0 above.

    A chunk of L < k steps reads the top-left (L M, 2M + L) block.
    """
    k, m = powers.shape[0] - 1, ssm.state_dim
    lags = np.zeros((2 * k - 1, m))  # lags[k - 1 + tau] = h[tau]; zeros for tau < 0
    lags[k - 1:] = _lag_kernels(ssm, powers)
    op = np.empty((k, m, 2 * m + k))
    np.multiply(powers[1:, None, :], ssm.c_out, out=op[..., :2 * m].view(complex))
    # window t holds lags[t + r] = h[t - s] at column s = k - 1 - r
    op[..., 2 * m:] = sliding_window_view(lags, k, axis=0)[..., ::-1]
    return op.reshape(k * m, 2 * m + k)


def _chunk_outputs(op: np.ndarray, entry, z: np.ndarray, out: np.ndarray) -> None:
    """Write one chunk's (L, M, W) outputs into ``out``: the top-left
    (L M, 2M + L) block of the ``_dual_kernel`` operator ``op`` times the
    chunk's operand [float view of conj(e); inputs], built transposed in one
    (W, 2M + L) buffer.  ``entry`` is the chunk's entry state e, or None for
    a chunk entered from zero, which reads only the Toeplitz block.

    Re(A e) = [Re A, Im A] @ [Re e; -Im e], the float views of A and conj(e).
    """
    ell, m, w = out.shape
    operand = np.empty((w, 2 * m + ell))
    operand[:, 2 * m:] = z.T
    flat = out.reshape(ell * m, w)
    if entry is None:
        np.matmul(op[:ell * m, 2 * m:2 * m + ell], operand[:, 2 * m:].T, out=flat)
    else:
        np.conjugate(entry, out=operand[:, :2 * m].view(complex))
        np.matmul(op[:ell * m, :2 * m + ell], operand.T, out=flat)


def _lag_sums(g_z: np.ndarray) -> np.ndarray:
    """The adjoint of the Toeplitz kernel's construction: R[tau, i], the sum
    over s of row (tau + s, i), column s of a (k M, k) array, which is
    the gradient of h[tau, i]."""
    k = g_z.shape[1]
    padded = np.zeros((2 * k - 1, g_z.shape[0] // k, k))  # rows t >= k are zero
    padded[:k] = g_z.reshape(k, -1, k)
    windows = sliding_window_view(padded, k, axis=0)  # [tau, i, s, r] = padded[tau + r, i, s]
    return np.diagonal(windows, axis1=2, axis2=3).sum(axis=-1)


def scan_chunkwise(ssm: DiagonalSSM, z: np.ndarray, chunk: int, x0=None,
                   out=None) -> ScanResult:
    """Chunked scan in the dual (Toeplitz) form of Dao and Gu (2024).

    The input is cut into chunks of K = min(chunk, N, W) steps, and the
    state entering each chunk comes from one closed-form step per chunk
    (``_segment_entries``).  Within a chunk that starts from entry state e,
    output t is

        y_t = Re(C diag(lam^(t+1)) e) + sum_{s<=t} h[t-s] z_s,
        h[tau] = Re(C diag(b) lam^tau),

    that is, one real matmul of the stacked (K M, 2M + K) operator
    ``_dual_kernel`` on the chunk's operand [float view of conj(e); inputs]
    (``_chunk_outputs``), written straight into the outputs.  Besides the
    outputs the scan holds the ceil(N/K) entry states and one chunk's
    operand.  A ragged last chunk of L steps uses the top-left
    (L M, 2M + L) block of the operator; the final state is one more
    closed-form step from the last entry, into ``out`` when given.  No
    state inside a chunk is ever formed, and K never exceeds N or W, so the
    K^2 M kernel is no larger than the (N, M, W) outputs.
    """
    z, x0, k, powers, entries = _dual_setup(ssm, z, chunk, x0, out)
    n, from_zero = z.shape[0], not np.any(x0)
    op = _dual_kernel(ssm, powers)
    outputs = _new_outputs(ssm, z)
    for lo in range(0, n, k):
        entry = None if lo == 0 and from_zero else entries[lo // k]
        _chunk_outputs(op, entry, z[lo:lo + k], outputs[lo:lo + k])
    return ScanResult(outputs=outputs,
                      final_state=_final_state(ssm, powers, z, entries, x0, out))


def final_state(ssm: DiagonalSSM, z: np.ndarray, chunk: int, x0=None, out=None) -> np.ndarray:
    """The state after scanning ``z`` from ``x0``, by the dual form's
    closed-form steps alone: one per K-chunk (``_segment_entries``) and one
    over the last chunk (``_final_state``), with no outputs.  It is
    ``scan_chunkwise(ssm, z, chunk, x0, out).final_state`` bit for bit, in
    ``out`` when given."""
    z, x0, _, powers, entries = _dual_setup(ssm, z, chunk, x0, out)
    return _final_state(ssm, powers, z, entries, x0, out)


def _combine(states: np.ndarray, first: int, span: int, lam_span: np.ndarray,
             buf: np.ndarray) -> None:
    """One level of ``scan_prefix``'s sweeps, in place: for every i = first
    + span, first + 3 span, ..., states[i] = lam_span * states[i - span] +
    states[i], which combines the run of ``span`` pairs ending at i with
    the run ending at i - span on its left.  ``lam_span`` has the states'
    (W, M) shape, and the products go into ``buf``, reused across levels."""
    right = states[first + span::2 * span]
    right += np.multiply(lam_span, states[first::2 * span][:len(right)], out=buf[:len(right)])


def _prefix_sweep(lam: np.ndarray, states: np.ndarray) -> None:
    """The up- and down-sweeps of ``scan_prefix``, in place on the (L, W, M)
    pairs' second halves, the first of which already holds lam x_{-1}: each
    becomes its state.  Each level's power of lam is broadcast once to the
    (W, M) state, so a level is one contiguous multiply and one add."""
    levels = []  # (2^d, lam^(2^d)) for every d with 2^(d+1) <= L
    span, lam_span = 1, np.broadcast_to(lam, states.shape[1:]).copy()
    while 2 * span <= len(states):
        levels.append((span, lam_span))
        span, lam_span = 2 * span, lam_span * lam_span
    buf = np.empty_like(states[:len(states) // 2])
    for span, lam_span in levels:        # up-sweep
        _combine(states, span - 1, span, lam_span, buf)
    for span, lam_span in levels[::-1]:  # down-sweep
        _combine(states, 2 * span - 1, span, lam_span, buf)


def scan_prefix(ssm: DiagonalSSM, z: np.ndarray, x0=None, f_q=None, out=None) -> ScanResult:
    """Work-efficient inclusive associative scan (Blelloch, 1990) over the
    pairs (lam, b z_t), (a1, b1) o (a2, b2) = (a1 a2, a2 b1 + b2), one
    block of positions at a time (``_scan_blocks``), with lam times the
    carried state folded into each block's first pair.

    Every pair's ``a`` is a power of the one lam, and a run of 2^d pairs has
    a = lam^(2^d), so each level needs only that (M,) power, made by
    squaring.  The up-sweep leaves state i holding the run of 2^d pairs
    ending at i, for the largest 2^d dividing i + 1; the down-sweep then
    completes, level by level from the top, every state from the completed
    one 2^d to its left (``_prefix_sweep``).  Both work in place on the
    block's (L, W, M) states, in about 2L combines over 2 log2(L)
    vectorized levels; with ``f_q`` the block is read out as the heads'
    outputs, and the final state goes into ``out`` when given.
    """
    z, x0 = _check_scan_input(ssm, z, x0, out)
    f_q = _check_query(z, f_q)
    return _scan_blocks(ssm, z, x0, f_q, out, _prefix_sweep)


def run_scan(ssm: DiagonalSSM, z: np.ndarray, backend: str,
             chunk: int = 16, x0=None, f_q=None, out=None) -> ScanResult:
    """One group's scan of ``z`` from ``x0`` on ``backend``.  Given the
    (N, P, R) query features ``f_q`` of the group's P heads, the outputs
    are the heads' (N, P, W - R) f_q U^T Gamma on every backend, where
    [U | Gamma] would be the (N, M, W) scan outputs split at R.

    Given ``out``, a writeable C-contiguous complex (W, M) array, every
    backend writes the final state into it and returns it as
    ``final_state`` (x0 copied in when N = 0).  ``out`` may be ``x0``
    itself, which then ends as the final state, with the outputs and final
    state of a separate ``out`` bit for bit: every backend has read what
    it needs of x0 before it writes ``out``, or writes it elementwise from
    x0.  Otherwise ``x0``, in any memory layout, is never written.  A
    one-step ``sequential`` or ``parallel_prefix`` scan, as in decode,
    forms its state in ``out`` directly.  Any other ``out`` raises
    ValueError."""
    if backend == "sequential":
        return scan_sequential(ssm, z, x0, f_q, out)
    if backend == "fft":
        return scan_fft(ssm, z, x0, f_q, out)
    if backend == "chunkwise":
        return scan_chunkwise(ssm, z, chunk, x0, out) if f_q is None else \
            query_readout(ssm, z, f_q, chunk, x0, out)
    if backend == "parallel_prefix":
        return scan_prefix(ssm, z, x0, f_q, out)
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
    x0: np.ndarray             # (W, M) complex, of the entry state, the zero one included


def _adjoint_tail(ssm: DiagonalSSM, powers: np.ndarray, z: np.ndarray, entries: np.ndarray,
                  drive, grad_z: np.ndarray, g_h: np.ndarray, g_c: np.ndarray,
                  by_power: np.ndarray, final_upstream: np.ndarray) -> SsmGrads:
    """The end both dual-form adjoints share, for K-chunks and the (K + 1,
    M) table of lam**t: carry the adjoints of the chunks' entry states back
    to z, b, lam and x_0 through the closed-form entry step, then assemble
    the ``SsmGrads``.

    It takes what the caller's chunk loop accumulated, as holomorphic
    adjoints: ``g_h``, the (K, M) real adjoint of the lag kernel h[tau] =
    Re(C diag(b) lam^tau); ``g_c``, the rest of C's; ``by_power``, the
    (K, M) adjoint of lam^(t+1) in the entry maps; ``drive(j)``, d_j, the
    (W, M) adjoint of entry j from its own chunk's outputs, entry 0 (x_0)
    included; and ``grad_z`` so far.  ``grad_z``, ``by_power`` and
    ``entries``, the states ``_segment_entries`` returned, are overwritten.

    ``final_upstream``, the (W, M) gradient of the final state in the
    ``SsmGrads`` convention (zeros when no loss reads it), enters through
    ``_final_state``'s step over the last chunk's L steps from the last
    entry: into grad z and the adjoints of b lam^tau and of lam^L, and as
    lam^L times it into the last entry's adjoint.  One reversed ``_recur``
    with lam^K then carries a_j = lam^K a_{j+1} + d_j through every entry,
    entry 0 included, so x_0's gradient is its last row, whether or not
    x_0 was zero.  Entry j + 1 is the closed-form step over full chunk j
    from entry j, so a_{j+1} adds Re(b lam^(K-1-p) a_{j+1}) to ``grad_z[jK
    + p]``, one GEMM per chunk in one batched matmul, and the lag sums of z
    against the a_j to the adjoint of b lam^tau.

    b lam^tau then gets by_lag = g_h C plus those lag sums, and C gets
    g_c + g_h^T (b lam^tau).  Nothing divides by lam: tau lam^(tau-1) is
    read from the pole-power table shifted by one, so the result agrees
    across chunk lengths to roundoff for any pole magnitude.
    """
    k = powers.shape[0] - 1
    n = z.shape[0]
    w, m = entries.shape[1:]
    last = n - (len(entries) - 1) * k  # steps in the last chunk
    g_final = np.conj(final_upstream)  # holomorphic
    b_powers = ssm.b * powers[:last][::-1]  # row p is b lam^(last-1-p)
    grad_z[n - last:] += np.conj(b_powers).view(float) @ g_final.view(float).T
    final_lag = (z[n - last:] @ g_final.view(float)).view(complex)[::-1]  # row tau
    # of lam^last; an empty row range when N = 0, where the final state is x_0
    by_power[last - 1:last] += np.einsum("wm,wm->m", g_final, entries[-1])
    g_final *= powers[last]  # the last entry's share
    # The lam^K of the entry step wants sum_j a_j e_{j-1} = sum_j d_j S_j,
    # S_j = sum_{i<j} lam^(K(j-1-i)) e_i, so one buffer serves all three:
    # S_{j+1} overwrites e_j, then d_j overwrites S_{j+1} (read at chunk
    # j + 1 just before; no chunk reads the last row's), then a_j does.
    zero = np.zeros((w, m), dtype=complex)
    _recur(powers[k], entries, zero, entries)
    entries[-1] = drive(len(entries) - 1) + g_final
    entry_sum = np.zeros(m, dtype=complex)  # sum_j d_j S_j, per mode
    for j in range(len(entries) - 1, 0, -1):
        entry_sum += np.einsum("wm,wm->m", entries[j], entries[j - 1])
        entries[j - 1] = drive(j - 1)
    _recur(powers[k], entries[::-1], zero, entries[::-1])

    exits = entries[1:]  # the adjoints of entries 1, 2, ...
    full = len(exits) * k
    b_powers = ssm.b * powers[k - 1::-1]  # row p is b lam^(k-1-p)
    grad_z[:full] += (np.conj(b_powers).view(float)
                      @ exits.view(float).swapaxes(1, 2)).reshape(full, w)
    # row p: sum over full chunks j and channels c of z[jk + p, c] exits[j, c]
    z_lag = (z[:full].reshape(-1, k, w).transpose(1, 0, 2).reshape(k, -1)
             @ exits.view(float).reshape(-1, 2 * m)).view(complex)[::-1]
    z_lag[:last] += final_lag

    d_powers = np.zeros_like(powers)  # row tau is tau lam^(tau-1), d(lam^tau)/d(lam)
    d_powers[1:] = np.arange(1, k + 1)[:, None] * powers[:k]
    by_lag = g_h @ ssm.c_out + z_lag  # of b lam^tau
    df_dlam = (ssm.b * np.sum(by_lag * d_powers[:k], axis=0)
               + np.sum(by_power * d_powers[1:], axis=0) + d_powers[k] * entry_sum)
    p = df_dlam * ssm.delta * ssm.lam  # holomorphic dF/da
    return SsmGrads(
        z=grad_z,
        delta=(df_dlam * ssm.a * ssm.lam).real,
        a_log_neg_re=p.real * ssm.a.real,
        a_im=-p.imag,
        b=np.conj(np.sum(by_lag * powers[:k], axis=0)),
        c_out=np.conj(g_c + g_h.T @ (ssm.b * powers[:k])),
        x0=np.conj(entries[0]),
    )


def backward_checkpointed(
    ssm: DiagonalSSM, z: np.ndarray, upstream: np.ndarray, chunk: int, out=None,
    x0=None, final_upstream=None,
) -> tuple[np.ndarray, SsmGrads]:
    """Reverse-mode gradients of loss = sum(upstream * outputs) +
    <final_upstream, final state> from ``x0``: the adjoint of
    ``scan_chunkwise``'s dual form with chunks of K = min(chunk, N, W)
    steps.  None, for either state, is the zero state: a fresh sequence, or
    a final state that no loss reads.  Returns (outputs, ``SsmGrads``),
    where outputs are ``scan_chunkwise(ssm, z, chunk, x0).outputs`` bit for
    bit, formed chunk by chunk from the entry states and operator the
    adjoint builds anyway (``_chunk_outputs``), so a training step scans
    each group once.  They are written into ``out`` when given, which must
    be a writeable C-contiguous float (N, M, W) array.  No state is
    checkpointed or rebuilt any more; the name is kept because perfbench
    traces it.

    * grad z: the transposed Toeplitz kernel on each chunk's upstream;
    * the adjoint of the kernel's h[tau] = Re(C diag(b) lam^tau): the lag
      correlation R[tau, i] = sum_t sum_c g[t, i, c] z[t-tau, c];
    * the entry term: g^T @ A for the adjoint of every entry state, x_0's
      included, and g @ e for C and lam.  As in ``scan_chunkwise``, chunk
      0 skips its entry columns in the outputs, and its g @ e, when x_0 is
      zero.

    ``_adjoint_tail`` carries the entry states' adjoints on to z, b, lam
    and ``SsmGrads.x0``, the gradient of x_0, which is always returned,
    adds ``final_upstream``, the (W, M) complex gradient of the final state
    in the ``SsmGrads`` convention, and assembles the gradients.

    Each chunk's upstream is read in place, never copied.  Besides the
    outputs (none with ``out``) and sums the size of the kernel, the one
    large temporary is a single buffer of ceil(N/K) complex (W, M) states
    that holds the entry states and then their adjoints: 2/K of the size of
    ``upstream``, so within it for K >= 2 and twice it at K = 1, where
    every state is an entry state.
    """
    z, x0, k, powers, entries = _dual_setup(ssm, z, chunk, x0)
    upstream = _real(upstream, "upstream")
    (n, w), m = z.shape, ssm.state_dim
    if upstream.shape != (n, m, w):
        raise ValueError(f"upstream must be (N, M, W) = ({n}, {m}, {w}), got {upstream.shape}")
    _check_out(out, (n, m, w), float)
    final_upstream = _check_state_arg(ssm, z, "final_upstream", final_upstream)
    outputs = np.empty((n, m, w)) if out is None else out
    op = _dual_kernel(ssm, powers)
    entry, toeplitz = op[:, :2 * m], op[:, 2 * m:]

    # holomorphic adjoints; the loss is Re of a holomorphic function of the
    # complex quantities, so real gradients drop out via conjugation at the end
    def chunk_upstream(j):
        lo, ell = j * k, min(k, n - j * k)
        return lo, ell, upstream[lo:lo + ell].reshape(ell * m, w)

    grad_z = np.empty_like(z)
    g_z = np.zeros((k * m, k))      # [(t, i), s]: sum over chunks, c of g[t, i, c] z[s, c]
    g_e = np.zeros((k * m, 2 * m))  # [(t, i), m]: sum over chunks, c of g[t, i, c] e[c, m]
    from_zero = not np.any(x0)
    for j in range(-(-n // k)):
        lo, ell, g = chunk_upstream(j)
        e = None if j == 0 and from_zero else entries[j]
        _chunk_outputs(op, e, z[lo:lo + ell], outputs[lo:lo + ell])
        np.matmul(toeplitz[:ell * m, :ell].T, g, out=grad_z[lo:lo + ell])
        g_z[:ell * m, :ell] += g @ z[lo:lo + ell].T
        if e is not None:  # a zero entry adds exact zeros: skip its GEMM
            g_e[:ell * m] += g @ e.view(float)

    def drive(j):  # g_j^T @ A over chunk j
        _, ell, g = chunk_upstream(j)
        return (g.T @ entry[:ell * m]).view(complex)

    g_e = g_e.view(complex).reshape(k, m, m)
    return outputs, _adjoint_tail(
        ssm, powers, z, entries, drive, grad_z, g_h=_lag_sums(g_z),
        g_c=np.einsum("tim,tm->im", g_e, powers[1:]),
        by_power=np.einsum("tim,im->tm", g_e, ssm.c_out), final_upstream=final_upstream)


def _flip_lags(a: np.ndarray) -> np.ndarray:
    """b[c, t, h, x] = a[c, t, h, t - x] for x <= t and 0 above, over the
    two length-L axes of a (C, L, P, L) array: the map between a chunk's
    (t, s) order and its (t, lag) order, either way.  It is its own
    adjoint, and it drops the acausal entries s > t."""
    ell = a.shape[-1]
    padded = np.zeros(a.shape[:-1] + (2 * ell - 1,))
    padded[..., :ell] = a[..., ::-1]  # padded[..., u] = a[..., L-1-u], 0 for u >= L
    # b[c, t, h, x] = padded[c, t, h, L-1-t+x]: each step in t moves one
    # row on and one column back, so the view never leaves the buffer
    s_c, s_t, s_h, s_u = padded.strides
    return as_strided(padded[..., ell - 1:], shape=a.shape,
                      strides=(s_c, s_t - s_u, s_h, s_u), writeable=False).copy()


class _ReadoutBlock(NamedTuple):
    """``query_readout``'s forward over one block of C chunks of L steps:
    the block's inputs and every product its adjoint reads."""

    rows: slice
    f: np.ndarray       # (C, L P, R) query features
    z: np.ndarray       # (C, L, W) inputs
    e: np.ndarray       # (C, W, M) complex entry states
    lam_t: np.ndarray   # (L, 1, M) complex, lam^(t+1)
    scores: np.ndarray  # (C, L, P, L) F Z_r^T in lag order
    fe: np.ndarray      # (C, L, P, M) complex, F E_r
    alpha: np.ndarray   # (C L P, M)
    beta: np.ndarray    # (C L P, M) complex
    mix: np.ndarray     # (C, L P, L) P in (t, s) order
    o: np.ndarray       # (C, L P, V) head outputs


def _readout_blocks(ssm: DiagonalSSM, z: np.ndarray, f_q: np.ndarray, powers: np.ndarray,
                    entries: np.ndarray, h: np.ndarray):
    """Yield ``query_readout``'s forward block by block (``_chunk_blocks``)
    for the K-chunks of the (K + 1, M) table ``powers``, given the chunks'
    entry states and h[tau] = Re(C diag(b) lam^tau)."""
    n, p, r = f_q.shape
    k, m = powers.shape[0] - 1, ssm.state_dim
    c = ssm.c_out
    for lo, hi, ell in _chunk_blocks(n, k, p, z.shape[1], m):
        nc = (hi - lo) // ell
        lam_t = powers[1:ell + 1, None, :]
        f = f_q[lo:hi].reshape(nc, ell * p, r)
        zb = z[lo:hi].reshape(nc, ell, -1)
        e = entries[lo // k:lo // k + nc]
        scores = _flip_lags((f @ zb[..., :r].swapaxes(1, 2)).reshape(nc, ell, p, ell))
        fe = (f @ e[:, :r].view(float)).view(complex).reshape(nc, ell, p, m)
        # Re(x C^T) is the float view of x times that of conj(C)^T
        alpha = (scores.reshape(-1, ell) @ h[:ell]
                 + (fe * lam_t).view(float).reshape(-1, 2 * m) @ np.conj(c).view(float).T)
        beta = (alpha @ c.view(float)).view(complex)
        # P in lag order: Re(beta . b lam^tau) = alpha . h[tau], as h is real
        mix = _flip_lags((alpha @ h[:ell].T).reshape(nc, ell, p, ell)).reshape(nc, ell * p, ell)
        entry_out = (beta.reshape(nc, ell, p, m) * lam_t).view(float).reshape(nc, ell * p, 2 * m)
        o = mix @ zb[..., r:] + entry_out @ np.conj(e[:, r:]).view(float).swapaxes(1, 2)
        yield _ReadoutBlock(slice(lo, hi), f, zb, e, lam_t, scores, fe, alpha, beta, mix, o)


def query_readout(ssm: DiagonalSSM, z: np.ndarray, f_q: np.ndarray, chunk: int,
                  x0=None, out=None) -> ScanResult:
    """The query readout of one group, o_t[h] = f_q[t, h] U_t^T Gamma_t,
    where [U_t | Gamma_t] = ``scan_chunkwise(ssm, z, chunk, x0).outputs[t]``
    splits the W channels at R = f_q.shape[2], without forming U_t or
    Gamma_t.  Returns ``ScanResult`` with the (N, P, W - R) head outputs
    and the (W, M) final state, in ``out`` when given.

    The chunks and their entry states e are those of ``scan_chunkwise``.
    Per block of equal-length chunks (``_chunk_blocks``), with h[tau] =
    Re(C diag(b) lam^tau):

    * scores F Z_r^T, gathered into lag order S[t, tau] = (F Z_r^T)[t, t - tau];
    * alpha = S @ h + Re(C (lam^(t+1) * F E_r)), the query's M mode weights;
    * beta = alpha @ C;
    * P[t, s] = Re(beta_t . b lam^(t-s)) = alpha_t . h[t-s], made in lag
      order and gathered back;
    * o = P @ Z_v + Re((beta * lam^(t+1)) E_v^T).

    Each step is a batched GEMM over the block's chunks.  Besides the
    ceil(N/K) entry states and the (N, P, W - R) outputs it holds one
    block's products, about ``_BLOCK_BYTES``, however long the input:
    never an (N, P, K) or (N, P, M) array, nor the (N, M, W) of the scan.
    """
    z, x0, _, powers, entries = _dual_setup(ssm, z, chunk, x0, out)
    f_q = _check_query(z, f_q)
    outputs = _new_outputs(ssm, z, f_q)
    for block in _readout_blocks(ssm, z, f_q, powers, entries, _lag_kernels(ssm, powers)):
        outputs[block.rows] = block.o.reshape(-1, *outputs.shape[1:])
    return ScanResult(outputs=outputs,
                      final_state=_final_state(ssm, powers, z, entries, x0, out))


def query_readout_backward(ssm: DiagonalSSM, z: np.ndarray, f_q: np.ndarray, upstream: np.ndarray,
                           chunk: int, x0=None,
                           final_upstream=None) -> tuple[np.ndarray, SsmGrads, np.ndarray]:
    """Reverse-mode gradients of loss = sum(upstream * outputs) +
    <final_upstream, final state> for ``query_readout`` from ``x0``, where
    None, for either state, is the zero state: returns (outputs,
    ``SsmGrads``, grad f_q), where outputs are ``query_readout(ssm, z, f_q,
    chunk, x0).outputs``, the (N, P, W - R) head outputs the adjoint forms
    on its way anyway.  ``SsmGrads.x0`` is always the gradient of x_0, the
    zero state's included; ``final_upstream`` is as in
    ``backward_checkpointed``.

    The adjoint is the transposes of the forward's GEMMs, block by block,
    accumulating the adjoints of h[tau], of the rest of C and of lam^(t+1)
    in the entry maps; ``_adjoint_tail``, which ``backward_checkpointed``
    ends with too, carries the entry states' adjoints and assembles b's, C's
    and lam's gradients from those sums.  Nothing divides by lam.

    It sweeps the forward's blocks, each block's adjoint run as soon as
    its forward is made, so besides the returned arrays and two buffers of
    ceil(N/K) complex (W, M) states, the entry states and their adjoints'
    drives, it holds one block's products and their adjoints, about
    ``_BLOCK_BYTES``, and the entry carry's temporaries the size of grad z.
    """
    z, _, k, powers, entries = _dual_setup(ssm, z, chunk, x0)
    f_q = _check_query(z, f_q)
    upstream = _real(upstream, "upstream")
    n, p, r = f_q.shape
    m, w = ssm.state_dim, z.shape[1]
    if upstream.shape != (n, p, w - r):
        raise ValueError(f"upstream must be (N, P, W - R) = ({n}, {p}, {w - r}), "
                         f"got {upstream.shape}")
    final_upstream = _check_state_arg(ssm, z, "final_upstream", final_upstream)
    c = ssm.c_out
    h = _lag_kernels(ssm, powers)

    # holomorphic adjoints, as in backward_checkpointed; float views where
    # a real operand meets a complex one
    outputs = np.empty_like(upstream)
    grad_z = np.empty_like(z)
    grad_f = np.empty_like(f_q)
    drives = np.zeros_like(entries)            # row j: adjoint of entry j from chunk j; 0 at N = 0
    g_h = np.zeros((k, m))                     # of h[tau]
    by_power = np.zeros((k, m), dtype=complex)  # of lam^(t+1)
    g_c = np.zeros((m, 2 * m))                 # of C
    for fw in _readout_blocks(ssm, z, f_q, powers, entries, h):
        nc, ell = fw.scores.shape[:2]
        chunks = slice(fw.rows.start // k, fw.rows.start // k + nc)
        outputs[fw.rows] = fw.o.reshape(-1, p, w - r)
        g_o = upstream[fw.rows].reshape(nc, ell * p, w - r)
        beta = fw.beta.reshape(nc, ell, p, m)
        # o = mix @ Z_v + Re((beta * lam^(t+1)) E_v^T)
        g_mix = _flip_lags((g_o @ fw.z[..., r:].swapaxes(1, 2)).reshape(nc, ell, p, ell))
        grad_z[fw.rows, r:] = (fw.mix.swapaxes(1, 2) @ g_o).reshape(-1, w - r)
        g_entry = (g_o @ fw.e[:, r:].view(float)).view(complex).reshape(nc, ell, p, m)
        drives[chunks, r:] = (g_o.swapaxes(1, 2) @ (beta * fw.lam_t).view(float)
                              .reshape(nc, ell * p, 2 * m)).view(complex)
        by_power[:ell] += np.einsum("cthm,cthm->tm", g_entry, beta)
        # mix[t, s] = alpha_t . h[t - s], beta = alpha @ C
        g_mix = g_mix.reshape(-1, ell)
        g_beta = (g_entry * fw.lam_t).reshape(-1, m)
        g_alpha = g_beta.view(float) @ np.conj(c).view(float).T + g_mix @ h[:ell]
        g_h[:ell] += g_mix.T @ fw.alpha
        g_c += fw.alpha.T @ g_beta.view(float)
        # alpha = S @ h + Re(C (lam^(t+1) * F E_r))
        g_fe = (g_alpha @ c.view(float)).view(complex).reshape(nc, ell, p, m)
        g_c += g_alpha.T @ (fw.fe * fw.lam_t).view(float).reshape(-1, 2 * m)
        by_power[:ell] += np.einsum("cthm,cthm->tm", g_fe, fw.fe)
        g_fe = (g_fe * fw.lam_t).view(float).reshape(nc, ell * p, 2 * m)
        drives[chunks, :r] = (fw.f.swapaxes(1, 2) @ g_fe).view(complex)
        g_h[:ell] += fw.scores.reshape(-1, ell).T @ g_alpha
        g_scores = _flip_lags((g_alpha @ h[:ell].T).reshape(nc, ell, p, ell))
        g_scores = g_scores.reshape(nc, ell * p, ell)
        grad_z[fw.rows, :r] = (g_scores.swapaxes(1, 2) @ fw.f).reshape(-1, r)
        g_f = g_scores @ fw.z[..., :r] + g_fe @ np.conj(fw.e[:, :r]).view(float).swapaxes(1, 2)
        grad_f[fw.rows] = g_f.reshape(-1, p, r)

    return outputs, _adjoint_tail(ssm, powers, z, entries, drives.__getitem__, grad_z, g_h,
                                  g_c.view(complex), by_power, final_upstream), grad_f
