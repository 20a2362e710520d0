import dataclasses
import tracemalloc

import numpy as np
import pytest

from interdomain.config import make_rng
from interdomain.ssm import (
    DELTA_LOG10_RANGE,
    DiagonalSSM,
    ScanResult,
    _drive,
    backward_checkpointed,
    discretize,
    make_ssm,
    query_readout,
    query_readout_backward,
    random_ssm,
    run_scan,
    s4d_inv_init,
    scan_chunkwise,
    scan_fft,
    scan_prefix,
    scan_sequential,
    ssm_with,
)

from helpers import (
    central_diff,
    central_diff_complex,
    naive_unroll,
    query_readout_reference,
    rel_err,
)

BACKENDS = ("sequential", "fft", "chunkwise", "parallel_prefix")


def small_ssm(m=4, w=2, seed=0):
    return random_ssm(m, w, make_rng(seed))


def states_of(ssm, z, backend="sequential", x0=None, chunk=5):
    """(N, W, M) states of a scan: state t is the final state of the scan
    over z[:t+1]."""
    return np.stack([run_scan(ssm, z[:t + 1], backend, chunk=chunk, x0=x0).final_state
                     for t in range(z.shape[0])])


# --- initialization ---

def test_inverse_law_init_anchors():
    delta, a = s4d_inv_init(64, make_rng(0))
    assert np.all(a.real == -0.5)
    assert abs(a[0].imag - (64.0 / np.pi) * 63.0) < 1e-12
    assert abs(a[31].imag - 64.0 / (63.0 * np.pi)) < 1e-12
    assert abs(a[32].imag - (64.0 / np.pi) * (64.0 / 65.0 - 1.0)) < 1e-12


def test_inverse_law_imag_parts_strictly_decreasing():
    _, a = s4d_inv_init(16, make_rng(1))
    assert np.all(np.diff(a.imag) < 0)


def test_step_sizes_log_uniform_in_band():
    delta, _ = s4d_inv_init(4096, make_rng(2))
    lo, hi = DELTA_LOG10_RANGE
    assert np.all(delta >= 10.0**lo) and np.all(delta <= 10.0**hi)
    logs = np.log10(delta)
    # both halves of the log-band populated about equally
    frac = np.mean(logs < (lo + hi) / 2)
    assert 0.45 < frac < 0.55


def test_discretize_anchors():
    lam = discretize(np.array([1.0]), np.array([-1.0 + 0j]))
    assert abs(lam[0] - np.exp(-1.0)) < 1e-15
    lam = discretize(np.array([1.0]), np.array([-0.5 + 1j * np.pi]))
    assert abs(lam[0] - (-np.exp(-0.5))) < 1e-12


def test_poles_inside_unit_circle():
    ssm = small_ssm(m=16)
    assert np.all(np.abs(ssm.lam) < 1.0)
    assert np.allclose(ssm.lam, np.exp(ssm.delta * ssm.a))


def test_make_ssm_rejects_bad_parameters():
    ok = small_ssm()
    with pytest.raises(ValueError, match="shapes"):
        make_ssm(ok.delta, ok.a[:2], ok.b, ok.c_out, 2)
    with pytest.raises(ValueError, match="positive"):
        make_ssm(-ok.delta, ok.a, ok.b, ok.c_out, 2)
    with pytest.raises(ValueError, match="stable"):
        make_ssm(ok.delta, -ok.a, ok.b, ok.c_out, 2)
    with pytest.raises(ValueError, match="width"):
        make_ssm(ok.delta, ok.a, ok.b, ok.c_out, 0)


@pytest.mark.parametrize("field", ["delta", "a", "b", "c_out"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_make_ssm_rejects_non_finite_parameters(field, bad):
    # a NaN passes the sign checks on delta and Re a, and b and c_out have
    # no other check, so without this the SSM would carry the NaN silently
    ok = small_ssm()
    fields = {"delta": ok.delta.copy(), "a": ok.a.copy(), "b": ok.b.copy(),
              "c_out": ok.c_out.copy()}
    fields[field].flat[0] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_ssm(**fields, input_width=2)


def test_ssm_with_refreshes_poles():
    ssm = small_ssm()
    slower = ssm_with(ssm, delta=ssm.delta / 10)
    assert rel_err(slower.lam, np.exp(ssm.delta / 10 * ssm.a)) < 1e-15
    assert not np.allclose(slower.lam, ssm.lam)


# --- forward scans ---

def test_sequential_zero_input_stays_at_zero():
    ssm = small_ssm()
    res = scan_sequential(ssm, np.zeros((6, 2)))
    assert np.all(res.final_state == 0.0) and np.all(res.outputs == 0.0)


def test_sequential_single_step_formula():
    ssm = small_ssm()
    rng = make_rng(3)
    z = rng.standard_normal((1, 2))
    x0 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    res = scan_sequential(ssm, z, x0=x0)
    want = ssm.lam * x0 + z[0][:, None] * ssm.b
    assert rel_err(res.final_state, want) < 1e-15
    assert rel_err(res.outputs[0], (ssm.c_out @ want.T).real) < 1e-14


def test_sequential_matches_scalar_unroll():
    ssm = small_ssm(m=3, w=2, seed=4)
    rng = make_rng(5)
    z = rng.standard_normal((9, 2))
    x0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    res = scan_sequential(ssm, z, x0=x0)
    states, outs = naive_unroll(ssm, z, x0=x0)
    assert rel_err(states_of(ssm, z, x0=x0), states) < 1e-12
    assert rel_err(res.outputs, outs) < 1e-12


def test_zero_input_decay_from_initial_state():
    ssm = small_ssm()
    x0 = np.ones((2, 4), dtype=complex)
    states = states_of(ssm, np.zeros((10, 2)), x0=x0)
    mags = np.abs(states[:, 0, :])
    assert np.all(np.diff(mags, axis=0) < 0)
    want = ssm.lam[:, None] ** np.arange(1, 11)[None, :]
    assert rel_err(states[:, 0, :].T, want) < 1e-12


def test_fft_impulse_response_is_pole_powers():
    ssm = small_ssm(m=3, w=1, seed=6)
    z = np.zeros((8, 1))
    z[0, 0] = 1.0
    want = ssm.lam[None, :] ** np.arange(1, 9)[:, None] / ssm.lam[None, :] * ssm.b[None, :]
    assert rel_err(states_of(ssm, z, "fft")[:, 0, :], want) < 1e-10


def test_fft_zero_input():
    ssm = small_ssm()
    assert np.max(np.abs(states_of(ssm, np.zeros((5, 2)), "fft"))) < 1e-14


def test_chunkwise_degenerate_chunk_sizes():
    # from a nonzero x0 with every pole at one magnitude, each chunk size
    # from the plain recurrence through a ragged last chunk to one chunk
    # holding the whole input; small poles are where entry states built
    # from lam^k would show.  The chunk is clamped to the input width W, so
    # W = 12 > N lets it reach N.  The outputs come from the Toeplitz and
    # entry matmuls, the states from the closed-form entry step, so both
    # are checked
    base = small_ssm(w=12, seed=7)
    rng = make_rng(8)
    n = 10
    z = rng.standard_normal((n, 12))
    x0 = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    for mag in (0.9, 0.3, 0.05, 0.01):
        ssm = ssm_with(base, a=np.log(mag) / 0.1 + 1j * base.a.imag, delta=np.full(4, 0.1))
        want = states_of(ssm, z, x0=x0)
        want_outputs = scan_sequential(ssm, z, x0).outputs
        for chunk in (1, 3, n - 1, n, n + 5):
            got = states_of(ssm, z, "chunkwise", x0=x0, chunk=chunk)
            assert rel_err(got, want) < 1e-12, (mag, chunk)
            got_outputs = run_scan(ssm, z, "chunkwise", chunk=chunk, x0=x0).outputs
            assert rel_err(got_outputs, want_outputs) < 1e-12, (mag, chunk)


def readout_cases():
    """(ssm, z, f_q, upstream, x0) over the query readout's shapes: one to
    three heads per group, N from 1 to past W, every pole at |lam| = 0.01
    or the standard init."""
    rng = make_rng(35)
    for n, m, r, v, p in [(1, 2, 1, 1, 2), (7, 4, 3, 2, 1), (10, 3, 4, 4, 3), (33, 5, 4, 3, 2)]:
        base = random_ssm(m, r + v, rng)
        tiny = ssm_with(base, a=np.log(0.01) / 0.1 + 1j * base.a.imag, delta=np.full(m, 0.1))
        for ssm in (base, tiny):
            yield (ssm, rng.standard_normal((n, r + v)), rng.standard_normal((n, p, r)),
                   rng.standard_normal((n, p, v)),
                   rng.standard_normal((r + v, m)) + 1j * rng.standard_normal((r + v, m)))


def test_query_readout_matches_sequential_scan():
    # K = min(chunk, N, W): one step per chunk, ragged last chunks, and one
    # chunk of N when N <= W; from zero and from a nonzero x0
    for ssm, z, f_q, _, x0 in readout_cases():
        n, r = z.shape[0], f_q.shape[2]
        for start in (None, x0):
            want = scan_sequential(ssm, z, start)
            want_o = f_q @ want.outputs[..., :r].swapaxes(-1, -2) @ want.outputs[..., r:]
            for chunk in (1, 3, n, n + 5):
                got = query_readout(ssm, z, f_q, chunk, start)
                assert rel_err(got.outputs, want_o) < 1e-12, (n, chunk)
                assert rel_err(got.final_state, want.final_state) < 1e-12, (n, chunk)


def test_query_readout_backward_matches_reference():
    for ssm, z, f_q, up, _ in readout_cases():
        for chunk in (1, 3, z.shape[0], z.shape[0] + 5):
            want, want_f = query_readout_reference(ssm, z, f_q, up, chunk)
            outputs, got, got_f = query_readout_backward(ssm, z, f_q, up, chunk)
            # the outputs the adjoint forms are the forward's, bit for bit
            assert np.array_equal(outputs, query_readout(ssm, z, f_q, chunk).outputs), chunk
            assert rel_err(got_f, want_f) < 1e-12, chunk
            for field in ("z", "delta", "a_log_neg_re", "a_im", "b", "c_out"):
                assert rel_err(getattr(got, field), getattr(want, field)) < 1e-12, (chunk, field)


def test_query_readout_validates_input():
    ssm = small_ssm(w=3)
    z = np.zeros((4, 3))
    with pytest.raises(ValueError, match="f_q must be"):
        query_readout(ssm, z, np.zeros((4, 1, 3)), 2)  # R = W leaves no value channel
    with pytest.raises(ValueError, match="f_q must be"):
        query_readout(ssm, z, np.zeros((5, 1, 2)), 2)
    with pytest.raises(ValueError, match="f_q must be real"):
        query_readout(ssm, z, np.full((4, 1, 2), 1j), 2)
    with pytest.raises(ValueError, match="chunk"):
        query_readout(ssm, z, np.zeros((4, 1, 2)), 0)
    with pytest.raises(ValueError, match="upstream must be"):
        query_readout_backward(ssm, z, np.zeros((4, 1, 2)), np.zeros((4, 1, 2)), 2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_scan_with_query_features_returns_head_outputs(backend):
    # every backend returns f_q U^T Gamma of scan_sequential's outputs; N = 0
    # gives an empty result that keeps x0, and chunkwise is query_readout
    ssm = small_ssm(m=4, w=5, seed=38)
    rng = make_rng(39)
    r = 2
    for n in (0, 1, 2, 17, 70):
        for p in (1, 3):
            z = rng.standard_normal((n, 5))
            f_q = rng.standard_normal((n, p, r))
            x0 = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
            for start in (None, x0):
                want = scan_sequential(ssm, z, start)
                want_o = f_q @ want.outputs[..., :r].swapaxes(-1, -2) @ want.outputs[..., r:]
                got = run_scan(ssm, z, backend, chunk=4, x0=start, f_q=f_q)
                assert got.outputs.shape == (n, p, 5 - r)
                if n:
                    assert rel_err(got.outputs, want_o) < 1e-10, (n, p)
                assert rel_err(got.final_state, want.final_state) < 1e-10, (n, p)
                if backend == "chunkwise":
                    ref = query_readout(ssm, z, f_q, 4, start)
                    assert np.array_equal(got.outputs, ref.outputs)
                    assert np.array_equal(got.final_state, ref.final_state)


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_scan_validates_query_features(backend):
    ssm = small_ssm(w=3)
    z = np.zeros((4, 3))
    with pytest.raises(ValueError, match="f_q must be real"):
        run_scan(ssm, z, backend, f_q=np.full((4, 1, 2), 1j))
    with pytest.raises(ValueError, match="f_q must be"):
        run_scan(ssm, z, backend, f_q=np.zeros((5, 1, 2)))  # wrong N
    with pytest.raises(ValueError, match="f_q must be"):
        run_scan(ssm, z, backend, f_q=np.zeros((4, 1, 3)))  # R = W leaves no value channel


def test_chunkwise_rejects_bad_chunk():
    ssm = small_ssm()
    with pytest.raises(ValueError):
        scan_chunkwise(ssm, np.zeros((4, 2)), 0)


def test_prefix_combine_identity_and_associativity():
    # the scan composes affine maps x -> a*x + b; identity is (1, 0) and
    # composition must associate for the tree reduction to be valid
    rng = make_rng(9)
    trip = [(rng.standard_normal() + 1j * rng.standard_normal(),
             rng.standard_normal() + 1j * rng.standard_normal()) for _ in range(3)]

    def comb(p, q):
        return (q[0] * p[0], q[0] * p[1] + q[1])

    e = (1.0 + 0j, 0.0 + 0j)
    for p in trip:
        assert comb(p, e) == p and comb(e, p) == p
    lhs = comb(comb(trip[0], trip[1]), trip[2])
    rhs = comb(trip[0], comb(trip[1], trip[2]))
    assert abs(lhs[0] - rhs[0]) < 1e-12 and abs(lhs[1] - rhs[1]) < 1e-12


@pytest.mark.parametrize("backend", BACKENDS[1:])
def test_backends_agree_with_sequential(backend):
    for n, m, w, seed in [(1, 2, 1, 10), (7, 4, 2, 11), (64, 8, 3, 12), (100, 4, 2, 13)]:
        ssm = small_ssm(m=m, w=w, seed=seed)
        rng = make_rng(seed + 100)
        z = rng.standard_normal((n, w))
        x0 = rng.standard_normal((w, m)) + 1j * rng.standard_normal((w, m))
        base = run_scan(ssm, z, "sequential", x0=x0)
        got = run_scan(ssm, z, backend, chunk=5, x0=x0)
        assert rel_err(states_of(ssm, z, backend, x0=x0),
                       states_of(ssm, z, x0=x0)) < 1e-8
        assert rel_err(got.outputs, base.outputs) < 1e-8


@pytest.mark.parametrize("backend", ["fft", "parallel_prefix"])
def test_scan_matches_sequential_at_every_length(backend):
    # N from 0 to 70 passes each power of two up to 64 on both sides, where
    # the FFT length doubles and the up- and down-sweeps gain a level; the
    # entry term and the first pair's lam x0 run only from a nonzero x0
    ssm = small_ssm(m=3, w=2, seed=36)
    rng = make_rng(37)
    for n in range(71):
        z = rng.standard_normal((n, 2))
        x0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        for start in (None, x0):
            want = scan_sequential(ssm, z, start)
            got = run_scan(ssm, z, backend, x0=start)
            assert got.outputs.shape == want.outputs.shape, n
            if n:
                assert rel_err(got.outputs, want.outputs) < 1e-10, n
            assert rel_err(got.final_state, want.final_state) < 1e-10, n


@pytest.mark.parametrize("backend", BACKENDS)
def test_split_scan_equals_one_shot(backend):
    ssm = small_ssm(seed=14)
    rng = make_rng(15)
    z = rng.standard_normal((12, 2))
    head = run_scan(ssm, z[:5], backend, chunk=4)
    states = np.concatenate([states_of(ssm, z[:5], backend, chunk=4),
                             states_of(ssm, z[5:], backend, x0=head.final_state, chunk=4)])
    assert rel_err(states, states_of(ssm, z, backend, chunk=4)) < 1e-10
    # an empty split from a nonzero state is an empty result that keeps the state
    empty = run_scan(ssm, z[:0], backend, chunk=4, x0=head.final_state)
    assert empty.final_state is head.final_state
    assert empty.outputs.shape == (0, 4, 2)
    assert [f.name for f in dataclasses.fields(ScanResult)] == ["outputs", "final_state"]


@pytest.mark.parametrize("n", [0, 1, 2, 17, 70])
@pytest.mark.parametrize("backend", BACKENDS)
def test_run_scan_writes_final_state_into_out(backend, n):
    # every backend writes the final state into ``out`` and returns it,
    # bit for bit what it returns without ``out``, and never writes x0
    ssm = small_ssm(m=3, w=5, seed=60)
    rng = make_rng(61)
    z = rng.standard_normal((n, 5))
    f_q = rng.standard_normal((n, 3, 2))
    x0 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    for start in (np.zeros((5, 3), dtype=complex), x0):
        kept = start.copy()
        for query in (None, f_q):
            want = run_scan(ssm, z, backend, chunk=16, x0=start, f_q=query)
            out = np.full((5, 3), np.nan + 1j * np.nan)
            got = run_scan(ssm, z, backend, chunk=16, x0=start, f_q=query, out=out)
            assert got.final_state is out
            assert np.array_equal(got.final_state, want.final_state)
            assert np.array_equal(got.outputs, want.outputs)
            assert np.array_equal(start, kept)


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_scan_rejects_a_bad_out(backend):
    ssm = small_ssm(m=3, w=5)
    z = np.zeros((4, 5))
    for bad in (np.zeros((3, 5), dtype=complex), np.zeros((5, 3)),
                np.zeros((5, 3), dtype=np.complex64), np.zeros((5, 6), dtype=complex)[:, ::2],
                np.zeros((2, 5, 3), dtype=complex), [[0j] * 3] * 5):
        with pytest.raises(ValueError, match=r"out must be a writeable C-contiguous complex "
                                             r"\(5, 3\) array"):
            run_scan(ssm, z, backend, out=bad)
    frozen = np.zeros((5, 3), dtype=complex)
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="out must be"):
        run_scan(ssm, z, backend, out=frozen)


def test_drive_is_the_broadcast_product():
    # the contiguous drive of the sequential and prefix scans equals the
    # broadcast z[:, :, None] * b bit for bit
    rng = make_rng(62)
    ssm = ssm_with(small_ssm(m=16, w=32, seed=62),
                   b=rng.standard_normal(16) + 1j * rng.standard_normal(16))
    z = rng.standard_normal((70, 32))
    for rows in (z, z[:1], z[:0], z[::3]):
        assert np.array_equal(_drive(ssm, rows), rows[:, :, None] * ssm.b)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        run_scan(small_ssm(), np.zeros((2, 2)), "magic")


def test_scan_validates_input_shape():
    ssm = small_ssm()
    with pytest.raises(ValueError, match="z must be"):
        scan_sequential(ssm, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="x0 must be"):
        scan_sequential(ssm, np.zeros((4, 2)), x0=np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"x0 must be \(2, 4\)"):  # (M, W) is not a state
        scan_sequential(ssm, np.zeros((4, 2)), x0=np.zeros((4, 2)))


def test_complex_drive_rejected():
    # a complex drive or upstream must not be cut to its real part
    ssm = small_ssm()
    z = np.full((4, 2), 1.0 + 0.5j)
    for backend in BACKENDS:
        with pytest.raises(ValueError, match="z must be real"):
            run_scan(ssm, z, backend)
    with pytest.raises(ValueError, match="z must be real"):
        backward_checkpointed(ssm, z, np.zeros((4, 4, 2)), 2)
    with pytest.raises(ValueError, match="upstream must be real"):
        backward_checkpointed(ssm, z.real, np.full((4, 4, 2), 1j), 2)


@pytest.mark.parametrize("chunk", [1, 16, 2048])
def test_chunkwise_memory_bounded_by_outputs(chunk):
    # besides the (N, M, W) outputs the scan holds one buffer of ceil(N/K)
    # (W, 2M + K) operands, the entry states written straight into them,
    # and no full-size product temporary; K = min(chunk, N, W) keeps the
    # K^2 M kernel small even when the chunk is as long as the input
    m, w, n = 16, 32, 2048
    ssm = small_ssm(m=m, w=w, seed=31)
    z = make_rng(32).standard_normal((n, w))
    tracemalloc.start()
    try:
        outputs = scan_chunkwise(ssm, z, chunk).outputs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = min(chunk, n, w)
    assert peak <= (1.25 + (2 * m + k) / (k * m)) * outputs.nbytes


@pytest.mark.parametrize("scan, bound", [(scan_fft, 2.0), (scan_prefix, 3.25)])
def test_fft_and_prefix_memory_bounded_by_outputs(scan, bound):
    # fft convolves one mode at a time: besides the (N, M, W) outputs it
    # holds one mode's (n_fft, W) spectrum and convolution and the (N, M)
    # lag kernel, never an (n_fft, M, W) product or any state.  The prefix
    # scan sweeps the (N, W, M) complex states, twice the outputs, in place,
    # with no (N, 1, M) array of pair multipliers
    m, w, n = 16, 32, 2048
    ssm = small_ssm(m=m, w=w, seed=31)
    z = make_rng(32).standard_normal((n, w))
    tracemalloc.start()
    try:
        outputs = scan(ssm, z).outputs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * outputs.nbytes


@pytest.mark.parametrize("interval", [1, 2, 16, 2048])
def test_backward_memory_bounded_by_upstream(interval):
    # the upstream is read in place, never copied: besides a few arrays the
    # size of z, the backward holds one buffer of ceil(N/K) complex (W, M)
    # states, 2/K of the upstream's size, for the entry states and then
    # their adjoints; K = min(interval, N, W).  The outputs go into ``out``
    ssm = small_ssm(m=16, w=32, seed=33)
    rng = make_rng(34)
    z = rng.standard_normal((2048, 32))
    up = rng.standard_normal((2048, 16, 32))
    out = np.empty_like(up)
    tracemalloc.start()
    try:
        backward_checkpointed(ssm, z, up, interval, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * up.nbytes / min(interval, 32) + 4 * z.nbytes


@pytest.mark.parametrize("chunk", [16, 64, 2048])
def test_query_readout_backward_memory_below_scan_outputs(chunk):
    # the readout's adjoint never forms the (N, M, W) scan outputs: its
    # arrays are (N, P, K), (N, P, M) or two buffers of ceil(N/K) (W, M)
    # states, so its peak stays below those outputs' bytes.  At chunk 1
    # the state buffers are every state, by design, so it is left out
    n, m, w, r, p = 2048, 16, 128, 64, 1
    ssm = small_ssm(m=m, w=w, seed=49)
    rng = make_rng(50)
    z = rng.standard_normal((n, w))
    f_q = rng.standard_normal((n, p, r))
    up = rng.standard_normal((n, p, w - r))
    tracemalloc.start()
    try:
        query_readout_backward(ssm, z, f_q, up, chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m * w * 8


def test_outputs_are_real_part_of_readout():
    ssm = small_ssm(seed=16)
    z = make_rng(17).standard_normal((6, 2))
    res = scan_sequential(ssm, z)
    want = np.stack([(ssm.c_out @ state.T).real for state in states_of(ssm, z)])
    assert rel_err(res.outputs, want) < 1e-14


# --- backward pass ---

def test_checkpoint_interval_validated():
    ssm = small_ssm()
    with pytest.raises(ValueError, match="interval"):
        backward_checkpointed(ssm, np.zeros((4, 2)), np.zeros((4, 4, 2)), 0)


def test_backward_zero_upstream_zero_grads():
    ssm = small_ssm(seed=23)
    z = make_rng(24).standard_normal((8, 2))
    _, g = backward_checkpointed(ssm, z, np.zeros((8, 4, 2)), interval=3)
    for field in (g.z, g.delta, g.a_log_neg_re, g.a_im, g.b, g.c_out):
        assert np.all(field == 0.0)


@pytest.mark.parametrize("mag", [0.9, 0.3, 0.05, 0.01])
def test_backward_interval_free(mag):
    # every pole at |lam| = mag: small poles are where a segment that
    # rebuilt its states by dividing by lam would amplify roundoff by mag^-K;
    # 7 and 63 leave a ragged last chunk, 64 and 69 make one chunk of N = 64
    base = small_ssm(m=4, w=64, seed=25)
    ssm = ssm_with(base, a=np.log(mag) / 0.1 + 1j * base.a.imag, delta=np.full(4, 0.1))
    assert np.allclose(np.abs(ssm.lam), mag)
    rng = make_rng(26)
    z = rng.standard_normal((64, 64))
    up = rng.standard_normal((64, 4, 64))
    _, whole = backward_checkpointed(ssm, z, up, interval=1)
    for interval in (7, 16, 63, 64, 69):
        _, seg = backward_checkpointed(ssm, z, up, interval=interval)
        for field in ("z", "delta", "a_log_neg_re", "a_im", "b", "c_out"):
            assert rel_err(getattr(seg, field), getattr(whole, field)) < 1e-9, (interval, field)


def test_backward_shape_mismatch_rejected():
    ssm = small_ssm()
    with pytest.raises(ValueError, match="upstream"):
        backward_checkpointed(ssm, np.zeros((4, 2)), np.zeros((4, 3, 2)), 2)


@pytest.mark.parametrize("n", [1, 2, 17, 64, 70, 96])
@pytest.mark.parametrize("interval", [1, 3, 16, 64])
def test_backward_returns_the_chunkwise_outputs(n, interval):
    # the adjoint forms the scan outputs from the entry states and operator
    # it builds anyway: bit for bit scan_chunkwise's, into ``out`` when
    # given, with the same gradients either way
    ssm = small_ssm(m=5, w=12, seed=62)
    rng = make_rng(63)
    z = rng.standard_normal((n, 12))
    up = rng.standard_normal((n, 5, 12))
    want = scan_chunkwise(ssm, z, interval).outputs
    outputs, grads = backward_checkpointed(ssm, z, up, interval)
    assert np.array_equal(outputs, want)
    out = np.full((n, 5, 12), np.nan)
    got, got_grads = backward_checkpointed(ssm, z, up, interval, out=out)
    assert got is out
    assert np.array_equal(got, want)
    for field in dataclasses.fields(grads):
        assert np.array_equal(getattr(got_grads, field.name), getattr(grads, field.name))


def test_backward_rejects_a_bad_out():
    ssm = small_ssm(m=3, w=5)
    z, up = np.zeros((4, 5)), np.zeros((4, 3, 5))
    frozen = np.zeros((4, 3, 5))
    frozen.flags.writeable = False
    for bad in (np.zeros((4, 5, 3)), np.zeros((4, 3, 5), dtype=np.float32),
                np.zeros((4, 3, 5), dtype=complex), np.zeros((4, 3, 10))[..., ::2],
                frozen, np.zeros((4, 3, 5)).tolist()):
        with pytest.raises(ValueError, match=r"out must be a writeable C-contiguous float "
                                             r"\(4, 3, 5\) array"):
            backward_checkpointed(ssm, z, up, 2, out=bad)


def finite_difference_case(ssm, n, seed, interval):
    rng = make_rng(seed)
    w = ssm.input_width
    z = rng.standard_normal((n, w))
    up = rng.standard_normal((n, ssm.state_dim, w))

    box = {"ssm": ssm}

    def loss():
        return float(np.sum(up * scan_sequential(box["ssm"], z).outputs))

    _, got = backward_checkpointed(ssm, z, up, interval=interval)

    assert rel_err(got.z, central_diff(loss, z)) < 1e-6

    p = np.log(-ssm.a.real)
    q = ssm.a.imag.copy()

    def set_a():
        box["ssm"] = ssm_with(ssm, a=-np.exp(p) + 1j * q)

    set_a()
    fd_p = central_diff(lambda: (set_a(), loss())[1], p)
    fd_q = central_diff(lambda: (set_a(), loss())[1], q)
    assert rel_err(got.a_log_neg_re, fd_p) < 1e-5
    assert rel_err(got.a_im, fd_q) < 1e-5
    box["ssm"] = ssm

    delta = ssm.delta.copy()

    def set_delta():
        box["ssm"] = ssm_with(ssm, delta=delta)

    fd_delta = central_diff(lambda: (set_delta(), loss())[1], delta, h=1e-7)
    assert rel_err(got.delta, fd_delta) < 1e-5
    box["ssm"] = ssm

    fd_b = central_diff_complex(
        loss, lambda: box["ssm"].b, lambda v: box.update(ssm=ssm_with(ssm, b=v))
    )
    assert rel_err(got.b, fd_b) < 1e-6
    box["ssm"] = ssm

    fd_c = central_diff_complex(
        loss, lambda: box["ssm"].c_out, lambda v: box.update(ssm=ssm_with(ssm, c_out=v))
    )
    assert rel_err(got.c_out, fd_c) < 1e-6


def test_backward_matches_finite_differences():
    finite_difference_case(small_ssm(m=4, w=2, seed=27), n=8, seed=28, interval=3)


def test_backward_matches_finite_differences_tiny_poles():
    base = small_ssm(m=3, w=2, seed=29)
    fast = ssm_with(base, a=base.a.imag * 1j - 100.0, delta=np.full(3, 0.1))
    assert np.abs(fast.lam).min() < 1e-3
    finite_difference_case(fast, n=6, seed=30, interval=2)
