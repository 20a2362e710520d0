import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from interdomain import ssm as ssm_module
from interdomain.config import make_rng
from interdomain.layer import init_layer_params, load_layer_params, save_layer_params
from interdomain.ssm import (
    DELTA_LOG10_RANGE,
    DiagonalSSM,
    ScanResult,
    _drive,
    backward_checkpointed,
    final_state,
    query_readout,
    query_readout_backward,
    random_ssm,
    run_scan,
    s4d_inv_init,
    scan_chunkwise,
    scan_fft,
    scan_prefix,
    scan_sequential,
    stack_ssms,
)

from helpers import (
    central_diff,
    central_diff_complex,
    naive_unroll,
    prefix_sweep_reference,
    query_readout_reference,
    recur_reference,
    rel_err,
    tiny_config,
    traced_peak,
)

BACKENDS = ("sequential", "fft", "chunkwise", "parallel_prefix")


def small_ssm(m=4, seed=0):
    return random_ssm(m, make_rng(seed))


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


def test_pole_anchors():
    def lam(delta, a):
        return DiagonalSSM(np.array([delta]), np.array([a]), np.ones(1), np.ones((1, 1))).lam

    assert abs(lam(1.0, -1.0 + 0j)[0] - np.exp(-1.0)) < 1e-15
    assert abs(lam(1.0, -0.5 + 1j * np.pi)[0] - (-np.exp(-0.5))) < 1e-12


def test_poles_inside_unit_circle():
    ssm = small_ssm(m=16)
    assert np.all(np.abs(ssm.lam) < 1.0)
    assert np.allclose(ssm.lam, np.exp(ssm.delta * ssm.a))


def test_ssm_record_rejects_bad_parameters():
    ok = small_ssm()
    with pytest.raises(ValueError, match="shapes"):
        DiagonalSSM(ok.delta, ok.a[:2], ok.b, ok.c_out)
    with pytest.raises(ValueError, match="positive"):
        DiagonalSSM(-ok.delta, ok.a, ok.b, ok.c_out)
    with pytest.raises(ValueError, match="stable"):
        DiagonalSSM(ok.delta, -ok.a, ok.b, ok.c_out)


@pytest.mark.parametrize("field", ["delta", "a", "b", "c_out"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ssm_record_rejects_non_finite_parameters(field, bad):
    # a NaN passes the sign checks on delta and Re a, and b and c_out have
    # no other check, so without this the SSM would carry the NaN silently
    ok = small_ssm()
    fields = {"delta": ok.delta.copy(), "a": ok.a.copy(), "b": ok.b.copy(),
              "c_out": ok.c_out.copy()}
    fields[field].flat[0] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DiagonalSSM(**fields)


def _with_first(value, first):
    value = value.copy()
    value.flat[0] = first
    return value


# (field, its bad value given a valid SSM, the message)
_BAD_SSM_FIELDS = {
    "delta=nan": ("delta", lambda ok: _with_first(ok.delta, np.nan), "delta must be finite"),
    "c_out=inf": ("c_out", lambda ok: _with_first(ok.c_out, np.inf), "c_out must be finite"),
    "delta<0": ("delta", lambda ok: -ok.delta, "step sizes must be positive"),
    "Re a>0": ("a", lambda ok: -ok.a, r"strictly stable \(Re a < 0\)"),
}


@pytest.mark.parametrize("case", list(_BAD_SSM_FIELDS))
def test_every_way_of_making_an_ssm_checks_it(case):
    # replace kept the old poles and ran no check
    field, bad, match = _BAD_SSM_FIELDS[case]
    ok = small_ssm()
    fields = {f.name: getattr(ok, f.name) for f in dataclasses.fields(ok) if f.init}
    fields[field] = bad(ok)
    makers = (lambda: DiagonalSSM(**fields),
              lambda: dataclasses.replace(ok, **{field: fields[field]}),
              lambda: stack_ssms([SimpleNamespace(**fields), ok]))
    messages = set()
    for make in makers:
        with pytest.raises(ValueError, match=match) as err:
            make()
        messages.add(str(err.value))
    assert len(messages) == 1, messages


def test_every_way_of_making_an_ssm_of_zero_modes_fails_alike(tmp_path):
    # with M = 0 the sequential and parallel_prefix scans raised a bare
    # ZeroDivisionError, chunkwise a reshape error, and fft returned empty
    # (N, 0, W) outputs
    empty = {"delta": np.ones(0), "a": -np.ones(0, complex), "b": np.ones(0, complex),
             "c_out": np.ones((0, 0), complex)}
    config = tiny_config()
    params = init_layer_params(config, make_rng(1))
    path = tmp_path / "layer.npz"
    save_layer_params(params, path)
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    np.savez(path, **{**arrays, **{f"ssm.{name}": np.stack([value] * config.n_kv)
                                   for name, value in empty.items()}})
    makers = (lambda: random_ssm(0, make_rng(0)),
              lambda: DiagonalSSM(**empty),
              lambda: dataclasses.replace(small_ssm(), **empty),
              lambda: stack_ssms([SimpleNamespace(**empty)] * 2),
              lambda: load_layer_params(path))
    for make in makers:
        with pytest.raises(ValueError, match="state size M must be >= 1, got 0 modes"):
            make()


def test_a_stack_is_indexed_by_one_group_number():
    # ssm[True] and ssm[None] made a record of (1, G, M) fields that no scan
    # takes, and an index past the stack a bare IndexError
    ssm = stack_ssms([small_ssm(seed=1), small_ssm(seed=2), small_ssm(seed=3)])
    for bad in (True, False, None, slice(0, 2), np.array([0]), 1.0, "1", 3, -4, np.int64(7)):
        with pytest.raises(IndexError, match="index one of the 3 groups by an integer, got"):
            ssm[bad]
    for g in (0, 2, -1, np.int64(1)):
        assert np.array_equal(ssm[g].c_out, ssm.c_out[g])
        assert np.array_equal(ssm[g].lam, ssm.lam[g])


def test_a_stack_of_zero_groups_is_refused():
    # it was made, and its ssm[0] raised a bare IndexError
    empty = {"delta": np.ones((0, 3)), "a": -np.ones((0, 3), complex),
             "b": np.ones((0, 3), complex), "c_out": np.ones((0, 3, 3), complex)}
    stacked = stack_ssms([small_ssm(m=3)])
    for make in (lambda: DiagonalSSM(**empty), lambda: dataclasses.replace(stacked, **empty)):
        with pytest.raises(ValueError, match="group count G must be an integer >= 1, got 0"):
            make()


def test_stacking_no_ssms_is_refused():
    # numpy's "need at least one array to stack" named no group count
    with pytest.raises(ValueError, match="group count G must be an integer >= 1, got 0"):
        stack_ssms([])


def test_replace_refreshes_poles():
    # replace kept the poles of the old step sizes
    ssm = small_ssm()
    slower = dataclasses.replace(ssm, delta=ssm.delta / 10)
    assert np.array_equal(slower.lam, np.exp(slower.delta * slower.a))
    assert not np.allclose(slower.lam, ssm.lam)


def test_poles_cannot_be_passed():
    ssm = small_ssm()
    with pytest.raises(TypeError, match="lam"):
        DiagonalSSM(ssm.delta, ssm.a, ssm.b, ssm.c_out, lam=ssm.lam)
    with pytest.raises(ValueError, match="lam is declared with init=False"):
        dataclasses.replace(ssm, lam=ssm.lam)


def test_a_row_is_its_group_made_fresh_and_views_the_stack():
    # ssm[g] reruns no check and derives nothing: every field, the poles
    # included, is the checked record's and a view of the stack's
    stack = stack_ssms([random_ssm(4, make_rng(seed)) for seed in range(3)])
    for g in range(3):
        row = stack[g]
        fresh = DiagonalSSM(stack.delta[g], stack.a[g], stack.b[g], stack.c_out[g])
        for f in ("delta", "a", "b", "c_out", "lam"):
            assert np.array_equal(getattr(row, f), getattr(fresh, f)), (g, f)
            assert np.shares_memory(getattr(row, f), getattr(stack, f)), (g, f)


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_record_scans_any_width_channel_by_channel(backend):
    # no field depends on W: one record scans inputs of any width, and as
    # the channels share only the dynamics, scanning some of z's columns
    # from those rows of x0 gives those columns and rows of the full scan
    ssm = random_ssm(4, make_rng(80))
    rng = make_rng(81)
    for w in (1, 3, 8):
        z = rng.standard_normal((13, w))
        x0 = rng.standard_normal((w, 4)) + 1j * rng.standard_normal((w, 4))
        subsets = [[c] for c in range(w)] + [list(range(0, w, 2)),
                                             rng.permutation(w)[:max(1, w - 1)]]
        for start in (None, x0):
            full = run_scan(ssm, z, backend, chunk=5, x0=start)
            full_final = final_state(ssm, z, 5, start)
            assert full.outputs.shape == (13, 4, w) and full.final_state.shape == (w, 4)
            for cols in subsets:
                part_x0 = None if start is None else start[cols]
                part = run_scan(ssm, z[:, cols], backend, chunk=5, x0=part_x0)
                assert rel_err(part.outputs, full.outputs[..., cols]) < 1e-12, (w, cols)
                assert rel_err(part.final_state, full.final_state[cols]) < 1e-12, (w, cols)
                assert rel_err(final_state(ssm, z[:, cols], 5, part_x0),
                               full_final[cols]) < 1e-12, (w, cols)


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
    ssm = small_ssm(m=3, seed=4)
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
    ssm = small_ssm(m=3, seed=6)
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
    base = small_ssm(seed=7)
    rng = make_rng(8)
    n = 10
    z = rng.standard_normal((n, 12))
    x0 = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    for mag in (0.9, 0.3, 0.05, 0.01):
        ssm = dataclasses.replace(base, a=np.log(mag) / 0.1 + 1j * base.a.imag,
                                  delta=np.full(4, 0.1))
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
        base = random_ssm(m, rng)
        tiny = dataclasses.replace(base, a=np.log(0.01) / 0.1 + 1j * base.a.imag,
                                   delta=np.full(m, 0.1))
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
    # the two dual-form adjoints share one tail; from zero and from a given
    # x0, with and without a final-state upstream, they agree on every
    # field, x0's gradient from a zero entry included
    rng = make_rng(36)
    for ssm, z, f_q, up, x0 in readout_cases():
        final_up = rng.standard_normal(x0.shape) + 1j * rng.standard_normal(x0.shape)
        for chunk, start, final in itertools.product(
                (1, 3, z.shape[0], z.shape[0] + 5), (None, x0), (None, final_up)):
            case = (chunk, start is None, final is None)
            want, want_f = query_readout_reference(ssm, z, f_q, up, chunk, start, final)
            outputs, got, got_f = query_readout_backward(ssm, z, f_q, up, chunk, start, final)
            # the outputs the adjoint forms are the forward's, bit for bit
            assert np.array_equal(outputs, query_readout(ssm, z, f_q, chunk, start).outputs), case
            assert rel_err(got_f, want_f) < 1e-12, case
            for field in dataclasses.fields(want):
                got_v, want_v = getattr(got, field.name), getattr(want, field.name)
                assert rel_err(got_v, want_v) < 1e-12, (case, field.name)


def test_query_readout_validates_input():
    ssm = small_ssm()
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
    ssm = small_ssm(m=4, seed=38)
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
    ssm = small_ssm()
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
        ssm = small_ssm(m=m, seed=seed)
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
    ssm = small_ssm(m=3, seed=36)
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
    ssm = small_ssm(m=3, seed=60)
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


@pytest.mark.parametrize("n", [0, 1, 2, 17])
@pytest.mark.parametrize("backend", BACKENDS)
def test_out_may_be_x0_itself(backend, n):
    # the layer updates the state it owns in place, handing a group's row
    # to run_scan as both x0 and out: every backend then writes the same
    # outputs and final state as with a separate out, with or without
    # query features, at N = 0, one step and more than one chunk
    ssm = small_ssm(m=3, seed=62)
    rng = make_rng(63)
    z = rng.standard_normal((n, 5))
    f_q = rng.standard_normal((n, 3, 2))
    x0 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    for query in (None, f_q):
        want = run_scan(ssm, z, backend, chunk=4, x0=x0, f_q=query, out=np.empty_like(x0))
        state = x0.copy()
        got = run_scan(ssm, z, backend, chunk=4, x0=state, f_q=query, out=state)
        assert got.final_state is state
        assert np.array_equal(got.final_state, want.final_state)
        assert np.array_equal(got.outputs, want.outputs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fortran_ordered_x0_scans_like_a_c_ordered_one(backend):
    # the scans take float views of x0, so a Fortran-ordered one is copied
    # into C order first; it used to fail with numpy's float-view error
    ssm = small_ssm(m=3, seed=72)
    rng = make_rng(73)
    x0 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    fortran = np.asfortranarray(x0)
    assert not fortran.flags.c_contiguous
    for n in (0, 1, 3):
        z = rng.standard_normal((n, 5))
        for f_q in (None, rng.standard_normal((n, 2, 2))):
            want = run_scan(ssm, z, backend, chunk=2, x0=x0, f_q=f_q)
            got = run_scan(ssm, z, backend, chunk=2, x0=fortran, f_q=f_q)
            assert np.array_equal(got.outputs, want.outputs), n
            assert np.array_equal(got.final_state, want.final_state), n
            assert np.array_equal(fortran, x0)


def _stepwise(ssm, z, x0, f_q):
    """(outputs, final state) of an explicit loop of steps x = lam x + b z_t,
    each state read out on its own."""
    state, outputs = x0, []
    for t in range(len(z)):
        state = ssm.lam * state + z[t][:, None] * ssm.b
        out = np.empty((1, ssm.state_dim, z.shape[1]) if f_q is None
                       else (1, f_q.shape[1], z.shape[1] - f_q.shape[2]))
        ssm_module._read_out(ssm, state[None], None if f_q is None else f_q[t:t + 1], out)
        outputs.append(out)
    return outputs, state


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_block_boundaries(monkeypatch, rows):
    # with blocks of 1 to 3 positions, every N around one and two blocks:
    # sequential is the explicit recurrence bit for bit, prefix and fft
    # agree with it, x0 is never written, and the final state is no view
    # of a block buffer (each block's buffer is the drive it starts from)
    m, w = 3, 5
    ssm = small_ssm(m=m, seed=74)
    monkeypatch.setattr(ssm_module, "_BLOCK_BYTES", rows * 16 * w * m)
    buffers = []

    def recorded_drive(*args):
        buffers.append(_drive(*args))
        return buffers[-1]

    monkeypatch.setattr(ssm_module, "_drive", recorded_drive)
    rng = make_rng(75)
    x0 = rng.standard_normal((w, m)) + 1j * rng.standard_normal((w, m))
    for n in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows + 3}):
        z = rng.standard_normal((n, w))
        for start in (np.zeros((w, m), dtype=complex), x0):
            kept = start.copy()
            for f_q in (None, rng.standard_normal((n, 2, 2))):
                outputs, final = _stepwise(ssm, z, start, f_q)
                for backend in ("sequential", "parallel_prefix", "fft"):
                    for out in (None, np.empty((w, m), dtype=complex)):
                        buffers.clear()
                        got = run_scan(ssm, z, backend, x0=start, f_q=f_q, out=out)
                        case = (backend, n, f_q is None, out is None)
                        assert got.outputs.shape[0] == n, case
                        if backend != "fft":
                            assert len(buffers) == -(-n // rows), case
                        if backend == "sequential":
                            assert np.array_equal(got.outputs, np.concatenate(
                                outputs or [got.outputs[:0]])), case
                            assert np.array_equal(got.final_state, final), case
                        else:
                            if n:
                                assert rel_err(got.outputs, np.concatenate(outputs)) < 1e-10, case
                            assert rel_err(got.final_state, final) < 1e-10, case
                        assert out is None or got.final_state is out, case
                        assert not any(np.shares_memory(got.final_state, buffer)
                                       for buffer in buffers), case
                        assert np.array_equal(start, kept), case

    # chunkwise's query readout and its adjoint, with blocks of 1 to 3 full
    # K-chunks and N around one and two blocks, ragged tails included,
    # against one block of every full chunk.  The final state never reads a
    # block, so it is equal bit for bit; the rest passes through 2-D GEMMs
    # over all of a block's rows (alpha, beta, the mix and their adjoints),
    # which BLAS may round by the row count, and the SSM gradients are sums
    # over blocks, so those agree to roundoff
    chunk, p, r = 2, 2, 2
    blocks = []

    def recorded_chunk_blocks(*args):
        blocks.append(chunk_blocks(*args))
        return blocks[-1]

    chunk_blocks = ssm_module._chunk_blocks
    monkeypatch.setattr(ssm_module, "_chunk_blocks", recorded_chunk_blocks)
    for n in sorted({1, rows * chunk - 1, rows * chunk, rows * chunk + 1,
                     2 * rows * chunk, 2 * rows * chunk + 1}):
        z = rng.standard_normal((n, w))
        f_q = rng.standard_normal((n, p, r))
        up = rng.standard_normal((n, p, w - r))
        k = min(chunk, n, w)
        runs = []
        for per_block in (n // k, rows):  # one block of every full chunk, then rows
            monkeypatch.setattr(ssm_module, "_BLOCK_BYTES",
                                per_block * 16 * k * (p * (w + 2 * k + 6 * m) + w))
            blocks.clear()
            runs.append([run_scan(ssm, z, "chunkwise", chunk, x0=start, f_q=f_q)
                         for start in (None, x0)])
            runs[-1].append(query_readout_backward(ssm, z, f_q, up, chunk))
            # contiguous blocks of at most per_block chunks, the ragged one alone
            n_blocks = -(-(n // k) // per_block) + (n % k > 0)
            for made in blocks:
                assert len(made) == n_blocks, (n, per_block)
                assert [lo for lo, _, _ in made] == [0] + [hi for _, hi, _ in made[:-1]]
                assert made[-1][1] == n and all(
                    (hi - lo) % ell == 0 and (hi - lo) // ell <= per_block
                    for lo, hi, ell in made), (n, per_block)
        (*one, (one_o, one_g, one_f)), (*got, (got_o, got_g, got_f)) = runs
        for want, res in zip(one, got):
            assert rel_err(res.outputs, want.outputs) < 1e-13, n
            assert np.array_equal(res.final_state, want.final_state), n
        assert rel_err(got_o, one_o) < 1e-13 and rel_err(got_f, one_f) < 1e-13, n
        for field in ("z", "delta", "a_log_neg_re", "a_im", "b", "c_out"):
            assert rel_err(getattr(got_g, field), getattr(one_g, field)) < 1e-12, (n, field)


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_scan_rejects_a_bad_out(backend):
    ssm = small_ssm(m=3)
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
    ssm = dataclasses.replace(small_ssm(m=16, seed=62),
                              b=rng.standard_normal(16) + 1j * rng.standard_normal(16))
    z = rng.standard_normal((70, 32))
    for rows in (z, z[:1], z[:0], z[::3]):
        assert np.array_equal(_drive(ssm, rows), rows[:, :, None] * ssm.b)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        run_scan(small_ssm(), np.zeros((2, 2)), "magic")


def test_scan_validates_input_shape():
    # W comes from z, so z must be 2-D with a channel: W = 0 would make the
    # dual form's chunk length 0; a state must be (W, M) for that W
    ssm = small_ssm()
    for z in (np.zeros(4), np.zeros((4, 0))):
        calls = [lambda b=b: run_scan(ssm, z, b) for b in BACKENDS] + [
            lambda: final_state(ssm, z, 2),
            lambda: backward_checkpointed(ssm, z, np.zeros((4, 4, 0)), 2),
            lambda: query_readout_backward(ssm, z, np.zeros((4, 1, 1)), np.zeros((4, 1, 0)), 2)]
        for call in calls:
            with pytest.raises(ValueError, match=r"z must be \(N, W\) with W >= 1"):
                call()
    z = np.zeros((4, 3))
    for x0 in (np.zeros((2, 4)), np.zeros((4, 3))):  # another W, and (M, W)
        for backend in BACKENDS:
            with pytest.raises(ValueError, match=r"x0 must be \(W, M\) = \(3, 4\)"):
                run_scan(ssm, z, backend, x0=x0)
        with pytest.raises(ValueError, match=r"x0 must be \(W, M\) = \(3, 4\)"):
            final_state(ssm, z, 2, x0=x0)
        with pytest.raises(ValueError, match=r"final_upstream must be \(W, M\) = \(3, 4\)"):
            backward_checkpointed(ssm, z, np.zeros((4, 4, 3)), 2, final_upstream=x0)
        with pytest.raises(ValueError, match=r"final_upstream must be \(W, M\) = \(3, 4\)"):
            query_readout_backward(ssm, z, np.zeros((4, 1, 1)), np.zeros((4, 1, 2)), 2,
                                   final_upstream=x0)


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
    ssm = small_ssm(m=m, seed=31)
    z = make_rng(32).standard_normal((n, w))
    run = traced_peak(lambda: scan_chunkwise(ssm, z, chunk))
    k = min(chunk, n, w)
    assert run.peak <= (1.25 + (2 * m + k) / (k * m)) * run.result.outputs.nbytes


@pytest.mark.parametrize("scan, bound", [(scan_fft, 2.0), (scan_prefix, 1.5)])
def test_fft_and_prefix_memory_bounded_by_outputs(scan, bound):
    # fft convolves one mode at a time: besides the (N, M, W) outputs it
    # holds one mode's (n_fft, W) spectrum and convolution and the (N, M)
    # lag kernel, never an (n_fft, M, W) product or any state.  The prefix
    # scan sweeps one block of about 1 MiB of complex states at a time, in
    # place, never the (N, W, M) states, twice the outputs
    m, w, n = 16, 32, 2048
    ssm = small_ssm(m=m, seed=31)
    z = make_rng(32).standard_normal((n, w))
    run = traced_peak(lambda: scan(ssm, z))
    assert run.peak <= bound * run.result.outputs.nbytes


@pytest.mark.parametrize("w, m, n, bounds_mib", [
    (32, 16, 8192, {"sequential": 8, "parallel_prefix": 8, "fft": 32}),
    (128, 64, 1024, {"sequential": 24, "parallel_prefix": 24, "fft": 16}),  # a 1.3b group
])
def test_query_scans_never_hold_the_state_history(w, m, n, bounds_mib):
    # with query features no backend holds the (N, W, M) states or the
    # (N, M, W) outputs, 64 MiB and 32 MiB at the first shape: sequential
    # and prefix hold one block of states, fft one mode's convolution
    ssm = small_ssm(m=m, seed=70)
    rng = make_rng(71)
    z = rng.standard_normal((n, w))
    f_q = rng.standard_normal((n, 1, w // 2))
    for backend, bound in bounds_mib.items():
        peak = traced_peak(lambda: run_scan(ssm, z, backend, f_q=f_q)).peak
        assert peak < bound * 2 ** 20, backend


@pytest.mark.parametrize("chunk", [1, 2, 16, 2048])
def test_backward_memory_bounded_by_upstream(chunk):
    # the upstream is read in place, never copied: besides a few arrays the
    # size of z, the backward holds one buffer of ceil(N/K) complex (W, M)
    # states, 2/K of the upstream's size, for the entry states and then
    # their adjoints; K = min(chunk, N, W).  The outputs go into ``out``
    ssm = small_ssm(m=16, seed=33)
    rng = make_rng(34)
    z = rng.standard_normal((2048, 32))
    up = rng.standard_normal((2048, 16, 32))
    out = np.empty_like(up)
    peak = traced_peak(lambda: backward_checkpointed(ssm, z, up, chunk, out=out)).peak
    assert peak <= 2 * up.nbytes / min(chunk, 32) + 4 * z.nbytes


@pytest.mark.parametrize("n, w, r, chunk", [
    (2048, 128, 64, 16), (2048, 128, 64, 64), (2048, 128, 64, 2048),
    (2048, 32, 16, 16), (8192, 32, 16, 16),  # a long_small group
])
def test_query_readout_backward_memory_below_scan_outputs(n, w, r, chunk):
    # the readout and its adjoint never form the (N, M, W) scan outputs,
    # and they take the chunks in blocks of about _BLOCK_BYTES: besides
    # the returned arrays and the ceil(N/K) complex (W, M) entry states
    # (and, in the adjoint, their drives, and the entry carry's temporary
    # the size of z) they hold under 2 MiB, however long the input.  At
    # chunk 1 the state buffers are every state, by design, so it is left
    # out
    m, p = 16, 1
    ssm = small_ssm(m=m, seed=49)
    rng = make_rng(50)
    z = rng.standard_normal((n, w))
    f_q = rng.standard_normal((n, p, r))
    up = rng.standard_normal((n, p, w - r))
    states = -(-n // min(chunk, n, w)) * w * m * 16
    forward = traced_peak(lambda: query_readout(ssm, z, f_q, chunk))
    backward = traced_peak(lambda: query_readout_backward(ssm, z, f_q, up, chunk))
    assert backward.peak < n * m * w * 8
    assert forward.peak - states - forward.result.outputs.nbytes < 2 * 2 ** 20
    assert backward.peak - 2 * states - z.nbytes - sum(a.nbytes for a in (
        backward.result[0], backward.result[1].z, backward.result[2])) < 2 * 2 ** 20


def test_outputs_are_real_part_of_readout():
    ssm = small_ssm(seed=16)
    z = make_rng(17).standard_normal((6, 2))
    res = scan_sequential(ssm, z)
    want = np.stack([(ssm.c_out @ state.T).real for state in states_of(ssm, z)])
    assert rel_err(res.outputs, want) < 1e-14


# --- backward pass ---

def test_checkpoint_interval_validated():
    ssm = small_ssm()
    with pytest.raises(ValueError, match="chunk"):
        backward_checkpointed(ssm, np.zeros((4, 2)), np.zeros((4, 4, 2)), 0)


def test_dual_form_chunk_must_be_an_integer():
    # the four dual-form entry points share one check: True would run
    # one-step chunks and 2.5 or "3" fail with a bare TypeError; a numpy
    # integer is a chunk like any other
    ssm = small_ssm(seed=25)
    rng = make_rng(26)
    z = rng.standard_normal((5, 3))
    f_q = rng.standard_normal((5, 1, 2))
    up = rng.standard_normal((5, 4, 3))
    grad_o = rng.standard_normal((5, 1, 1))
    entries = [
        ("run_scan", lambda c: run_scan(ssm, z, "chunkwise", chunk=c).outputs),
        ("query_readout", lambda c: query_readout(ssm, z, f_q, c).outputs),
        ("query_readout_backward", lambda c: query_readout_backward(ssm, z, f_q, grad_o, c)[0]),
        ("backward_checkpointed", lambda c: backward_checkpointed(ssm, z, up, chunk=c)[0]),
    ]
    for name, entry in entries:
        for bad in (True, False, 2.5, 2.0, "3", None, 0, -1):
            with pytest.raises(ValueError, match=r"chunk must be an integer >= 1"):
                entry(bad)
        assert np.array_equal(entry(np.int64(2)), entry(2)), name


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_checks_the_chunk(backend):
    # only chunkwise reads it, but sequential, fft and parallel_prefix took
    # 0, -5, True and 2.5 where chunkwise refused them
    ssm = small_ssm(seed=27)
    rng = make_rng(28)
    z = rng.standard_normal((5, 3))
    f_q = rng.standard_normal((5, 1, 2))
    for bad in (0, -5, True, 2.5):
        for query in (None, f_q):
            with pytest.raises(ValueError, match=r"chunk must be an integer >= 1"):
                run_scan(ssm, z, backend, chunk=bad, f_q=query)
    assert np.array_equal(run_scan(ssm, z, backend, chunk=np.int64(2)).outputs,
                          run_scan(ssm, z, backend, chunk=2).outputs)


def test_backward_zero_upstream_zero_grads():
    ssm = small_ssm(seed=23)
    z = make_rng(24).standard_normal((8, 2))
    _, g = backward_checkpointed(ssm, z, np.zeros((8, 4, 2)), chunk=3)
    for field in (g.z, g.delta, g.a_log_neg_re, g.a_im, g.b, g.c_out):
        assert np.all(field == 0.0)


@pytest.mark.parametrize("mag", [0.9, 0.3, 0.05, 0.01])
def test_backward_interval_free(mag):
    # every pole at |lam| = mag: small poles are where a segment that
    # rebuilt its states by dividing by lam would amplify roundoff by mag^-K;
    # 7 and 63 leave a ragged last chunk, 64 and 69 make one chunk of N = 64
    base = small_ssm(m=4, seed=25)
    ssm = dataclasses.replace(base, a=np.log(mag) / 0.1 + 1j * base.a.imag,
                              delta=np.full(4, 0.1))
    assert np.allclose(np.abs(ssm.lam), mag)
    rng = make_rng(26)
    z = rng.standard_normal((64, 64))
    up = rng.standard_normal((64, 4, 64))
    _, whole = backward_checkpointed(ssm, z, up, chunk=1)
    for chunk in (7, 16, 63, 64, 69):
        _, seg = backward_checkpointed(ssm, z, up, chunk=chunk)
        for field in ("z", "delta", "a_log_neg_re", "a_im", "b", "c_out"):
            assert rel_err(getattr(seg, field), getattr(whole, field)) < 1e-9, (chunk, field)


def _entry_state_cases():
    """(ssm, z, x0, final upstream, chunk) for the dual-form adjoints from
    an entry state: several chunks with a ragged last one, one chunk of
    N < chunk, and one step; each at the standard init and with every pole
    at |lam| = 0.3 and 0.01."""
    rng = make_rng(64)
    for n, chunk in ((7, 3), (4, 9), (1, 2)):
        base = random_ssm(3, rng)
        for mag in (None, 0.3, 0.01):
            ssm = base if mag is None else dataclasses.replace(
                base, a=np.log(mag) / 0.1 + 1j * base.a.imag, delta=np.full(3, 0.1))
            yield (ssm, rng.standard_normal((n, 5)),
                   rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)),
                   rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)), chunk)


@pytest.mark.parametrize("adjoint", ["query_readout_backward", "backward_checkpointed"])
def test_adjoints_from_an_entry_state_match_finite_differences(adjoint):
    # loss = sum(upstream * outputs) + <G, final state> from a nonzero x0:
    # the gradient of x0 and, through the final state's closed-form step,
    # of z, b, C and the poles, against central differences on the real
    # and imaginary parts; each term on its own (x0 alone, G alone) too,
    # where x0 = None is the zero state and its gradient is taken there
    rng = make_rng(65)
    for ssm, z, x0, g_final, chunk in _entry_state_cases():
        (n, w), m = z.shape, ssm.state_dim
        if adjoint == "query_readout_backward":
            f_q = rng.standard_normal((n, 2, 2))
            up = rng.standard_normal((n, 2, w - 2))

            def scan(s, start):
                return query_readout(s, z, f_q, chunk, start)

            def grads(start, final):
                return query_readout_backward(ssm, z, f_q, up, chunk, x0=start,
                                              final_upstream=final)[1]
        else:
            up = rng.standard_normal((n, m, w))

            def scan(s, start):
                return scan_chunkwise(s, z, chunk, start)

            def grads(start, final):
                return backward_checkpointed(ssm, z, up, chunk, x0=start,
                                             final_upstream=final)[1]
        for start, final in ((x0, g_final), (x0, None), (None, g_final)):
            box = {"ssm": ssm, "x0": np.zeros((w, m), dtype=complex) if start is None
                   else start.copy()}
            weight = np.zeros((w, m), dtype=complex) if final is None else final

            def loss():
                res = scan(box["ssm"], box["x0"])
                return float(np.sum(up * res.outputs)
                             + np.sum(weight.view(float) * res.final_state.view(float)))

            got = grads(start, final)
            case = (n, chunk, np.abs(ssm.lam).max(), start is None, final is None)
            fd = central_diff_complex(loss, lambda: box["x0"], lambda v: box.update(x0=v))
            assert rel_err(got.x0, fd) < 1e-6, case
            assert rel_err(got.z, central_diff(loss, z)) < 1e-6, case
            for field in ("b", "c_out"):
                fd = central_diff_complex(
                    loss, lambda: getattr(box["ssm"], field),
                    lambda v: box.update(ssm=dataclasses.replace(ssm, **{field: v})))
                assert rel_err(getattr(got, field), fd) < 1e-6, (case, field)
            p, q = np.log(-ssm.a.real), ssm.a.imag.copy()

            def loss_a():
                box["ssm"] = dataclasses.replace(ssm, a=-np.exp(p) + 1j * q)
                return loss()
            assert rel_err(got.a_log_neg_re, central_diff(loss_a, p)) < 1e-5, case
            assert rel_err(got.a_im, central_diff(loss_a, q)) < 1e-5, case
            box["ssm"] = ssm


def test_final_state_is_the_chunkwise_scans():
    # the closed-form steps alone give scan_chunkwise's final state bit
    # for bit, from zero and from x0, into ``out`` when given
    ssm = small_ssm(m=4, seed=66)
    rng = make_rng(67)
    x0 = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    for n in (0, 1, 5, 16, 17):
        z = rng.standard_normal((n, 6))
        for start in (None, x0):
            for chunk in (1, 3, 16):
                want = scan_chunkwise(ssm, z, chunk, start).final_state
                assert np.array_equal(final_state(ssm, z, chunk, start), want)
                out = np.empty((6, 4), dtype=complex)
                assert final_state(ssm, z, chunk, start, out=out) is out
                assert np.array_equal(out, want)


def test_entry_carry_blocks_are_bit_exact(monkeypatch):
    # the entry carry adds each chunk's product into grad z as its own
    # GEMM, so blocks of one chunk give the same bits as the default
    ssm = small_ssm(m=4, seed=68)
    rng = make_rng(69)
    z = rng.standard_normal((41, 6))
    up = rng.standard_normal((41, 4, 6))
    x0 = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    want = backward_checkpointed(ssm, z, up, 3, x0=x0, final_upstream=x0)[1]
    monkeypatch.setattr(ssm_module, "_BLOCK_BYTES", 1)
    got = backward_checkpointed(ssm, z, up, 3, x0=x0, final_upstream=x0)[1]
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


@pytest.mark.parametrize("adjoint", ["query_readout_backward", "backward_checkpointed"])
def test_a_missing_state_is_the_zero_state(adjoint):
    # None, for x0 or final_upstream, is the zero state itself: outputs,
    # every SsmGrads field (x0's gradient included) and grad f_q are those
    # of explicit zeros, bit for bit; over a ragged last chunk, full chunks,
    # a single chunk, K = 1 and N = 1
    ssm = small_ssm(m=3, seed=76)
    rng = make_rng(77)
    w = 5
    zero = np.zeros((w, 3), dtype=complex)
    for n, chunk in ((7, 3), (6, 3), (4, 4), (5, 1), (1, 3)):
        z = rng.standard_normal((n, w))
        x0, g_final = rng.standard_normal((2, w, 3)) + 1j * rng.standard_normal((2, w, 3))
        if adjoint == "query_readout_backward":
            f_q = rng.standard_normal((n, 2, 2))
            up = rng.standard_normal((n, 2, w - 2))

            def run(start, final):
                return query_readout_backward(ssm, z, f_q, up, chunk, x0=start,
                                              final_upstream=final)
        else:
            up = rng.standard_normal((n, 3, w))

            def run(start, final):
                return backward_checkpointed(ssm, z, up, chunk, x0=start,
                                             final_upstream=final)
        for start, final in ((None, g_final), (x0, None), (None, None)):
            got = run(start, final)
            want = run(zero if start is None else start, zero if final is None else final)
            case = (n, chunk, start is None, final is None)
            assert np.array_equal(got[0], want[0]), case
            for field in dataclasses.fields(want[1]):
                assert np.array_equal(getattr(got[1], field.name),
                                      getattr(want[1], field.name)), (case, field.name)
            for got_f, want_f in zip(got[2:], want[2:]):
                assert np.array_equal(got_f, want_f), case


@pytest.mark.parametrize("adjoint", ["query_readout_backward", "backward_checkpointed"])
def test_x0_gradient_of_an_empty_sequence_is_the_final_upstream(adjoint):
    # with N = 0 the final state is x0 itself, so x0's gradient is the
    # final state's, and zero with no final upstream
    ssm = small_ssm(m=4, seed=78)
    z = np.zeros((0, 3))
    x0 = np.ones((3, 4), dtype=complex)
    g_final = make_rng(79).standard_normal((3, 4)) + 1j
    for final, want in ((None, np.zeros((3, 4))), (g_final, g_final)):
        if adjoint == "query_readout_backward":
            grads = query_readout_backward(ssm, z, np.zeros((0, 1, 1)), np.zeros((0, 1, 2)), 2,
                                           x0=x0, final_upstream=final)[1]
        else:
            grads = backward_checkpointed(ssm, z, np.zeros((0, 4, 3)), 2, x0=x0,
                                          final_upstream=final)[1]
        assert np.array_equal(grads.x0, want)


def test_final_upstream_is_checked():
    ssm = small_ssm(m=3)
    z, up = np.zeros((4, 5)), np.zeros((4, 3, 5))
    with pytest.raises(ValueError, match=r"final_upstream must be \(W, M\) = \(5, 3\)"):
        backward_checkpointed(ssm, z, up, 2, final_upstream=np.zeros((3, 5)))
    with pytest.raises(ValueError, match="final_upstream"):
        query_readout_backward(ssm, z, np.zeros((4, 1, 2)), np.zeros((4, 1, 3)), 2,
                               final_upstream=np.zeros(3))


def test_backward_shape_mismatch_rejected():
    ssm = small_ssm()
    with pytest.raises(ValueError, match="upstream"):
        backward_checkpointed(ssm, np.zeros((4, 2)), np.zeros((4, 3, 2)), 2)


@pytest.mark.parametrize("n", [1, 2, 17, 64, 70, 96])
@pytest.mark.parametrize("chunk", [1, 3, 16, 64])
def test_backward_returns_the_chunkwise_outputs(n, chunk):
    # the adjoint forms the scan outputs from the entry states and operator
    # it builds anyway: bit for bit scan_chunkwise's, into ``out`` when
    # given, with the same gradients either way
    ssm = small_ssm(m=5, seed=62)
    rng = make_rng(63)
    z = rng.standard_normal((n, 12))
    up = rng.standard_normal((n, 5, 12))
    want = scan_chunkwise(ssm, z, chunk).outputs
    outputs, grads = backward_checkpointed(ssm, z, up, chunk)
    assert np.array_equal(outputs, want)
    out = np.full((n, 5, 12), np.nan)
    got, got_grads = backward_checkpointed(ssm, z, up, chunk, out=out)
    assert got is out
    assert np.array_equal(got, want)
    for field in dataclasses.fields(grads):
        assert np.array_equal(getattr(got_grads, field.name), getattr(grads, field.name))


def test_backward_rejects_a_bad_out():
    ssm = small_ssm(m=3)
    z, up = np.zeros((4, 5)), np.zeros((4, 3, 5))
    frozen = np.zeros((4, 3, 5))
    frozen.flags.writeable = False
    for bad in (np.zeros((4, 5, 3)), np.zeros((4, 3, 5), dtype=np.float32),
                np.zeros((4, 3, 5), dtype=complex), np.zeros((4, 3, 10))[..., ::2],
                frozen, np.zeros((4, 3, 5)).tolist()):
        with pytest.raises(ValueError, match=r"out must be a writeable C-contiguous float "
                                             r"\(4, 3, 5\) array"):
            backward_checkpointed(ssm, z, up, 2, out=bad)


def finite_difference_case(ssm, w, n, seed, chunk):
    rng = make_rng(seed)
    z = rng.standard_normal((n, w))
    up = rng.standard_normal((n, ssm.state_dim, w))

    box = {"ssm": ssm}

    def loss():
        return float(np.sum(up * scan_sequential(box["ssm"], z).outputs))

    _, got = backward_checkpointed(ssm, z, up, chunk=chunk)

    assert rel_err(got.z, central_diff(loss, z)) < 1e-6

    p = np.log(-ssm.a.real)
    q = ssm.a.imag.copy()

    def set_a():
        box["ssm"] = dataclasses.replace(ssm, a=-np.exp(p) + 1j * q)

    set_a()
    fd_p = central_diff(lambda: (set_a(), loss())[1], p)
    fd_q = central_diff(lambda: (set_a(), loss())[1], q)
    assert rel_err(got.a_log_neg_re, fd_p) < 1e-5
    assert rel_err(got.a_im, fd_q) < 1e-5
    box["ssm"] = ssm

    delta = ssm.delta.copy()

    def set_delta():
        box["ssm"] = dataclasses.replace(ssm, delta=delta)

    fd_delta = central_diff(lambda: (set_delta(), loss())[1], delta, h=1e-7)
    assert rel_err(got.delta, fd_delta) < 1e-5
    box["ssm"] = ssm

    fd_b = central_diff_complex(
        loss, lambda: box["ssm"].b, lambda v: box.update(ssm=dataclasses.replace(ssm, b=v))
    )
    assert rel_err(got.b, fd_b) < 1e-6
    box["ssm"] = ssm

    fd_c = central_diff_complex(
        loss, lambda: box["ssm"].c_out, lambda v: box.update(ssm=dataclasses.replace(ssm, c_out=v))
    )
    assert rel_err(got.c_out, fd_c) < 1e-6


def test_backward_matches_finite_differences():
    finite_difference_case(small_ssm(m=4, seed=27), w=2, n=8, seed=28, chunk=3)


def test_backward_matches_finite_differences_tiny_poles():
    base = small_ssm(m=3, seed=29)
    fast = dataclasses.replace(base, a=base.a.imag * 1j - 100.0, delta=np.full(3, 0.1))
    assert np.abs(fast.lam).min() < 1e-3
    finite_difference_case(fast, w=2, n=6, seed=30, chunk=2)


@pytest.mark.parametrize("w, m, n", [(1, 1, 5), (4, 2, 1), (32, 16, 128), (128, 64, 9),
                                     (9, 5, 33)])
def test_recurrences_bit_identical_to_the_reference(w, m, n):
    # lam is broadcast to the (W, M) state once instead of at every step,
    # which changes no product or sum
    rng = make_rng(120)
    lam = random_ssm(m, rng).lam
    drive = rng.standard_normal((n, w, m)) + 1j * rng.standard_normal((n, w, m))
    x0 = rng.standard_normal((w, m)) + 1j * rng.standard_normal((w, m))
    # into a separate array, in place, and backwards in time through reversed views
    got, want = np.empty_like(drive), np.empty_like(drive)
    ssm_module._recur(lam, drive, x0, got)
    recur_reference(lam, drive, x0, want)
    assert np.array_equal(got, want)
    got, want = drive.copy(), drive.copy()
    ssm_module._recur(lam, got, x0, got)
    recur_reference(lam, want, x0, want)
    assert np.array_equal(got, want)
    got, want = drive.copy(), drive.copy()
    ssm_module._recur(lam ** 3, got[::-1], x0, got[::-1])
    recur_reference(lam ** 3, want[::-1], x0, want[::-1])
    assert np.array_equal(got, want)
    for length in {1, 2, 3, n}:
        got, want = drive[:length].copy(), drive[:length].copy()
        ssm_module._prefix_sweep(lam, got)
        prefix_sweep_reference(lam, want)
        assert np.array_equal(got, want), length


def test_recur_through_a_reversed_view_writes_its_rows_in_place():
    # _adjoint_tail carries its adjoints backwards as _recur(lam,
    # entries[:0:-1], zero, entries[:0:-1]): the flat views it steps must be
    # those rows themselves, and an out that cannot be viewed flat is refused
    rng = make_rng(121)
    lam = random_ssm(16, rng).lam
    entries = rng.standard_normal((5, 32, 16)) + 1j * rng.standard_normal((5, 32, 16))
    zero = np.zeros((32, 16), dtype=complex)
    got, want = entries.copy(), entries.copy()
    ssm_module._recur(lam, got[:0:-1], zero, got[:0:-1])
    recur_reference(lam, want[:0:-1], zero, want[:0:-1])
    assert np.array_equal(got, want)
    assert np.array_equal(got[0], entries[0]) and not np.array_equal(got[1:], entries[1:])
    out = np.empty((4, 16, 32), dtype=complex).transpose(0, 2, 1)
    with pytest.raises(AssertionError, match="view"):
        ssm_module._recur(lam, entries[1:], zero, out)
