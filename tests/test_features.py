import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from interdomain.config import make_rng
from interdomain.features import (
    CONV_TAPS,
    FeatureMap,
    L2_EPS,
    NormBias,
    ROPE_BASE,
    _l2_normalize,
    apply_feature_map,
    feature_map_backward,
    rff_features,
    rmsnorm_bias,
    rmsnorm_bias_backward,
    rope_apply,
    rope_rotations,
    short_conv_backward,
    short_conv_with_tail,
    sigmoid,
    silu,
)

from helpers import (
    central_diff,
    conv_backward_reference,
    l2_normalize_reference,
    rel_err,
    rmsnorm_bias_backward_reference,
    rmsnorm_bias_reference,
    rope_apply_reference,
    short_conv_with_tail_reference,
    sigmoid_reference,
    silu_deriv_reference,
    silu_l2_backward_reference,
    silu_reference,
    traced_peak,
)


def impulse_kernel(channels, lag=0):
    k = np.zeros((CONV_TAPS, channels))
    k[lag] = 1.0
    return k


# --- stable scalars ---

def test_sigmoid_matches_definition_and_stays_finite():
    x = np.linspace(-30, 30, 101)
    assert rel_err(sigmoid(x), 1.0 / (1.0 + np.exp(-x))) < 1e-15
    big = np.array([-1e5, 1e5])
    out = sigmoid(big)
    assert np.all(np.isfinite(out)) and out[0] == 0.0 and out[1] == 1.0
    assert np.all(np.isfinite(silu(big)))


def test_silu_is_x_times_sigmoid():
    x = make_rng(0).standard_normal(50)
    assert rel_err(silu(x), x * sigmoid(x)) < 1e-15


# --- random Fourier features ---

def test_rff_self_inner_product_is_one():
    rng = make_rng(1)
    omega = rng.standard_normal((7, 3))
    for _ in range(5):
        x = rng.standard_normal(3)
        f = rff_features(x, omega)
        assert f.shape == (14,)
        assert abs(f @ f - 1.0) < 1e-12


def test_rff_half_turn_gives_minus_one():
    omega = np.array([[1.0]])
    f0 = rff_features(np.array([0.0]), omega)
    fpi = rff_features(np.array([np.pi]), omega)
    assert abs(f0 @ fpi - (-1.0)) < 1e-12


def test_rff_estimator_symmetric():
    rng = make_rng(2)
    omega = rng.standard_normal((11, 4))
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    a = rff_features(x, omega) @ rff_features(y, omega)
    b = rff_features(y, omega) @ rff_features(x, omega)
    assert a == b


def test_rff_monte_carlo_hits_gaussian_kernel():
    rng = make_rng(3)
    omega = rng.standard_normal((100_000, 1))
    est = rff_features(np.array([0.0]), omega) @ rff_features(np.array([1.0]), omega)
    assert abs(est - np.exp(-0.5)) < 0.01


def test_rff_error_shrinks_with_more_frequencies():
    rng = make_rng(4)
    d = 3
    pairs = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(8)]

    def worst(s):
        omega = make_rng(99).standard_normal((s, d))
        errs = []
        for x, y in pairs:
            want = np.exp(-0.5 * np.sum((x - y) ** 2))
            errs.append(abs(rff_features(x, omega) @ rff_features(y, omega) - want))
        return max(errs)

    assert worst(10_000) < worst(100)


# --- l2 guard ---

def l2_normalized(v):
    """``_l2_normalize`` of a float copy of ``v``: the stage normalizes in place."""
    return _l2_normalize(np.array(v, dtype=float))


def test_l2_normalize_unit_norm_above_floor():
    rng = make_rng(5)
    v = rng.standard_normal((20, 6))
    out = l2_normalized(v)
    assert np.allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-12)


def test_l2_normalize_zero_maps_to_zero():
    assert np.all(l2_normalized(np.zeros(4)) == 0.0)


def test_l2_normalize_below_floor_scales_by_inverse_eps():
    v = np.array([1e-9, 0.0])
    out = l2_normalized(v)
    assert np.allclose(out, v / L2_EPS)
    assert np.linalg.norm(out) < 1.0


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, (5,), elements=st.floats(-50, 50)))
def test_silu_l2_norm_bounded_and_tight(v):
    y = silu(v)
    out = l2_normalized(y)
    norm = np.linalg.norm(out)
    assert norm <= 1.0 + 1e-12
    if np.linalg.norm(y) > 1e-3:
        assert abs(norm - 1.0) < 1e-9


# --- short conv ---

def conv(x, kernel):
    """The conv of a whole stream, from a zero tail."""
    return short_conv_with_tail(x, kernel, None)[0]


def test_short_conv_impulse_is_identity():
    x = make_rng(6).standard_normal((9, 3))
    assert np.array_equal(conv(x, impulse_kernel(3)), x)


def test_short_conv_lag_one_shifts():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    got = conv(x, impulse_kernel(1, lag=1))
    assert np.array_equal(got, np.array([[0.0], [1.0], [2.0], [3.0]]))


def test_short_conv_zero_kernel():
    x = make_rng(7).standard_normal((5, 2))
    assert np.all(conv(x, np.zeros((CONV_TAPS, 2))) == 0.0)


def test_short_conv_matches_brute_force():
    rng = make_rng(8)
    x = rng.standard_normal((12, 3))
    kernel = rng.standard_normal((CONV_TAPS, 3))
    want = np.zeros_like(x)
    for t in range(12):
        for c in range(3):
            for tau in range(CONV_TAPS):
                if t - tau >= 0:
                    want[t, c] += kernel[tau, c] * x[t - tau, c]
    assert rel_err(conv(x, kernel), want) < 1e-14


def test_short_conv_wrong_kernel_shape_rejected():
    with pytest.raises(ValueError, match="kernel"):
        conv(np.zeros((4, 2)), np.zeros((3, 2)))


def test_short_conv_wrong_tail_shape_rejected():
    # a (2, C) tail would shift the first rows onto the wrong inputs, and a
    # 1-token block would hand back a (2, C) tail
    x, ones = np.arange(12.0).reshape(6, 2), np.ones((CONV_TAPS, 2))
    assert short_conv_with_tail(x, ones, np.ones((CONV_TAPS - 1, 2)))[0][0, 0] == 3.0
    for tail in (np.ones((CONV_TAPS - 2, 2)), np.ones((CONV_TAPS - 1, 3))):
        for block in (x, x[:1]):
            with pytest.raises(ValueError, match="tail"):
                short_conv_with_tail(block, ones, tail)


def test_short_conv_causal_under_suffix_edits():
    rng = make_rng(9)
    x = rng.standard_normal((10, 2))
    kernel = rng.standard_normal((CONV_TAPS, 2))
    edited = x.copy()
    edited[6:] += rng.standard_normal((4, 2))
    assert np.array_equal(conv(x, kernel)[:6], conv(edited, kernel)[:6])


def test_short_conv_tail_continuation_matches_one_shot():
    rng = make_rng(10)
    x = rng.standard_normal((13, 2))
    kernel = rng.standard_normal((CONV_TAPS, 2))
    want = short_conv_with_tail_reference(x, kernel, None)[0]
    tail = None
    outs = []
    for start in (0, 4, 5, 11):
        end = {0: 4, 4: 5, 5: 11, 11: 13}[start]
        block, tail = short_conv_with_tail(x[start:end], kernel, tail)
        outs.append(block)
    assert np.array_equal(np.concatenate(outs), want)


def test_short_conv_decode_blocks_bit_identical_and_leave_their_inputs():
    # decode convs one row at a time, and a prefill may end on an empty
    # block: both give the reference's rows and tail, in fresh arrays
    rng = make_rng(11)
    x = rng.standard_normal((37, 64))
    x[::5] *= 1e300
    kernel = rng.standard_normal((CONV_TAPS, 64))
    x.flags.writeable = False  # neither input may be written
    want, want_tail = short_conv_with_tail_reference(x, kernel, None)
    tail, outs = np.zeros((CONV_TAPS - 1, 64)), []
    for t in range(37):
        tail.flags.writeable = False
        block, new_tail = short_conv_with_tail(x[t:t + 1], kernel, tail)
        for arr in (block, new_tail):
            assert not np.shares_memory(arr, x) and not np.shares_memory(arr, tail)
        outs.append(block)
        tail = new_tail
    assert np.array_equal(np.concatenate(outs), want)
    assert np.array_equal(tail, want_tail)
    block, new_tail = short_conv_with_tail(x[:0], kernel, tail)
    assert block.shape == (0, 64) and np.array_equal(new_tail, want_tail)
    assert not np.shares_memory(new_tail, tail)


# --- silu_l2 pipeline ---

def test_silu_l2_unit_impulse_two_channel_value():
    x = np.ones((1, 2))
    got = apply_feature_map(FeatureMap("silu_l2"), x)
    want = np.full(2, 1.0 / np.sqrt(2.0))
    assert rel_err(got, want) < 1e-12
    assert abs(got[0, 0] - 0.7071) < 1e-4


def test_silu_l2_zero_input_zero_output():
    assert np.all(apply_feature_map(FeatureMap("silu_l2"), np.zeros((6, 3))) == 0.0)


# --- rotary embedding ---

def test_rope_position_zero_is_identity():
    x = make_rng(12).standard_normal(8)
    assert np.array_equal(rope_apply(x, rope_rotations(0, 8)), x)


def test_rope_angles_match_closed_form():
    x = np.zeros(4)
    x[0] = 1.0
    x[2] = 1.0
    got = rope_apply(x, rope_rotations(3, 4))
    a0, a1 = 3.0, 3.0 * ROPE_BASE ** (-2.0 / 4.0)
    want = np.array([np.cos(a0), np.sin(a0), np.cos(a1), np.sin(a1)])
    assert rel_err(got, want) < 1e-14


def test_rope_preserves_norms():
    rng = make_rng(13)
    for i in (1, 17, 4096):
        x = rng.standard_normal((5, 6))
        got = rope_apply(x, rope_rotations(np.full(5, i), 6))
        assert np.allclose(np.linalg.norm(got, axis=-1),
                           np.linalg.norm(x, axis=-1), atol=1e-12)


def test_rope_relative_shift_invariance():
    rng = make_rng(14)
    for _ in range(20):
        q, k = rng.standard_normal(6), rng.standard_normal(6)
        i, j, s = rng.integers(0, 500, size=3)
        a = rope_apply(q, rope_rotations(int(i), 6)) @ rope_apply(k, rope_rotations(int(j), 6))
        b = rope_apply(q, rope_rotations(int(i + s), 6)) @ \
            rope_apply(k, rope_rotations(int(j + s), 6))
        assert abs(a - b) < 1e-10


def test_rope_inverse_undoes():
    x = make_rng(15).standard_normal(10)
    rot = rope_rotations(41, 10)
    assert rel_err(rope_apply(rope_apply(x, rot), rot.conj()), x) < 1e-13


def test_rope_odd_width_rejected():
    with pytest.raises(ValueError, match="even"):
        rope_rotations(1, 5)


def test_rope_vector_positions_match_scalar_calls():
    rng = make_rng(16)
    x = rng.standard_normal((4, 3, 6))
    pos = np.array([0, 7, 19, 2])
    got = rope_apply(x, rope_rotations(pos, 6))
    for n in range(4):
        assert np.array_equal(got[n], rope_apply(x[n], rope_rotations(int(pos[n]), 6)))


def test_rope_table_that_does_not_fit_the_rows_rejected():
    # a table of another width, or of one position for a block of three,
    # would broadcast into a wrong rotation instead of failing
    x = np.zeros((3, 2, 6))
    for rot in (rope_rotations(np.arange(3), 4), rope_rotations(np.arange(1), 6),
                rope_rotations(np.arange(2), 6)):
        with pytest.raises(ValueError, match="rotations"):
            rope_apply(x, rot)


# --- rmsnorm with bias ---

def test_rmsnorm_constant_vector_maps_to_ones():
    nb = NormBias(gain=np.ones(5), bias=np.zeros(5))
    out = rmsnorm_bias(np.full(5, 3.7), nb)
    assert rel_err(out, np.ones(5)) < 1e-6


def test_rmsnorm_output_rms_is_one():
    rng = make_rng(17)
    nb = NormBias(gain=np.ones(6), bias=np.zeros(6))
    for _ in range(5):
        x = rng.standard_normal(6)
        out = rmsnorm_bias(x, nb)
        assert abs(np.sqrt(np.mean(out**2)) - 1.0) < 1e-5


def test_rmsnorm_bias_shifts_exactly():
    rng = make_rng(18)
    x = rng.standard_normal((3, 4))
    gain = rng.standard_normal(4)
    bias = rng.standard_normal(4)
    with_bias = rmsnorm_bias(x, NormBias(gain=gain, bias=bias))
    without = rmsnorm_bias(x, NormBias(gain=gain, bias=np.zeros(4)))
    assert np.allclose(with_bias - without, bias, atol=1e-14)


def test_rmsnorm_writes_into_a_strided_out():
    # the layer's k and v norms write into their columns of z: the same
    # bits as a fresh output, a row that overflows included
    rng = make_rng(21)
    x = rng.standard_normal((3, 2, 4))
    x[1, 0] *= 1e160
    nb = NormBias(gain=1 + 0.2 * rng.standard_normal(4), bias=0.3 * rng.standard_normal(4))
    z = np.full((3, 2, 9), np.nan)
    got = rmsnorm_bias(x, nb, out=z[..., 5:])
    assert np.shares_memory(got, z)
    assert np.array_equal(z[..., 5:], rmsnorm_bias(x, nb))
    assert np.isnan(z[..., :5]).all()


def test_rmsnorm_backward_matches_finite_differences():
    rng = make_rng(19)
    x = rng.standard_normal((4, 5))
    gain = 1 + 0.2 * rng.standard_normal(5)
    bias = 0.3 * rng.standard_normal(5)
    g = rng.standard_normal((4, 5))

    def loss():
        return float(np.sum(rmsnorm_bias(x, NormBias(gain=gain, bias=bias)) * g))

    grad_x, grad_gain, grad_bias = rmsnorm_bias_backward(x, NormBias(gain=gain, bias=bias), g)
    assert rel_err(grad_x, central_diff(loss, x)) < 1e-8
    assert rel_err(grad_gain, central_diff(loss, gain)) < 1e-8
    assert rel_err(grad_bias, central_diff(loss, bias)) < 1e-8


@pytest.mark.parametrize("scale", [1e103, 1e160, 1e300])
def test_norms_rescale_only_the_rows_that_overflow(scale):
    # row 1 is scaled up until its squares (or the RMS backward's width *
    # rms^3) overflow: it matches the same row at 1e100, where nothing
    # overflows, with its gradients times the scale, and rows 0 and 2 are
    # the unscaled formulas' bit for bit
    rng = make_rng(20)
    x = rng.standard_normal((3, 5))
    g = rng.standard_normal((3, 5))
    nb = NormBias(gain=1 + 0.2 * rng.standard_normal(5), bias=0.3 * rng.standard_normal(5))
    fmap = FeatureMap("silu_l2")

    def norms(v, s):
        v = v.copy()
        v[1] *= s
        return [rmsnorm_bias(v, nb), rmsnorm_bias_backward(v, nb, g)[0] * [[1], [s], [1]],
                l2_normalized(v), apply_feature_map(fmap, v),
                feature_map_backward(fmap, v, g) * [[1], [s], [1]]]

    for got, want, plain in zip(norms(x, scale), norms(x, 1e100), norms(x, 1.0)):
        assert rel_err(got[1], want[1]) < 1e-12
        assert np.array_equal(got[[0, 2]], plain[[0, 2]])


# --- feature map dispatch ---

def test_unknown_feature_kind_rejected_at_construction():
    # maps loaded from archives are built this way too, so apply_feature_map
    # and its backward never see a kind outside FEATURE_KINDS
    with pytest.raises(ValueError, match=r"'rfff'.*\('rff', 'silu_l2', 'identity'\)"):
        FeatureMap(kind="rfff")


def test_rff_map_without_frequencies_rejected_at_construction():
    # it failed only when applied, with _project's message about a stacked
    # omega's block shape
    with pytest.raises(ValueError, match="an rff feature map needs its frequencies omega"):
        FeatureMap("rff")


def test_complex_frequencies_rejected_at_construction():
    # cos and sin wrote only their real parts: the oracle's feature
    # attention ran on the real part with only a ComplexWarning
    omega = make_rng(23).standard_normal((3, 4)) + 0.5j
    with pytest.raises(ValueError, match="omega must be real, got complex128"):
        FeatureMap("rff", omega=omega)
    with pytest.raises(ValueError, match="omega must be real"):
        dataclasses.replace(FeatureMap("rff", omega=omega.real), omega=omega)


@pytest.mark.parametrize("shape", [(3,), (1, 2, 3, 4)])
def test_frequencies_of_another_rank_rejected_at_construction(shape):
    # a vector failed only when applied, with _project's message about a
    # stacked omega's block shape
    omega = make_rng(25).standard_normal(shape)
    with pytest.raises(ValueError, match=r"omega must be \(S, d\) or \(G, S, d\), got shape"):
        FeatureMap("rff", omega=omega)
    with pytest.raises(ValueError, match=r"omega must be \(S, d\) or \(G, S, d\)"):
        dataclasses.replace(FeatureMap("rff", omega=np.ones((2, 3))), omega=omega)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_frequencies_rejected_at_construction(bad):
    # a NaN made every feature NaN with no error
    omega = make_rng(26).standard_normal((2, 3, 4))
    omega[1, 2, 3] = bad
    with pytest.raises(ValueError, match="omega must be finite, got NaN or inf"):
        FeatureMap("rff", omega=omega)


@pytest.mark.parametrize("kind", ["silu_l2", "identity"])
def test_frequencies_on_a_map_without_them_rejected_at_construction(kind):
    # the map ignored them, and the parameter archive wrote them back
    omega = make_rng(24).standard_normal((3, 4))
    match = f"a '{kind}' feature map has no frequencies omega"
    with pytest.raises(ValueError, match=match):
        FeatureMap(kind, omega=omega)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(FeatureMap("rff", omega=omega), kind=kind)


def test_identity_map_passes_through():
    x = make_rng(21).standard_normal((4, 3))
    assert np.array_equal(apply_feature_map(FeatureMap("identity"), x), x)


@pytest.mark.parametrize("kind", ["identity", "silu_l2", "rff"])
def test_feature_map_backward_matches_finite_differences(kind):
    rng = make_rng(22)
    fmap = {"identity": FeatureMap("identity"),
            "silu_l2": FeatureMap("silu_l2"),
            "rff": FeatureMap("rff", omega=rng.standard_normal((3, 4)))}[kind]
    v = rng.standard_normal((5, 4))
    g = rng.standard_normal((5, apply_feature_map(fmap, v).shape[-1]))

    def loss():
        return float(np.sum(apply_feature_map(fmap, v) * g))

    grad = feature_map_backward(fmap, v, g)
    assert rel_err(grad, central_diff(loss, v)) < 1e-7


def test_feature_map_backward_below_the_norm_floor():
    fmap = FeatureMap("silu_l2")
    rng = make_rng(23)
    v = rng.standard_normal((3, 4)) * 1e-9   # silu output lands under eps
    g = rng.standard_normal((3, 4))

    def loss():
        return float(np.sum(apply_feature_map(fmap, v) * g))

    grad = feature_map_backward(fmap, v, g)
    assert rel_err(grad, central_diff(loss, v, h=1e-12)) < 1e-3


def test_silu_l2_backward_bit_identical_to_separate_silu_and_derivative():
    # the backward makes one sigmoid for both silu(x) and silu'(x); against
    # the two separate calls it must change no bit, on both branches of the
    # sigmoid and on both sides of the norm floor
    fmap = FeatureMap("silu_l2")
    rng = make_rng(24)
    for scale in (1.0, 30.0, 1e-9):
        x = rng.standard_normal((96, 4, 8)) * scale
        g = rng.standard_normal(x.shape)
        v = silu(x)
        norm = np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]  # the norms' einsum
        guarded = np.maximum(norm, L2_EPS)
        y = v / guarded
        inner = np.sum(y * g, axis=-1, keepdims=True)
        grad_v = np.where(norm > L2_EPS, (g - y * inner) / guarded, g / guarded)
        assert np.array_equal(feature_map_backward(fmap, x, g),
                              grad_v * silu_deriv_reference(x)), scale


# --- pinned to the reference math, and no temporary per elementwise step ---

# the sigmoid's branch point, exp's underflow edge and the float64 limits
_SIGMOID_EDGES = np.array([0.0, -0.0, 745.0, -745.0, 709.8, -709.8, 1e308, -1e308,
                           1e-300, -1e-300, 36.0, -36.0])


def test_sigmoid_family_bit_identical_to_the_reference():
    rng = make_rng(30)
    for scale in (1.0, 30.0, 1e3, 1e6):
        x = np.concatenate([rng.standard_normal((64, 16)).ravel() * scale, _SIGMOID_EDGES])
        assert np.array_equal(sigmoid(x), sigmoid_reference(x)), scale
        assert np.array_equal(silu(x), silu_reference(x)), scale


def _max_row_rel_err(got, want):
    """The largest, over rows of the last axis, of the row's max abs error
    over its max abs reference entry."""
    err = np.max(np.abs(got - want), axis=-1)
    return float(np.max(err / np.maximum(np.max(np.abs(want), axis=-1), 1e-300)))


def _pipeline_block(shape, seed):
    """A unit-scale block with some rows at 1e160 and 1e300, whose squares
    overflow (so ``_scaled_rows``' slow path runs), and an upstream."""
    rng = make_rng(seed)
    x = rng.standard_normal(shape)
    rows = x.reshape(-1, shape[-1])
    rows[1::7] *= 1e160
    rows[3::7] *= 1e300
    return x, rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(1, 4, 16), (256, 4, 16), (96, 32, 64)])
def test_stages_and_adjoints_match_the_reference_per_row(shape):
    # RoPE is one complex multiply and the norms sum their squares with
    # einsum, so each may move by roundoff, never by more than 2e-15 of a row
    x, g = _pipeline_block(shape, 31)
    rng = make_rng(32)
    nb = NormBias(gain=1 + 0.2 * rng.standard_normal(shape[1:]),
                  bias=0.3 * rng.standard_normal(shape[1:]))
    pos = 5 + np.arange(shape[0])
    rot = rope_rotations(pos, shape[-1])
    fmap = FeatureMap("silu_l2")
    grad_x, grad_gain, grad_bias = rmsnorm_bias_backward(x, nb, g)
    want_x, want_gain, want_bias = rmsnorm_bias_backward_reference(x, nb, g)
    pairs = {
        "rope": (rope_apply(x, rot), rope_apply_reference(x, pos)),
        "rope inverse": (rope_apply(g, rot.conj()), rope_apply_reference(g, pos, inverse=True)),
        "l2": (l2_normalized(x), l2_normalize_reference(x)),
        "silu_l2": (apply_feature_map(fmap, x), l2_normalize_reference(silu_reference(x))),
        "silu_l2 adjoint": (feature_map_backward(fmap, x, g), silu_l2_backward_reference(x, g)),
        "rmsnorm": (rmsnorm_bias(x, nb), rmsnorm_bias_reference(x, nb)),
        "rmsnorm adjoint x": (grad_x, want_x),
        "rmsnorm adjoint gain": (grad_gain, want_gain),
        "rmsnorm adjoint bias": (grad_bias, want_bias),
    }
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape, name
        assert np.all(np.isfinite(got)), name
        assert _max_row_rel_err(got, want) <= 2e-15, name


@pytest.mark.parametrize("n, channels", [(1, 64), (2, 64), (3, 64), (256, 64), (96, 2048)])
@pytest.mark.parametrize("with_tail", [False, True])
def test_conv_and_its_adjoint_bit_identical_to_the_reference(n, channels, with_tail):
    # each output row adds its taps in the same order as over [tail; x]
    rng = make_rng(33)
    x, g = rng.standard_normal((2, n, channels))
    x[::5] *= 1e300
    kernel = rng.standard_normal((CONV_TAPS, channels))
    tail = rng.standard_normal((CONV_TAPS - 1, channels)) if with_tail else None
    grad_tail = rng.standard_normal((CONV_TAPS - 1, channels)) if with_tail else None
    for got, want in zip(short_conv_with_tail(x, kernel, tail),
                         short_conv_with_tail_reference(x, kernel, tail)):
        assert np.array_equal(got, want)
    for got, want in zip(short_conv_backward(x, tail, kernel, g, grad_tail),
                         conv_backward_reference(x, tail, kernel, g, grad_tail)):
        assert (got is None and want is None) or np.array_equal(got, want)


def test_rff_and_its_adjoint_bit_identical_to_the_concatenated_halves():
    rng = make_rng(34)
    fmap = FeatureMap("rff", omega=rng.standard_normal((8, 16)))
    x = rng.standard_normal((40, 16))
    g = rng.standard_normal((40, 16))
    proj = x @ fmap.omega.T
    scale = 1.0 / np.sqrt(8)
    assert np.array_equal(rff_features(x, fmap.omega),
                          np.concatenate([np.cos(proj), np.sin(proj)], axis=-1) * scale)
    g_proj = -np.sin(proj) * (g[:, :8] * scale) + np.cos(proj) * (g[:, 8:] * scale)
    assert np.array_equal(feature_map_backward(fmap, x, g), g_proj @ fmap.omega)


def _peak_above_output(fn, size: int) -> float:
    """tracemalloc's peak over ``fn()`` above the array it returns (the
    first, for a tuple), in arrays of ``size`` bytes."""
    fn()  # the frequency table and other caches fill before the measured call
    traced = traced_peak(fn)
    out = traced.result[0] if isinstance(traced.result, tuple) else traced.result
    return (traced.peak - out.nbytes) / size


def test_stages_make_no_temporary_per_elementwise_step():
    # each stage writes into its own output: the bounds sit just above what
    # the in-place code holds (0.50, 1.00, 0.13, 1.07, 2.26 and 1.25 input-
    # sized arrays); a temporary per step held 1.44, 2.00, 1.13, 2.07, 5.21
    # and 4.19.  The conv adjoint, with its one product buffer, holds 1.07
    rng = make_rng(35)
    x, g = rng.standard_normal((2, 2048, 4, 16))
    x_conv = rng.standard_normal((2048, 64))
    kernel = rng.standard_normal((CONV_TAPS, 64))
    tail = rng.standard_normal((CONV_TAPS - 1, 64))
    g_conv, grad_tail = g.reshape(2048, 64), rng.standard_normal((CONV_TAPS - 1, 64))
    nb = NormBias(gain=np.ones((4, 16)), bias=np.zeros((4, 16)))
    fmap = FeatureMap("silu_l2")
    pos = np.arange(2048)
    cases = {
        "rope_apply": (lambda: rope_apply(x, rope_rotations(pos, 16)), x.nbytes, 0.6),
        "apply_feature_map": (lambda: apply_feature_map(fmap, x), x.nbytes, 1.1),
        "rmsnorm_bias": (lambda: rmsnorm_bias(x, nb), x.nbytes, 0.25),
        "short_conv_with_tail": (lambda: short_conv_with_tail(x_conv, kernel, tail),
                                 x_conv.nbytes, 1.2),
        "short_conv_backward": (
            lambda: short_conv_backward(x_conv, tail, kernel, g_conv, grad_tail),
            x_conv.nbytes, 1.1),
        "feature_map_backward": (lambda: feature_map_backward(fmap, x, g), x.nbytes, 2.4),
        "rmsnorm_bias_backward": (lambda: rmsnorm_bias_backward(x, nb, g), x.nbytes, 1.4),
    }
    peaks = {name: _peak_above_output(fn, size) for name, (fn, size, _) in cases.items()}
    assert {name: peak for name, peak in peaks.items() if peak > cases[name][2]} == {}
