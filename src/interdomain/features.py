"""Token-level preprocessing: feature maps, short causal conv, RoPE, RMSNorm.

Feature maps turn query/key vectors into the nonnegative-free feature space
in which attention becomes an inner product: K(q, k) ~= features(q) @
features(k).  Three kinds are supported:

* ``rff``      random Fourier features [cos(w@x), sin(w@x)] / sqrt(S) for a
               shift-invariant kernel; output width 2S.
* ``silu_l2``  SiLU followed by l2 normalization; width preserved.
* ``identity`` pass-through, useful for exact-path checks.

Every stage here runs in every forward, prefill, backward and decode step,
and at a small width these stages, not the SSM, set a token's cost.  So
each stage, and each adjoint, writes into its own output in place, with no
temporary per elementwise step: the sigmoid is exp(min(x, 0)) / (1 +
exp(-|x|)) in two arrays; RoPE is one complex multiply on the pairs'
complex view, by a table of rotations (``rope_rotations``, from a
frequency table cached per width) that the caller makes once and shares;
the conv is one contraction over a read-only window of [tail; x]; the
norms divide, scale and shift their output in place.

The l2 and RMS norms take each row's sum of squares with one ``einsum``,
which gives inf, with no warning, where the sum overflows.  Only then does
``_scaled_rows`` take its slow path, under ``np.errstate``: those rows are
divided by their largest entry and normalized from that copy, so every
finite row gets its exact result, and every other row is computed
unscaled, bit for bit.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# floor used when l2-normalizing feature vectors; its exact value is pinned
# by tests, so the guarded norm stays 1 whenever the raw norm clears it
L2_EPS = 1e-6
# stability constant inside the RMS denominator; also pinned by tests
RMS_EPS = 1e-6
ROPE_BASE = 10000.0

CONV_TAPS = 4

FEATURE_KINDS = ("rff", "silu_l2", "identity")


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) / (1 + exp(-|x|)): no exp sees a positive argument, so
    # it is 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below
    x = np.asarray(x, dtype=float)
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(out, out=out)
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out /= den
    return out


def silu(x: np.ndarray) -> np.ndarray:
    out = sigmoid(x)
    out *= x
    return out


def _silu_slope(x: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """silu'(x) = s (1 + x (1 - s)) for s = sigmoid(x), written into
    ``out``, which must not be ``s``."""
    np.subtract(1.0, s, out=out)
    out *= x
    out += 1.0
    out *= s
    return out


def _project(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """``x @ omega.T`` for one (S, d) matrix; a (G, S, d) stack maps rows
    x[n, g] by omega[g] (a single group is shared by every row)."""
    x = np.asarray(x, dtype=float)
    if omega.ndim == 2:
        return x @ omega.T
    if x.ndim != 3:
        raise ValueError(f"a stacked omega maps an (N, groups or heads, d) block, got {x.shape}")
    return (x.swapaxes(0, 1) @ omega.swapaxes(1, 2)).swapaxes(0, 1)


def rff_features(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Random Fourier features of ``x`` for frequency matrix ``omega`` (S, d).

    The 1/sqrt(S) scaling is folded in, so features(x) @ features(x) == 1
    and features(x) @ features(y) is a Monte-Carlo estimate of the kernel.
    Accepts a single vector or a stack of rows; a stacked (G, S, d)
    ``omega`` takes an (N, G or heads, d) block, as ``_project`` does.
    """
    omega = np.asarray(omega, dtype=float)
    proj = _project(x, omega)
    half = proj.shape[-1]
    out = np.empty(proj.shape[:-1] + (2 * half,))
    np.cos(proj, out=out[..., :half])
    np.sin(proj, out=out[..., half:])
    out *= 1.0 / np.sqrt(omega.shape[-2])
    return out


def _scaled_rows(x: np.ndarray, norm, largest=None):
    """Per-row norms of ``x`` that do not overflow: returns (x, n, top).

    ``norm(x, scale)`` is a norm of each row over the last axis (keepdims)
    of rows already divided by ``scale``.  Where n, or ``largest(n)`` when
    given (the largest value the caller forms from n), overflows on a
    finite row, that row of x is divided by top, its max |entry|, and its n
    is the norm of the divided row.  Every other row has top 1 and keeps
    its unscaled x and n, bit for bit; top is None when no row overflows.
    ``norm`` sums the squares with ``einsum``, which overflows to inf with
    no warning, so only ``largest`` or an overflowed row needs
    ``np.errstate``."""
    n = norm(x, 1.0)
    if largest is None and np.isfinite(n).all():
        return x, n, None
    with np.errstate(over="ignore"):
        over = ~np.isfinite(n if largest is None else largest(n))
        if not over.any():
            return x, n, None
        top = np.where(over, np.max(np.abs(x), axis=-1, keepdims=True), 1.0)
        x = x / top
        return x, np.where(over, norm(x, top), n), top


def _sum_squares(x: np.ndarray) -> np.ndarray:
    """Each row's sum of squares over the last axis (keepdims), in one
    ``einsum``: inf, with no warning, where it overflows."""
    return np.einsum("...i,...i->...", x, x)[..., None]


def _l2(v: np.ndarray, scale) -> np.ndarray:
    """The l2 norm of each row; the same for the rows divided by ``scale``."""
    out = _sum_squares(v)
    return np.sqrt(out, out=out)


def _l2_normalize(v: np.ndarray) -> np.ndarray:
    """Normalize the rows of the float array ``v`` to unit length, in place;
    rows below L2_EPS are scaled by 1/L2_EPS.

    The max() guard keeps the output norm exactly 1 whenever the raw norm
    clears the floor, and maps the zero vector to the zero vector.  A row
    whose squared norm overflows is normalized from its scaled copy
    (``_scaled_rows``), which then holds the result, so any finite row gets
    its unit vector.
    """
    scaled, norm, _ = _scaled_rows(v, _l2)
    return np.divide(scaled, np.maximum(norm, L2_EPS), out=scaled)


def short_conv_with_tail(
    x_seq: np.ndarray, kernel: np.ndarray, tail: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Causal depthwise conv of a block that continues an earlier stream:
    y[t, c] = sum_tau kernel[tau, c] * x[t - tau, c].

    ``kernel`` has one column per channel and exactly CONV_TAPS rows;
    ``tail`` holds the CONV_TAPS - 1 raw inputs preceding the block (None
    is zeros, a stream's start).  Returns the block's output and the new
    tail, so splitting a stream into blocks changes no bit.
    """
    x_seq = np.asarray(x_seq, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    n, width = x_seq.shape
    taps = CONV_TAPS - 1
    for name, arr, rows in (("kernel", kernel, CONV_TAPS), ("tail", tail, taps)):
        if arr is not None and np.shape(arr) != (rows, width):
            raise ValueError(f"conv {name} must have shape ({rows}, {width}), got {np.shape(arr)}")
    ext = np.concatenate([np.zeros((taps, width)) if tail is None else tail, x_seq])
    # window[t, c, j] is ext[taps + t - j, c], x[t - j, c]: the tap axis runs
    # backwards over the rows, so each output row adds its taps in order
    step, col = ext.strides
    window = np.lib.stride_tricks.as_strided(
        ext[taps:], (n, width, CONV_TAPS), (step, col, -step), writeable=False)
    return np.einsum("tcj,jc->tc", window, kernel), ext[n:].copy()


def short_conv_backward(flat, tail, kernel, grad_out, grad_tail):
    """Backward of ``short_conv_with_tail(flat, kernel, tail)``: returns
    (grad flat, grad kernel, grad tail).  ``tail`` None is a stream's start,
    which has no tail gradient (None); ``grad_tail`` is the upstream on the
    new tail, the last CONV_TAPS - 1 rows of [tail; flat], or None.  Only
    the first CONV_TAPS - 1 rows of the output read the tail, so the tail's
    gradient is formed apart, and one product buffer serves every tap."""
    taps, n = CONV_TAPS - 1, flat.shape[0]
    grad_flat = kernel[0] * grad_out
    grad_prev = None if tail is None else np.zeros_like(tail)
    if grad_tail is not None:  # rows of [tail; flat] from n on are the new tail
        grad_flat[max(n - taps, 0):] += grad_tail[max(taps - n, 0):]
        if grad_prev is not None and n < taps:
            grad_prev[n:] += grad_tail[:taps - n]
    prod = np.empty_like(grad_out)
    grad_k = np.empty_like(kernel)
    np.sum(np.multiply(grad_out, flat, out=prod), axis=0, out=grad_k[0])
    for tau in range(1, CONV_TAPS):
        # out[t] reads row t - tau of flat, or of the tail for t < tau
        rows = max(n - tau, 0)
        grad_flat[:rows] += np.multiply(kernel[tau], grad_out[tau:], out=prod[:rows])
        np.sum(np.multiply(grad_out[tau:], flat[:rows], out=prod[:rows]), axis=0, out=grad_k[tau])
        if tail is not None:
            seen = min(tau, n)
            grad_prev[taps - tau:taps - tau + seen] += kernel[tau] * grad_out[:seen]
            grad_k[tau] += np.sum(grad_out[:seen] * tail[taps - tau:taps - tau + seen], axis=0)
    return grad_flat, grad_k, grad_prev


def rope_rotations(positions: int | np.ndarray, width: int) -> np.ndarray:
    """The rotations ``rope_apply`` multiplies by: pair j of a width-w vector
    at position i is turned by the angle i * ROPE_BASE^(-2j/w), the unit
    complex number cos + i sin of it.  ``positions`` is a scalar for a single
    item, giving a (w/2,) table, or an (N,) vector, giving (N, w/2).  The
    conjugate table is the inverse rotation, the adjoint."""
    if width % 2 != 0:
        raise ValueError(f"rotary width must be even, got {width}")
    ang = np.multiply.outer(np.asarray(positions, dtype=float), _rope_freqs(width))
    rot = np.empty(ang.shape, dtype=complex)
    np.cos(ang, out=rot.real)
    np.sin(ang, out=rot.imag)
    return rot


def rope_apply(x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Rotate consecutive pairs of the last axis of ``x`` by the table
    ``rot`` of ``rope_rotations``: a (w/2,) table rotates every row alike,
    an (N, w/2) one row n of the leading axis by rot[n], over any axes in
    between.  The map is orthogonal, so norms are preserved, and
    ``rope_apply(x, rot.conj())`` undoes it exactly."""
    x = np.ascontiguousarray(x, dtype=float)  # its pairs are viewed as complex
    if x.shape[-1] != 2 * rot.shape[-1] or rot.shape[:-1] != x.shape[:rot.ndim - 1]:
        raise ValueError(f"rotations {rot.shape} do not match rows of shape {x.shape}")
    # broadcast the rotations over any axes between the position axis and the pairs
    if rot.ndim > 1:
        rot = rot.reshape(rot.shape[:1] + (1,) * (x.ndim - rot.ndim) + rot.shape[1:])
    # pair (even, odd) is even + i odd, rotated by one complex multiply
    out = np.empty_like(x)
    np.multiply(x.view(complex), rot, out=out.view(complex))
    return out


@functools.lru_cache(maxsize=32)
def _rope_freqs(width: int) -> np.ndarray:
    """ROPE_BASE^(-2j/width) for each pair j, made once per width and
    read-only, since every caller shares it."""
    freqs = ROPE_BASE ** (-2.0 * np.arange(width // 2) / width)
    freqs.flags.writeable = False
    return freqs


@dataclass(frozen=True)
class NormBias:
    """RMSNorm with learnable gain and additive bias."""

    gain: np.ndarray
    bias: np.ndarray


def _rms(x: np.ndarray, scale) -> np.ndarray:
    """sqrt(mean(x^2) + RMS_EPS) of each row; for the rows divided by
    ``scale``, the same with RMS_EPS divided by scale^2."""
    out = _sum_squares(x)
    out /= x.shape[-1]
    out += RMS_EPS / scale ** 2
    return np.sqrt(out, out=out)


def rmsnorm_bias(x: np.ndarray, params: NormBias, out=None) -> np.ndarray:
    """gain * x / sqrt(mean(x^2) + RMS_EPS) + bias over the channel axis,
    written into ``out`` when given (any float array of x's shape); a row
    whose mean square overflows is normalized from its scaled copy
    (``_scaled_rows``), so any finite row is normalized."""
    x, rms, _ = _scaled_rows(np.asarray(x, dtype=float), _rms)
    out = np.divide(x, rms, out=out)
    out *= params.gain
    out += params.bias
    return out


def rmsnorm_bias_backward(
    x: np.ndarray, params: NormBias, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of rmsnorm_bias w.r.t. (x, gain, bias); the leading axes
    the gain broadcasts over are batch axes and get summed for the parameter
    gradients, so a (G, width) gain on an (N, G, width) block gets (G, width).

    Rows whose width * rms^3 overflows (from rms about 5.6e102 / width^(1/3))
    take the same formulas on their scaled copy (``_scaled_rows``), and
    their grad x is divided by the scale, so any finite row gets its
    exact gradient."""
    x = np.asarray(x, dtype=float)
    width = x.shape[-1]
    x, rms, top = _scaled_rows(x, _rms, lambda rms: width * rms ** 3)
    batch = tuple(range(x.ndim - params.gain.ndim))
    grad_bias = np.sum(grad_out, axis=batch)
    # two buffers: grad x, and each product summed over an axis
    prod = np.divide(x, rms)  # xhat
    prod *= grad_out
    grad_gain = np.sum(prod, axis=batch)
    grad_x = np.multiply(params.gain, grad_out)  # g
    inner = np.sum(np.multiply(grad_x, x, out=prod), axis=-1, keepdims=True)
    grad_x /= rms
    # g / rms - x * sum(g x) / (width rms^3)
    np.multiply(x, inner, out=prod)
    prod /= width * rms ** 3
    grad_x -= prod
    if top is not None:
        grad_x /= top
    return grad_x, grad_gain, grad_bias


def check_feature_kind(kind: str) -> None:
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {FEATURE_KINDS}")


@dataclass(frozen=True)
class FeatureMap:
    """A query/key feature map.

    ``omega`` is the real (S, d) frequency matrix for ``rff``, or a (G, S, d)
    stack of one matrix per KV group; the other kinds have none.  A map
    checks both when it is made, ``dataclasses.replace`` included, so an rff
    map never runs without frequencies, on the real part of complex ones,
    on frequencies of another rank or on a NaN or an inf, and no other kind
    carries frequencies it would ignore.  Every kind is positionwise; the
    mixer applies its short conv to the full projected stream before the
    head split.
    """

    kind: str  # one of FEATURE_KINDS
    omega: np.ndarray | None = None

    def __post_init__(self):
        check_feature_kind(self.kind)
        if self.kind == "rff" and self.omega is None:
            raise ValueError("an rff feature map needs its frequencies omega")
        if self.kind != "rff" and self.omega is not None:
            raise ValueError(f"a {self.kind!r} feature map has no frequencies omega")
        if np.iscomplexobj(self.omega):
            raise ValueError(f"frequencies omega must be real, got {np.result_type(self.omega)}")
        if self.omega is not None and np.ndim(self.omega) not in (2, 3):
            raise ValueError(f"frequencies omega must be (S, d) or (G, S, d), "
                             f"got shape {np.shape(self.omega)}")
        if self.omega is not None and not np.isfinite(self.omega).all():
            raise ValueError("frequencies omega must be finite, got NaN or inf")


def make_feature_map(kind: str, input_dim: int, width: int, groups: int,
                     rng: np.random.Generator) -> FeatureMap:
    """A ``kind`` map from ``input_dim`` to ``width`` features for ``groups``
    KV groups; rff draws one (width/2, input_dim) frequency matrix per group,
    stacked on a leading group axis."""
    if kind == "rff":
        if width % 2 != 0:
            raise ValueError("rff feature maps have even width (cos and sin halves)")
        return FeatureMap(kind="rff", omega=rng.standard_normal((groups, width // 2, input_dim)))
    fmap = FeatureMap(kind=kind)
    if width != input_dim:
        raise ValueError(
            f"{kind} feature maps preserve width, so the feature width must equal "
            f"the input width ({width} != {input_dim})"
        )
    return fmap


def apply_feature_map(fmap: FeatureMap, x: np.ndarray) -> np.ndarray:
    """Apply a feature map to a vector or a stack of rows."""
    if fmap.kind == "identity":
        return np.asarray(x, dtype=float)
    if fmap.kind == "rff":
        return rff_features(x, fmap.omega)
    return _l2_normalize(silu(x))  # silu_l2


def feature_map_backward(
    fmap: FeatureMap, x: np.ndarray, grad_out: np.ndarray
) -> np.ndarray:
    """Gradient of ``apply_feature_map`` w.r.t. its input."""
    if fmap.kind == "identity":
        return np.asarray(grad_out, dtype=float)
    if fmap.kind == "rff":
        proj = _project(x, fmap.omega)
        scale = 1.0 / np.sqrt(fmap.omega.shape[-2])
        half = proj.shape[-1]
        g_cos = np.multiply(grad_out[..., :half], scale)
        g_proj = np.multiply(grad_out[..., half:], scale)  # g_sin
        g_proj *= np.cos(proj)
        g_cos *= np.sin(proj, out=proj)
        g_proj -= g_cos  # cos(proj) g_sin - sin(proj) g_cos
        return _project(g_proj, fmap.omega.swapaxes(-1, -2))
    # silu_l2; one sigmoid serves silu(x) = x s and its derivative, and a
    # row whose squared norm overflows runs on its scaled copy, its
    # gradient divided by the scale
    x = np.asarray(x, dtype=float)
    s = sigmoid(x)
    y, norm, top = _scaled_rows(x * s, _l2)
    guarded = np.maximum(norm, L2_EPS)
    y /= guarded  # x s is this function's own, and so is its scaled copy
    prod = np.multiply(y, grad_out)
    # below the floor the scale is the constant 1/L2_EPS: no inner term
    inner = np.where(norm > L2_EPS, np.sum(prod, axis=-1, keepdims=True), 0.0)
    grad_v = np.multiply(y, inner, out=y)
    np.subtract(grad_out, grad_v, out=grad_v)  # g - y inner
    grad_v /= guarded
    if top is not None:
        grad_v /= top
    grad_v *= _silu_slope(x, s, prod)
    return grad_v
