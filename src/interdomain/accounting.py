"""Closed-form accounting: recurrent-state degrees of freedom, backbone
parameter counts at the four published scales.

Nothing here runs the model; the point is that the numbers are exact
integers a test can compare against, and that the state budget of the
fixed-state mixer is visibly independent of sequence length.  Both counts
read the layer's own tables, ``layer.param_layout`` and
``layer.state_layout``, so they cannot drift from the tensors the layer
makes and checks.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .config import ModelConfig
from .layer import param_layout, real_scalars, state_layout

VOCAB = 32000

MIXERS = ("softmax", "interdomain", "s4d_only")


@dataclass(frozen=True)
class BackboneSpec:
    """Width/depth of one decoder-only scale."""

    name: str
    model_dim: int
    layers: int
    heads: int


BACKBONES = (
    BackboneSpec("125m", model_dim=768, layers=12, heads=12),
    # width and depth reverse engineered by matching the published softmax
    # total, which they reproduce exactly
    BackboneSpec("350m", model_dim=1024, layers=24, heads=16),
    BackboneSpec("760m", model_dim=1536, layers=24, heads=24),
    BackboneSpec("1.3b", model_dim=2048, layers=24, heads=32),
)


def backbone(name: str) -> BackboneSpec:
    for spec in BACKBONES:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown backbone {name!r}; have {[s.name for s in BACKBONES]}")


def swiglu_hidden(model_dim: int) -> int:
    """(2/3)*4d rounded up to a multiple of 128."""
    return math.ceil(8 * model_dim / (3 * 128)) * 128


def scale_config(spec: BackboneSpec, variant: str = "full_interdomain") -> ModelConfig:
    """The mixer config used at a published scale: per-head KV, 64-wide
    heads/features/state, training context 4096."""
    return ModelConfig(
        heads=spec.heads,
        model_dim=spec.model_dim,
        head_dim=64,
        feature_dim=64,
        state_dim=64,
        context_len=4096,
        chunk_size=64,
        prefill_chunk=2048,
        backend="chunkwise",
        variant=variant,
        n_kv=spec.heads,
        seed=0,
    )


def mixer_params_per_layer(config: ModelConfig) -> int:
    """Trainable real scalars in one mixer layer; complex entries count
    twice.  The count over ``layer.param_layout``, the table the parameter
    container is made from and checked against."""
    return real_scalars(param_layout(config).values())


def softmax_mixer_params(model_dim: int) -> int:
    """Four dense square projections, the usual attention block."""
    return 4 * model_dim * model_dim


def count_params(spec: BackboneSpec, mixer: str = "softmax") -> int:
    """Exact trainable-parameter count for a decoder stack: untied token and
    output embeddings, per-layer mixer + SwiGLU + two norm gains, final norm.
    """
    if mixer not in MIXERS:
        raise KeyError(f"mixer must be one of {MIXERS}, got {mixer!r}")
    d, layers = spec.model_dim, spec.layers
    if mixer == "softmax":
        mix = softmax_mixer_params(d)
    else:
        variant = "full_interdomain" if mixer == "interdomain" else "s4d_only"
        mix = mixer_params_per_layer(scale_config(spec, variant))
    hidden = swiglu_hidden(d)
    per_layer = mix + 3 * d * hidden + 2 * d
    return 2 * VOCAB * d + layers * per_layer + d


def overhead_fraction(spec: BackboneSpec, mixer: str = "interdomain") -> float:
    base = count_params(spec, "softmax")
    return (count_params(spec, mixer) - base) / base


@dataclass(frozen=True)
class StateBudget:
    """Recurrent state carried between tokens, in real scalars.

    ``kv_cache_per_token`` is the growing-cache comparison point: the real
    scalars a softmax layer appends per generated token.  Multiply by the
    prefix length for the total; the fixed-state side has no such factor.
    """

    cells: int
    per_cell_dof: int
    total_dof: int
    kv_cache_per_token: int

    def __post_init__(self):
        if self.total_dof != self.cells * self.per_cell_dof:
            raise ValueError("total_dof must equal cells * per_cell_dof")


def state_dof(config: ModelConfig) -> StateBudget:
    """Per-layer recurrent-state budget: one cell per group's SSM state in
    ``layer.state_layout``.  Complex state entries count as two real degrees
    of freedom; grouped KV divides the cell count, not the cell.
    """
    (cells, *cell), dtype = state_layout(config)["ssm_states"]
    per_cell = real_scalars([(cell, dtype)])
    return StateBudget(
        cells=cells,
        per_cell_dof=per_cell,
        total_dof=cells * per_cell,
        kv_cache_per_token=2 * config.heads * config.head_dim,
    )


def budget_table(config: ModelConfig) -> dict[str, int]:
    """Flat dict view of state_dof plus the published-scale param counts,
    for the CLI's budget report."""
    out = asdict(state_dof(config))
    for spec in BACKBONES:
        out[f"params_softmax_{spec.name}"] = count_params(spec, "softmax")
        out[f"params_interdomain_{spec.name}"] = count_params(spec, "interdomain")
    return out
