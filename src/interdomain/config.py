"""Configuration records, validation, and seeded randomness.

Every numeric module in this package works in double precision and derives
all of its randomness from a seed threaded through ``make_rng``.  The config
is a flat record serialized as flat JSON; unknown keys are rejected so a
typo in a config file cannot silently fall back to a default.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BACKENDS = ("sequential", "fft", "chunkwise", "parallel_prefix")
VARIANTS = ("full_interdomain", "dual_kv_linear", "single_input_qproj", "s4d_only")
READOUTS = ("nw", "denominator_free")

# Variants whose readout contracts query features against the key-side
# coefficients.  The other two replace the query path with a learned
# linear contraction of the SSM outputs.
QUERY_VARIANTS = ("full_interdomain", "single_input_qproj")
# Variants whose SSM ingests generic projected streams [a_t, b_t] instead of
# the semantic pair [features(k_t), v_t].
GENERIC_INPUT_VARIANTS = ("single_input_qproj", "s4d_only")


class ConfigError(ValueError):
    """A configuration field violates one of the documented invariants."""


@dataclass(frozen=True)
class ModelConfig:
    """Mixer hyperparameters shared by the layer, the backends, and the suites.

    ``feature_dim`` is the width of the query/key feature vectors; for the
    norm-based feature map it must equal ``head_dim``.  ``chunk_size`` is the
    chunk length asked of the chunkwise scan and the SSM backward; both
    clamp it to K = min(chunk_size, N, W) for N tokens of SSM input width
    W = feature_dim + head_dim, so their K^2 M Toeplitz kernel is never
    larger than the (N, M, W) scan outputs.  ``prefill_chunk`` is the block
    length used when prefilling a decode session.
    """

    heads: int = 2
    model_dim: int = 8
    head_dim: int = 4
    feature_dim: int = 4
    state_dim: int = 4
    context_len: int = 128
    chunk_size: int = 16
    prefill_chunk: int = 8
    backend: str = "sequential"
    variant: str = "full_interdomain"
    rope_enabled: bool = True
    output_gate_enabled: bool = False
    n_kv: int = 2
    readout: str = "denominator_free"
    seed: int = 0


_COUNT_FIELDS = (
    "heads", "model_dim", "head_dim", "feature_dim", "state_dim",
    "context_len", "chunk_size", "prefill_chunk", "n_kv", "seed",
)
_FLAG_FIELDS = ("rope_enabled", "output_gate_enabled")
_ENUM_FIELDS = {"backend": BACKENDS, "variant": VARIANTS, "readout": READOUTS}


def validate(config: ModelConfig) -> ModelConfig:
    """Check every invariant and return the config unchanged.

    Raises ``ConfigError`` naming the violated invariant.  Never raises
    anything else for a structurally well-formed record.
    """
    for name in _COUNT_FIELDS:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if name != "seed" and value < 1:
            raise ConfigError(f"{name} must be a positive count, got {value}")
    if config.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {config.seed}")
    for name in _FLAG_FIELDS:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be a boolean, got {value!r}")
    for name, allowed in _ENUM_FIELDS.items():
        value = getattr(config, name)
        if value not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
    if config.heads * config.head_dim != config.model_dim:
        raise ConfigError(
            "heads*head_dim must equal model_dim "
            f"({config.heads}*{config.head_dim} != {config.model_dim})"
        )
    if not 1 <= config.chunk_size <= config.context_len:
        raise ConfigError(
            "chunk_size must satisfy 1 <= chunk_size <= context_len, got "
            f"{config.chunk_size} with context_len={config.context_len}"
        )
    if config.n_kv not in (1, config.heads):
        raise ConfigError(
            f"n_kv must be 1 (shared state) or heads={config.heads}, got {config.n_kv}"
        )
    if config.variant in GENERIC_INPUT_VARIANTS and config.feature_dim != config.head_dim:
        raise ConfigError(
            "generic-input variants keep the coefficient width equal to the "
            f"query feature width, so feature_dim must equal head_dim "
            f"({config.feature_dim} != {config.head_dim})"
        )
    return config


def config_to_dict(config: ModelConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> ModelConfig:
    """Build and validate a config from a flat dict, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return validate(ModelConfig(**data))


def load_config(path: str | Path, seed_override: int | None = None) -> ModelConfig:
    """Load a flat JSON config file; ``seed_override`` wins over the file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file must hold a JSON object, got {type(data).__name__}")
    if seed_override is not None:
        data["seed"] = seed_override
    return config_from_dict(data)


def save_config(config: ModelConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; equal seeds give bit-equal streams."""
    return np.random.Generator(np.random.PCG64(seed))
