"""Configuration records and seeded randomness.

Every numeric module in this package works in double precision and derives
all of its randomness from a seed threaded through ``make_rng``.  The config
is a flat record serialized as flat JSON; unknown keys are rejected so a
typo in a config file cannot silently fall back to a default.  A config
checks its invariants when it is made, ``dataclasses.replace`` included, so
every ``ModelConfig`` a caller holds is valid.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BACKENDS = ("sequential", "fft", "chunkwise", "parallel_prefix")
VARIANTS = ("full_interdomain", "dual_kv_linear", "single_input_qproj", "s4d_only")

# Variants whose readout contracts query features against the key-side
# coefficients.  The other two replace the query path with a learned
# linear contraction of the SSM outputs.
QUERY_VARIANTS = ("full_interdomain", "single_input_qproj")
# Variants whose SSM ingests generic projected streams [a_t, b_t] instead of
# the semantic pair [features(k_t), v_t].
GENERIC_INPUT_VARIANTS = ("single_input_qproj", "s4d_only")


class ConfigError(ValueError):
    """A configuration field violates one of the documented invariants."""


_COUNT_FIELDS = (
    "heads", "model_dim", "head_dim", "feature_dim", "state_dim",
    "context_len", "chunk_size", "prefill_chunk", "n_kv", "seed",
)
_ENUM_FIELDS = {"backend": BACKENDS, "variant": VARIANTS}


@dataclass(frozen=True)
class ModelConfig:
    """Mixer hyperparameters shared by the layer, the backends, and the suites.

    ``feature_dim`` is the width of the query/key feature vectors; for the
    norm-based feature map it must equal ``head_dim``.  ``chunk_size`` is the
    chunk length asked of the chunkwise scan and the SSM backward; both
    clamp it to K = min(chunk_size, N, W) for N tokens of SSM input width
    W = feature_dim + head_dim, so their K^2 M Toeplitz kernel is never
    larger than the (N, M, W) scan outputs.  ``prefill_chunk`` is the
    position block length L of every multi-token call of the layer:
    ``forward``, ``prefill`` (its default chunk) and ``backward`` walk the
    sequence L tokens at a time, each block continuing the state the last
    one left, so no call's working set grows with N; a sequence of N <= L
    tokens is one block.  ``bench.simulate_decode`` books activations by it.
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
    n_kv: int = 2
    seed: int = 0

    def __post_init__(self):
        """Raise ``ConfigError`` naming the first violated invariant, and
        nothing else for a structurally well-formed record."""
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ConfigError(f"{name} must be a positive count, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name, allowed in _ENUM_FIELDS.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.heads * self.head_dim != self.model_dim:
            raise ConfigError(
                "heads*head_dim must equal model_dim "
                f"({self.heads}*{self.head_dim} != {self.model_dim})"
            )
        if not 1 <= self.chunk_size <= self.context_len:
            raise ConfigError(
                "chunk_size must satisfy 1 <= chunk_size <= context_len, got "
                f"{self.chunk_size} with context_len={self.context_len}"
            )
        if self.n_kv not in (1, self.heads):
            raise ConfigError(
                f"n_kv must be 1 (shared state) or heads={self.heads}, got {self.n_kv}"
            )
        if self.head_dim % 2:
            raise ConfigError(
                f"RoPE rotates head_dim in pairs, so head_dim must be even, got {self.head_dim}"
            )
        if self.variant in GENERIC_INPUT_VARIANTS and self.feature_dim != self.head_dim:
            raise ConfigError(
                "generic-input variants keep the coefficient width equal to the "
                f"query feature width, so feature_dim must equal head_dim "
                f"({self.feature_dim} != {self.head_dim})"
            )


@dataclass(frozen=True)
class Stream:
    """One input stream of the mixer and the stages it runs.

    Stream ``name`` projects with ``LayerParams.w_<name>`` to ``rows``
    head-wide rows per token; ``conv`` on means it convolves with
    ``conv_<name>`` and carries ``LayerState.conv_<name>_tail``.  ``norm``
    names the ``LayerParams`` field of its input norm, or is None.
    """

    name: str
    rows: int
    conv: bool
    rope: bool
    features: bool
    norm: str | None


@functools.lru_cache(maxsize=32)
def streams(config: ModelConfig) -> tuple[Stream, ...]:
    """The variant's input streams, in the order k, v, q.

    RoPE rotates k and q, never v.  The generic-input variants' k and v
    are the [a_t, b_t] streams: no feature map on k, a conv on v.  Only
    the query variants have a q.  The table is immutable and made once
    per config (a decode step reads it three times).
    """
    generic = config.variant in GENERIC_INPUT_VARIANTS
    table = (Stream("k", config.n_kv, conv=True, rope=True, features=not generic, norm="k_norm"),
             Stream("v", config.n_kv, conv=generic, rope=False, features=False, norm="v_norm"))
    if config.variant in QUERY_VARIANTS:
        table += (Stream("q", config.heads, conv=True, rope=True, features=True, norm=None),)
    return table


# Keys of fields the record no longer has, each with the one value the
# layer still runs: config files written while the record had them load,
# and the key is never read.
_RETIRED = {"readout": "denominator_free", "output_gate_enabled": False, "rope_enabled": True}


def config_from_dict(data: dict) -> ModelConfig:
    """Build a config from a flat dict, rejecting unknown keys.

    Config files written while the record had the fields of ``_RETIRED``
    carry their keys.  The layer runs only one value of each (the
    denominator-free readout, no output gate, RoPE on k and q), so each
    key is accepted with exactly that value, a bool only as a bool, and
    any other value raises ``ConfigError``.
    """
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = sorted(set(data) - known - set(_RETIRED))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in _RETIRED.items():
        if key in data and (type(data[key]) is not type(value) or data[key] != value):
            raise ConfigError(f"{key} must be {value!r}, got {data[key]!r}")
    return ModelConfig(**{k: v for k, v in data.items() if k not in _RETIRED})


def load_config(path: str | Path, seed_override: int | None = None) -> ModelConfig:
    """Load a flat JSON config file; ``seed_override`` wins over the file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file must hold a JSON object, got {type(data).__name__}")
    if seed_override is not None:
        data["seed"] = seed_override
    return config_from_dict(data)


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator; equal seeds give bit-equal streams."""
    return np.random.Generator(np.random.PCG64(seed))
