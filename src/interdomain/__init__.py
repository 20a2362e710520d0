"""Fixed-state token mixing: kernel attention compressed onto a learned
basis and carried by a diagonal state-space recurrence.

The package is organized bottom-up:

``config``      validated model configuration and seeding
``features``    feature maps, short conv, RoPE, norms
``oracle``      brute-force attention references
``basis``       explicit basis projection and readouts
``ssm``         diagonal recurrence, four scan backends, dual-form backward
``layer``       the assembled mixer: forward, backward, prefill, decode
``accounting``  state budgets, parameter counts
``bench``       op-counting decode simulator, CSV grid
``cli``         verification suites behind one entry point
"""

from .accounting import (
    BACKBONES,
    BackboneSpec,
    StateBudget,
    backbone,
    count_params,
    state_dof,
    swiglu_hidden,
)
from .basis import (
    DiscreteBasis,
    InterdomainState,
    causal_project,
    make_indicator_basis,
    make_legendre_basis,
    project,
    readout_free,
    readout_nw,
)
from .bench import BenchRow, emit_csv, parse_csv, run_decode_grid, simulate_decode
from .config import (
    BACKENDS,
    VARIANTS,
    ConfigError,
    ModelConfig,
    load_config,
    make_rng,
    save_config,
    validate,
)
from .features import FeatureMap, apply_feature_map, make_identity, make_rff, make_silu_l2
from .layer import (
    LayerParams,
    LayerState,
    backward,
    count_layer_params,
    decode_step,
    forward,
    init_decode_state,
    init_layer_params,
    load_layer_params,
    prefill,
    save_layer_params,
)
from .oracle import AttentionInputs, ZeroDenominatorError, feature_attention, softmax_attention
from .ssm import DiagonalSSM, backward_checkpointed, make_ssm, random_ssm, run_scan, s4d_inv_init

__version__ = "0.1.0"

__all__ = [
    "BACKBONES",
    "BACKENDS",
    "VARIANTS",
    "AttentionInputs",
    "BackboneSpec",
    "BenchRow",
    "ConfigError",
    "DiagonalSSM",
    "DiscreteBasis",
    "FeatureMap",
    "InterdomainState",
    "LayerParams",
    "LayerState",
    "ModelConfig",
    "StateBudget",
    "ZeroDenominatorError",
    "apply_feature_map",
    "backbone",
    "backward",
    "backward_checkpointed",
    "causal_project",
    "count_layer_params",
    "count_params",
    "decode_step",
    "emit_csv",
    "feature_attention",
    "forward",
    "init_decode_state",
    "init_layer_params",
    "load_config",
    "load_layer_params",
    "make_identity",
    "make_indicator_basis",
    "make_legendre_basis",
    "make_rff",
    "make_rng",
    "make_silu_l2",
    "make_ssm",
    "parse_csv",
    "prefill",
    "project",
    "random_ssm",
    "readout_free",
    "readout_nw",
    "run_decode_grid",
    "run_scan",
    "s4d_inv_init",
    "save_config",
    "save_layer_params",
    "simulate_decode",
    "softmax_attention",
    "state_dof",
    "swiglu_hidden",
    "validate",
]
