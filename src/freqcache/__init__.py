"""Frequency-guided token-reuse decisions for frame sequences.

Given consecutive single-channel frames, the pipeline decides which
visual-token positions may be reused from a cache and which must be
recomputed, combining amplitude-spectrum similarity, phase-correlation
alignment, block-DCT edge energy, and an entropy-adaptive reuse budget.
"""

__version__ = "0.1.0"

from .budget import BudgetConfig, EntropyReading, reuse_budget, spectral_entropy
from .edge_refresh import (
    EnergyMap,
    RefreshMask,
    cutoff_index,
    patch_energy,
    refresh_mask,
)
from .errors import (
    ConstantFrameError,
    DegenerateSpectrumError,
    FrameParseError,
    InvariantError,
)
from .frame import PatchGrid, per_patch, validate_frame
from .fusion import (
    DEFAULT_COST_MODEL,
    CacheConfig,
    CacheDecision,
    CostModel,
    SequenceReport,
    StepReport,
    TokenCache,
    decide,
    default_token_fn,
    populate_cache,
    run_sequence,
    step,
    topk_ascending,
)
from .migration import (
    Displacement,
    GateAction,
    alignment_mask,
    migration_gate,
    phase_correlation,
    phase_correlation_spectra,
    sim_freq,
    sim_spatial,
)
from .scenes import SCENE_KINDS, Scene, SceneSpec, generate_scene

__all__ = [
    "__version__",
    "BudgetConfig",
    "CacheConfig",
    "CacheDecision",
    "ConstantFrameError",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DegenerateSpectrumError",
    "Displacement",
    "EnergyMap",
    "EntropyReading",
    "FrameParseError",
    "GateAction",
    "InvariantError",
    "PatchGrid",
    "RefreshMask",
    "SCENE_KINDS",
    "Scene",
    "SceneSpec",
    "SequenceReport",
    "StepReport",
    "TokenCache",
    "alignment_mask",
    "cutoff_index",
    "decide",
    "default_token_fn",
    "generate_scene",
    "migration_gate",
    "patch_energy",
    "per_patch",
    "phase_correlation",
    "phase_correlation_spectra",
    "populate_cache",
    "refresh_mask",
    "reuse_budget",
    "run_sequence",
    "sim_freq",
    "sim_spatial",
    "spectral_entropy",
    "step",
    "topk_ascending",
    "validate_frame",
]
