"""Frequency-guided token-reuse decisions for frame sequences.

Given consecutive single-channel frames, the pipeline decides which
visual-token positions may be reused from a cache and which must be
recomputed, combining amplitude-spectrum similarity, phase-correlation
alignment, block-DCT edge energy, and an entropy-adaptive reuse budget.
"""

__version__ = "0.1.0"

from .budget import EntropyReading, reuse_budget, spectral_entropy
from .edge_refresh import cutoff_index, patch_energy, refresh_mask
from .errors import DegenerateSpectrumError, FrameParseError, InvariantError
from .frame import PatchGrid, validate_frame
from .fusion import (
    CacheConfig,
    CacheDecision,
    SequenceReport,
    StepReport,
    TokenCache,
    decide,
    default_token_fn,
    modeled_cost,
    modeled_latency_ms,
    populate_cache,
    run_sequence,
    step,
    stream,
    topk_ascending,
)
from .migration import (
    Displacement,
    alignment_mask,
    phase_correlation_spectra,
    sim_freq,
)
from .scenes import SCENE_KINDS, Scene, SceneSpec, generate_scene

__all__ = [
    "__version__",
    "CacheConfig",
    "CacheDecision",
    "DegenerateSpectrumError",
    "Displacement",
    "EntropyReading",
    "FrameParseError",
    "InvariantError",
    "PatchGrid",
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
    "modeled_cost",
    "modeled_latency_ms",
    "patch_energy",
    "phase_correlation_spectra",
    "populate_cache",
    "refresh_mask",
    "reuse_budget",
    "run_sequence",
    "sim_freq",
    "spectral_entropy",
    "step",
    "stream",
    "topk_ascending",
    "validate_frame",
]
