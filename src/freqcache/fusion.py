"""Decision fusion: run the three frequency analyses on a frame pair, gate,
select the reuse set, and maintain the token cache across steps."""

import math
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.fft

from .budget import BudgetConfig, EntropyReading, reuse_budget, spectral_entropy
from .edge_refresh import patch_energy, refresh_mask
from .errors import InvariantError
from .frame import PatchGrid, validate_frame
from .migration import (
    Displacement,
    GateAction,
    alignment_mask,
    migration_gate,
    phase_correlation_spectra,
    sim_freq,
)
from .spectral import bin_dot, hermitian_weights


@dataclass(frozen=True)
class CostModel:
    """Affine per-step latency in the number of recomputed tokens."""

    base_ms: float
    per_token_ms: float

    def latency_ms(self, n_recompute):
        return self.base_ms + self.per_token_ms * n_recompute

    @classmethod
    def calibrated(cls, full_ms, cached_ms, reuse_ratio, n_tokens):
        """Fit the two constants so that recomputing all ``n_tokens`` costs
        ``full_ms`` and running at ``reuse_ratio`` costs ``cached_ms``."""
        n_full = float(n_tokens)
        n_cached = n_tokens * (1.0 - reuse_ratio)
        per = (full_ms - cached_ms) / (n_full - n_cached)
        return cls(full_ms - per * n_full, per)


# Calibrated so a 196-token step costs 637 ms with no reuse and 401 ms at
# 53.5% reuse.
DEFAULT_COST_MODEL = CostModel.calibrated(637.0, 401.0, 0.535, 196)


@dataclass(frozen=True)
class CacheConfig:
    """Pipeline hyperparameters."""

    tau_mig: float = 0.12
    edge_lambda: float = 0.25
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    patch_size: int = 16

    def __post_init__(self):
        if not 0.0 <= self.tau_mig <= 1.0:
            raise ValueError(f"tau_mig must lie in [0, 1], got {self.tau_mig}")
        if not math.isfinite(self.edge_lambda):
            raise ValueError("edge_lambda must be finite")
        if self.patch_size < 2:
            raise ValueError(f"patch_size must be >= 2, got {self.patch_size}")


@dataclass
class CacheDecision:
    """Per-step outcome: gate result, masks' consequences, and the reuse set.

    ``reuse_set`` is ordered by ascending patch energy (ties row-major);
    ``recompute_set`` is row-major. ``timings_us`` is diagnostic only and is
    excluded from equality.
    """

    step: int
    flushed: bool
    sim_freq: float
    displacement: Displacement
    entropy: EntropyReading
    alpha_t: float
    k_reuse: int
    k_candidate: int
    k_final: int
    reuse_set: tuple
    recompute_set: tuple
    rows: int
    cols: int
    refresh_set: tuple
    diagnostic: str = None
    timings_us: dict = field(default_factory=dict, compare=False)


_TOKEN_BINS = 16
_TOKEN_EDGES = np.linspace(0.0, 1.0, _TOKEN_BINS + 1)


def default_token_fn(patches):
    """Per patch of a (k, P, P) stack: the 16-bin intensity histogram over
    [0, 1] of the clipped pixels, then the mean and variance; shape (k, 18).

    Bins follow ``np.histogram(clip(p, 0, 1), bins=16, range=(0, 1))``
    bit for bit: 1.0 falls in the last bin and values on an edge in the
    bin that edge opens.
    """
    a = np.asarray(patches, dtype=np.float64)
    k = a.shape[0]
    flat = a.reshape(k, -1)
    clipped = np.clip(flat, 0.0, 1.0)
    # numpy's uniform-bin rule: scale, truncate, then correct the bins
    # that rounding put one off against the exact edges.
    idx = (clipped * _TOKEN_BINS).astype(np.intp)
    idx[idx == _TOKEN_BINS] = _TOKEN_BINS - 1
    idx[clipped < _TOKEN_EDGES[idx]] -= 1
    idx[(clipped >= _TOKEN_EDGES[idx + 1]) & (idx != _TOKEN_BINS - 1)] += 1
    idx += _TOKEN_BINS * np.arange(k)[:, None]
    out = np.empty((k, _TOKEN_BINS + 2))
    out[:, :_TOKEN_BINS] = np.bincount(
        idx.ravel(), minlength=k * _TOKEN_BINS
    ).reshape(k, _TOKEN_BINS)
    out[:, _TOKEN_BINS] = flat.mean(axis=1)
    out[:, _TOKEN_BINS + 1] = flat.var(axis=1)
    return out


def topk_ascending(candidates, energies, k):
    """First k candidate indices by ascending energy; ties break row-major.

    ``energies`` is indexed by flat patch index, so candidates may be any
    subset of positions.
    """
    cand = np.asarray(candidates, dtype=np.int64)
    if cand.size == 0 or k <= 0:
        return ()
    e = np.asarray(energies, dtype=np.float64).ravel()
    order = np.lexsort((cand, e[cand]))
    return tuple(cand[order[: min(int(k), cand.size)]].tolist())


class _Analysis(NamedTuple):
    """What ``decide`` reads of one validated frame: its read-only ``rfft2``
    half spectrum and amplitude, the power of its full spectrum, and whether
    it is constant."""

    spectrum: np.ndarray
    amplitude: np.ndarray
    power: float
    constant: bool


def _half_spectrum(frame):
    spectrum = scipy.fft.rfft2(frame)
    amplitude = np.abs(spectrum)
    spectrum.flags.writeable = False
    amplitude.flags.writeable = False
    weights = hermitian_weights(frame.shape[1])
    return _Analysis(spectrum, amplitude, bin_dot(amplitude, amplitude, weights),
                     bool(np.ptp(frame) == 0.0))


class _LastFrame(threading.local):
    """The last ``curr`` that ``decide`` analysed on this thread: its bits,
    in a buffer reused while the frame shape stays, and its analysis."""

    bits = None
    analysis = None


_last = _LastFrame()


def _carried(frame):
    """This thread's last analysis if ``frame`` holds exactly its bits."""
    bits = _last.bits
    if (bits is not None and isinstance(frame, np.ndarray)
            and frame.dtype == bits.dtype and frame.shape == bits.shape
            and np.array_equal(bits.view(np.uint64), frame.view(np.uint64))):
        return _last.analysis
    return None


def decide(prev, curr, cfg, *, step=0):
    """Decide which patches of ``curr`` may reuse cached tokens.

    The migration, budget, and edge analyses are independent and join at a
    single synchronization point before token selection; the spectral ones
    read ``rfft2`` half spectra. Each frame is analysed once per stream:
    ``curr``'s analysis is kept, with a copy of its bits, for this thread's
    next call, and a ``prev`` holding exactly those bits reuses it without
    being validated or scanned again (a frame buffer rewritten in place
    misses). Degenerate inputs (a frame whose spectrum has no power, or a
    constant frame) force a flush with a diagnostic instead of raising, so a
    black frame cannot abort a sequence; the analyses they make undefined
    keep their defaults.
    """
    a_prev = _carried(prev)
    if a_prev is None:
        prev = validate_frame(prev)
    curr = validate_frame(curr)
    if prev.shape != curr.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {curr.shape}")
    grid = PatchGrid._of_valid(curr, cfg.patch_size)
    n = grid.n_patches

    t0 = time.perf_counter_ns()
    if a_prev is None:
        a_prev = _half_spectrum(prev)
    a_curr = _half_spectrum(curr)
    if _last.bits is None or _last.bits.shape != curr.shape:
        _last.bits = np.empty(curr.shape)
    np.copyto(_last.bits, curr)
    _last.analysis = a_curr
    weights = hermitian_weights(curr.shape[1])
    timings = {"transform": (time.perf_counter_ns() - t0) // 1000}

    if a_prev.power == 0.0 or a_curr.power == 0.0:
        diagnostic = "degenerate spectrum"
    elif a_prev.constant or a_curr.constant:
        diagnostic = "no texture; displacement undefined"
    else:
        diagnostic = None

    sim = 0.0
    disp = Displacement(0, 0, 0, 0)
    align = None
    if diagnostic is None:
        t0 = time.perf_counter_ns()
        sim = sim_freq(a_prev.amplitude, a_curr.amplitude, weights)
        disp = phase_correlation_spectra(a_prev.spectrum, a_curr.spectrum,
                                         curr.shape, cfg.patch_size)
        align = alignment_mask(disp, grid)
        timings["migration"] = (time.perf_counter_ns() - t0) // 1000

    entropy = EntropyReading(0.0, 0.0, prev.size)
    alpha, k_reuse = 0.0, 0
    if a_curr.power > 0.0:
        t0 = time.perf_counter_ns()
        entropy = spectral_entropy(a_curr.amplitude, weights)
        alpha, k_reuse = reuse_budget(entropy.normalized, cfg.budget, n)
        timings["budget"] = (time.perf_counter_ns() - t0) // 1000

    t0 = time.perf_counter_ns()
    energy = patch_energy(grid)
    fresh = refresh_mask(energy, cfg.edge_lambda)
    timings["edge"] = (time.perf_counter_ns() - t0) // 1000
    refresh_set = tuple(np.flatnonzero(fresh.mask.ravel()).tolist())

    # Synchronization point: all three analyses have completed.
    t_sel = time.perf_counter_ns()
    flushed = (diagnostic is not None
               or migration_gate(sim, cfg.tau_mig) is GateAction.FLUSH)
    k_candidate, k_final, reuse = 0, 0, ()
    if not flushed:
        candidate_idx = np.flatnonzero((align & ~fresh.mask).ravel())
        k_candidate = int(candidate_idx.size)
        k_final = min(k_reuse, k_candidate)
        reuse = topk_ascending(candidate_idx, energy.energies, k_final)
    keep = np.ones(n, dtype=bool)
    keep[list(reuse)] = False
    recompute = tuple(np.flatnonzero(keep).tolist())
    timings["select"] = (time.perf_counter_ns() - t_sel) // 1000

    decision = CacheDecision(
        step=int(step),
        flushed=flushed,
        sim_freq=float(sim),
        displacement=disp,
        entropy=entropy,
        alpha_t=float(alpha),
        k_reuse=int(k_reuse),
        k_candidate=int(k_candidate),
        k_final=int(k_final),
        reuse_set=reuse,
        recompute_set=recompute,
        rows=grid.rows,
        cols=grid.cols,
        refresh_set=refresh_set,
        diagnostic=diagnostic,
        timings_us=timings,
    )
    t0 = time.perf_counter_ns()
    _check_decision(decision, align, fresh.mask, n)
    timings["check"] = (time.perf_counter_ns() - t0) // 1000
    return decision


def _check_decision(decision, align, fresh, n):
    """In-run invariants: partition, budget, flush, and safety.

    Explicit raises rather than ``assert``, so ``python -O`` keeps them.
    """
    reuse = set(decision.reuse_set)
    recompute = set(decision.recompute_set)
    if reuse & recompute or len(reuse) + len(recompute) != n:
        raise InvariantError("reuse and recompute sets do not partition the patches")
    if not decision.k_final == len(decision.reuse_set) == min(
        decision.k_reuse, decision.k_candidate
    ):
        raise InvariantError("reuse count does not match the budget rule")
    if decision.flushed and decision.k_final != 0:
        raise InvariantError("flushed step must reuse nothing")
    if align is not None:
        idx = np.asarray(decision.reuse_set, dtype=np.int64)
        unsafe = idx[~align.ravel()[idx] | fresh.ravel()[idx]]
        if unsafe.size:
            raise InvariantError(
                f"reused patch {unsafe[0]} violates alignment/refresh safety"
            )


@dataclass
class TokenCache:
    """Per-patch token store: values plus steps-since-recompute ages."""

    tokens: np.ndarray  # (rows, cols, dim)
    ages: np.ndarray    # (rows, cols) int


@dataclass(frozen=True)
class StepReport:
    step: int
    n_reused: int
    n_recomputed: int
    latency_model_ms: float


def populate_cache(frame, patch_size, token_fn):
    """Cold-start cache: every slot computed from the frame, all ages 0."""
    grid = PatchGrid(frame, patch_size)
    tokens = grid.tokens(token_fn).reshape(grid.rows, grid.cols, -1)
    return TokenCache(tokens, np.zeros((grid.rows, grid.cols), dtype=np.int64))


def step(cache, decision, curr, token_fn):
    """Apply a decision to the cache for the current frame.

    Reused slots are copied from their displacement-mapped source in the
    previous cache and their age incremented; everything else is recomputed
    with ``token_fn`` at age 0. Passing ``cache=None`` (cold start) or a
    flushed decision recomputes every slot. A reused slot whose source lies
    outside the grid raises :class:`InvariantError`.
    """
    curr = validate_frame(curr)
    rows, cols = decision.rows, decision.cols
    h, w = curr.shape
    if h % rows or w % cols or h // rows != w // cols:
        raise ValueError(
            f"decision grid {rows}x{cols} does not tile frame {h}x{w}"
        )
    grid = PatchGrid._of_valid(curr, h // rows)
    n = grid.n_patches

    reuse = np.asarray(
        () if cache is None or decision.flushed else decision.reuse_set,
        dtype=np.int64,
    )
    si = reuse // cols - decision.displacement.di_patches
    sj = reuse % cols - decision.displacement.dj_patches
    outside = (si < 0) | (si >= rows) | (sj < 0) | (sj >= cols)
    if outside.any():
        k = int(np.argmax(outside))
        raise InvariantError(
            f"reuse source ({si[k]}, {sj[k]}) out of bounds for patch {reuse[k]}"
        )
    recompute = np.setdiff1d(np.arange(n), reuse)
    if recompute.size:
        fresh = grid.tokens(token_fn, recompute)
        tokens = np.empty((n, fresh.shape[1]))
        tokens[recompute] = fresh
    else:
        tokens = np.empty((n, cache.tokens.shape[2]))
    ages = np.zeros(n, dtype=np.int64)
    if reuse.size:
        tokens[reuse] = cache.tokens[si, sj]
        ages[reuse] = cache.ages[si, sj] + 1
    report = StepReport(
        step=decision.step,
        n_reused=n - recompute.size,
        n_recomputed=recompute.size,
        latency_model_ms=DEFAULT_COST_MODEL.latency_ms(recompute.size),
    )
    return TokenCache(tokens.reshape(rows, cols, -1), ages.reshape(rows, cols)), report


@dataclass
class SequenceReport:
    """Aggregate metrics over the decision steps of a sequence.

    The cold start (step 0, all tokens computed) is excluded from the
    aggregates; decisions cover steps 1 .. T-1.
    """

    n_frames: int
    n_tokens: int
    decisions: list
    step_reports: list
    mean_reuse_ratio: float
    mean_latency_ms: float
    baseline_latency_ms: float
    speedup: float
    flush_count: int


def run_sequence(frames, cfg, token_fn=default_token_fn):
    """Drive decide/step over consecutive frames and aggregate the metrics."""
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    frames = [validate_frame(f) for f in frames]
    shape = frames[0].shape
    for t, f in enumerate(frames):
        if f.shape != shape:
            raise ValueError(
                f"frame at step {t}: dimension mismatch {f.shape} vs {shape}"
            )
    grid = PatchGrid(frames[0], cfg.patch_size)
    n = grid.n_patches

    cache = populate_cache(frames[0], cfg.patch_size, token_fn)
    decisions = []
    reports = []
    for t in range(1, len(frames)):
        d = decide(frames[t - 1], frames[t], cfg, step=t)
        cache, rep = step(cache, d, frames[t], token_fn)
        decisions.append(d)
        reports.append(rep)

    total_reused = sum(d.k_final for d in decisions)
    mean_latency = sum(r.latency_model_ms for r in reports) / len(reports)
    baseline = DEFAULT_COST_MODEL.latency_ms(n)
    return SequenceReport(
        n_frames=len(frames),
        n_tokens=n,
        decisions=decisions,
        step_reports=reports,
        mean_reuse_ratio=total_reused / (len(decisions) * n),
        mean_latency_ms=mean_latency,
        baseline_latency_ms=baseline,
        speedup=baseline / mean_latency,
        flush_count=sum(1 for d in decisions if d.flushed),
    )
