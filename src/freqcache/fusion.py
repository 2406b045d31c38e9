"""Decision fusion: run the three frequency analyses on a frame pair, gate,
select the reuse set, and maintain the token cache across steps."""

import math
import operator
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.fft

from .budget import EntropyReading, reuse_budget, spectral_entropy
from .edge_refresh import patch_energy, refresh_mask
from .errors import InvariantError
from .frame import PatchGrid, frame_array, validate_frame
from .migration import (
    Displacement,
    alignment_mask,
    phase_correlation_spectra,
    sim_freq,
)
from .spectral import bin_dot, hermitian_weights


# The modelled encoder: a step's latency is affine in the tokens it
# recomputes, fitted so that a 196-token step costs 637 ms with no reuse and
# 401 ms at 53.5% reuse. It is a model of an encoder, not a measurement.
_PER_TOKEN_MS = (637.0 - 401.0) / (196.0 - 196 * (1.0 - 0.535))
_BASE_MS = 637.0 - _PER_TOKEN_MS * 196.0


def modeled_latency_ms(n_recompute):
    """Modelled latency of a step that recomputes ``n_recompute`` tokens."""
    return _BASE_MS + _PER_TOKEN_MS * n_recompute


def modeled_cost(reused_per_step, n_tokens):
    """``(reuse_ratio, mean_latency_ms, speedup)`` of steps that each reuse
    ``reused_per_step[t]`` of ``n_tokens`` tokens, under
    :func:`modeled_latency_ms`; the speedup is against recomputing every
    token."""
    mean_latency = sum(modeled_latency_ms(n_tokens - k)
                       for k in reused_per_step) / len(reused_per_step)
    return (sum(reused_per_step) / (len(reused_per_step) * n_tokens),
            mean_latency, modeled_latency_ms(n_tokens) / mean_latency)


@dataclass(frozen=True)
class CacheConfig:
    """Pipeline hyperparameters."""

    tau_mig: float = 0.12
    edge_lambda: float = 0.25
    alpha_min: float = 0.08
    alpha_max: float = 0.5
    patch_size: int = 16

    def __post_init__(self):
        # Messages name the fields they check; the CLI blames their settings.
        if not 0.0 <= self.alpha_min <= self.alpha_max <= 1.0:
            raise ValueError(
                f"need 0 <= alpha_min <= alpha_max <= 1, got "
                f"({self.alpha_min}, {self.alpha_max})"
            )
        if not 0.0 <= self.tau_mig <= 1.0:
            raise ValueError(f"tau_mig must lie in [0, 1], got {self.tau_mig}")
        if not math.isfinite(self.edge_lambda):
            raise ValueError(
                f"edge_lambda must be finite, got {self.edge_lambda}")
        try:
            operator.index(self.patch_size)
        except TypeError:
            raise ValueError(f"patch_size must be an integer, got "
                             f"{self.patch_size!r}") from None
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
    # Scale, clip to [0, 15] and truncate, which also moves 1.0 into the
    # last bin. This needs none of np.histogram's corrections against the
    # edges: 16 is a power of two, so x * 16 is exact for every x (short of
    # overflow, which the clip absorbs), as is every edge k / 16, and
    # x >= k / 16 iff x * 16 >= k.
    scaled = flat * _TOKEN_BINS
    np.clip(scaled, 0.0, _TOKEN_BINS - 1, out=scaled)
    idx = scaled.astype(np.intp)
    idx += _TOKEN_BINS * np.arange(k)[:, None]
    out = np.empty((k, _TOKEN_BINS + 2))
    out[:, :_TOKEN_BINS] = np.bincount(
        idx.ravel(), minlength=k * _TOKEN_BINS
    ).reshape(k, _TOKEN_BINS)
    # flat.mean(axis=1) and flat.var(axis=1) in the operations they run, in
    # their order, with the mean summed once for both.
    pixels = flat.shape[1]
    mean = np.divide(flat.sum(axis=1), pixels, out=out[:, _TOKEN_BINS])
    deviation = flat - mean[:, None]
    np.square(deviation, out=deviation)
    np.divide(deviation.sum(axis=1), pixels, out=out[:, _TOKEN_BINS + 1])
    return out


def topk_ascending(candidates, energies, k):
    """The first k candidate indices by ascending energy, ties row-major, as
    an ``intp`` array; empty when there are no candidates or k <= 0.

    ``energies`` is indexed by flat patch index, so candidates may be any
    subset of positions.
    """
    cand = np.asarray(candidates, dtype=np.intp)
    if cand.size == 0 or k <= 0:
        return np.empty(0, dtype=np.intp)
    e = np.asarray(energies, dtype=np.float64).ravel()
    order = np.lexsort((cand, e[cand]))
    return cand[order[: min(int(k), cand.size)]]


class _Analysis(NamedTuple):
    """What ``decide`` reads of one frame, from :func:`_analyse`: the
    read-only ``complex64`` half spectrum of the frame at unit scale, the
    read-only amplitude of its own, the power of its full spectrum (the
    squared norm ``sim_freq`` and the entropy take from it), whether it
    is constant, and the exponent k of the power of two 2^k that scaled the
    frame (0 for a frame left as it is)."""

    spectrum: np.ndarray
    amplitude: np.ndarray
    power: float
    constant: bool
    scale_exponent: int


def _analyse(frame):
    """The :class:`_Analysis` of a :func:`frame_array` result; ValueError
    if it holds a non-finite value.

    One ``min`` and one ``max`` tell finiteness, constancy and scale. A
    frame whose largest magnitude has a binary exponent e (as
    :func:`math.frexp` gives it) outside [-16, 16] is analysed scaled by
    2^-e into [0.5, 1), so no stage overflows and no power or energy
    underflows to zero; the scale commutes with every operation ``decide``
    runs, unless it rounds the smallest values to subnormals. A frame
    inside the window keeps every bit, and only its ``complex64`` spectrum
    is scaled by 2^-e, after the amplitude and the power are taken, so
    phase correlation always reads the spectrum at unit scale and its
    ``CROSS_POWER_EPS`` floor is relative to the frames.
    """
    lo, hi = np.min(frame), np.max(frame)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("frame contains non-finite values")
    exponent = math.frexp(max(-lo, hi))[1]
    scale_exponent = 0
    if not -16 <= exponent <= 16:
        scale_exponent, exponent = -exponent, 0
        frame = np.ldexp(frame, scale_exponent)
    spectrum, amplitude, power = _half_spectrum(frame)
    spectrum = spectrum.astype(np.complex64)
    if exponent:
        spectrum *= 2.0 ** -exponent
    spectrum.flags.writeable = False
    amplitude.flags.writeable = False
    return _Analysis(spectrum, amplitude, power, bool(lo == hi), scale_exponent)


def _half_spectrum(frame):
    """The ``rfft2`` half spectrum of a frame, its amplitude, and the power
    of the full spectrum it stands for."""
    spectrum = scipy.fft.rfft2(frame)
    amplitude = np.abs(spectrum)
    return spectrum, amplitude, bin_dot(
        amplitude, amplitude, hermitian_weights(frame.shape[1]))


class _LastFrame(threading.local):
    """The last ``curr`` that ``decide`` analysed on this thread: its bits,
    in a buffer reused while the frame shape stays, its analysis, and the
    readings steps have taken of it (see :func:`_reading`)."""

    bits = None
    analysis = None
    reads = None


_last = _LastFrame()


def _same_bits(frame, bits, patch_size):
    """Whether the float64 ``frame`` holds exactly ``bits``, a float64 array
    or None. The middle element, then the top-left element of each
    ``patch_size`` patch, are compared first, so a frame that differs there
    skips the whole compare."""
    if bits is None or frame.shape != bits.shape:
        return False
    held, bits = frame.view(np.uint64), bits.view(np.uint64)
    middle = (frame.shape[0] // 2, frame.shape[1] // 2)
    lattice = np.s_[::patch_size, ::patch_size]
    return bool(held[middle] == bits[middle]
                and (held[lattice] == bits[lattice]).all()
                and (held == bits).all())


def _reading(key, compute):
    """The carried frame's reading under ``key``: ``compute()`` on first
    use, kept until the carry takes a new frame."""
    reads = _last.reads
    if key not in reads:
        reads[key] = compute()
    return reads[key]


def decide(prev, curr, cfg, *, step=0):
    """Decide which patches of ``curr`` may reuse cached tokens.

    The migration, budget, and edge analyses are independent and join at a
    single synchronization point before token selection; the spectral ones
    read ``rfft2`` half spectra. Each new frame is scanned once for
    finiteness, constancy and scale, and analysed near unit scale (see
    :func:`_analyse`), so no stage overflows or underflows at any scale.

    This thread carries the last ``curr`` it analysed: its float64 bits,
    its analysis, and the readings taken of it. A ``prev`` whose
    :func:`frame_array` coercion holds exactly the carried bits, whatever
    its dtype, takes the carried analysis, and a ``curr`` holding the bits
    of such a ``prev`` takes it too, with the carried entropy and patch
    energies and displacement (0, 0), where equal spectra correlate
    highest (ties go to the smallest shift); any other ``curr`` is
    analysed and carried. The patch grid is always the caller's ``curr``
    at the analysed scale, and the gate, alignment, budget, refresh mask
    and selection run on every step. Degenerate inputs (a frame whose
    spectrum has no power, or a constant frame) force a flush with a
    diagnostic instead of raising, so a black frame cannot abort a
    sequence; the analyses they make undefined keep their defaults.
    """
    t0 = time.perf_counter_ns()
    prev = frame_array(prev)
    bits = frame_array(curr)  # the caller's values, which the carry keeps
    if prev.shape != bits.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {bits.shape}")
    a_prev = a_curr = None
    if _same_bits(prev, _last.bits, cfg.patch_size):
        a_prev = _last.analysis
        if _same_bits(bits, prev, cfg.patch_size):
            a_curr = a_prev
    repeat = a_curr is not None
    timings = {"intake": (time.perf_counter_ns() - t0) // 1000}

    t0 = time.perf_counter_ns()
    if not repeat:
        a_curr = _analyse(bits)
    curr = bits
    if a_curr.scale_exponent:
        curr = np.ldexp(bits, a_curr.scale_exponent)
    grid = PatchGrid._of_valid(curr, cfg.patch_size)
    n = grid.n_patches
    if a_prev is None:
        a_prev = _analyse(prev)
    if not repeat:
        if _last.bits is None or _last.bits.shape != bits.shape:
            _last.bits = np.empty(bits.shape)
        np.copyto(_last.bits, bits)
        _last.analysis, _last.reads = a_curr, {}
    weights = hermitian_weights(curr.shape[1])
    timings["transform"] = (time.perf_counter_ns() - t0) // 1000

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
        sim = sim_freq(a_prev.amplitude, a_curr.amplitude, weights,
                       powers=(a_prev.power, a_curr.power))
        # Release prev's amplitude before the correlation allocates its
        # inverse, which can then reuse those bytes instead of fresh pages.
        spectrum_prev, a_prev = a_prev.spectrum, None
        if not repeat:  # equal spectra correlate highest at (0, 0)
            disp = phase_correlation_spectra(spectrum_prev, a_curr.spectrum,
                                             curr.shape, cfg.patch_size)
        align = alignment_mask(disp, grid)
        timings["migration"] = (time.perf_counter_ns() - t0) // 1000

    entropy = EntropyReading(0.0, 0.0)
    alpha, k_reuse = 0.0, 0
    if a_curr.power > 0.0:
        t0 = time.perf_counter_ns()
        entropy = _reading("entropy", lambda: spectral_entropy(
            a_curr.amplitude, weights, power=a_curr.power))
        alpha, k_reuse = reuse_budget(entropy.normalized, cfg, n)
        timings["budget"] = (time.perf_counter_ns() - t0) // 1000

    t0 = time.perf_counter_ns()
    energies = _reading(grid.patch_size, lambda: patch_energy(grid))
    energies.flags.writeable = False
    fresh = refresh_mask(energies, cfg.edge_lambda)
    timings["edge"] = (time.perf_counter_ns() - t0) // 1000

    # Synchronization point: all three analyses have completed.
    t0 = time.perf_counter_ns()
    flushed = diagnostic is not None or sim < cfg.tau_mig
    candidates = () if flushed else (align & ~fresh).ravel().nonzero()[0]
    k_candidate = len(candidates)
    k_final = min(k_reuse, k_candidate)
    reuse = topk_ascending(candidates, energies, k_final)
    keep = np.ones(n, dtype=bool)
    keep[reuse] = False
    recompute = keep.nonzero()[0]
    timings["select"] = (time.perf_counter_ns() - t0) // 1000

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
        reuse_set=tuple(reuse.tolist()),
        recompute_set=tuple(recompute.tolist()),
        rows=grid.rows,
        cols=grid.cols,
        refresh_set=tuple(fresh.ravel().nonzero()[0].tolist()),
        diagnostic=diagnostic,
        timings_us=timings,
    )
    t0 = time.perf_counter_ns()
    _check_decision(decision, align, fresh, reuse, recompute)
    timings["check"] = (time.perf_counter_ns() - t0) // 1000
    return decision


def _check_decision(decision, align, fresh, reuse, recompute):
    """In-run invariants: partition, budget, flush, and safety.

    ``reuse`` and ``recompute`` are the decision's sets as ``intp`` arrays.
    Explicit raises rather than ``assert``, so ``python -O`` keeps them.
    """
    n = decision.rows * decision.cols
    both = np.concatenate((reuse, recompute))
    # n indices, none negative, each of 0 .. n-1 counted once: the counts sum
    # to n over at least n slots, so their least is 1 only then.
    if (both.size != n or both.min() < 0
            or np.bincount(both, minlength=n).min() != 1):
        raise InvariantError("reuse and recompute sets do not partition the patches")
    if not decision.k_final == len(decision.reuse_set) == min(
        decision.k_reuse, decision.k_candidate
    ):
        raise InvariantError("reuse count does not match the budget rule")
    if decision.flushed and decision.k_final != 0:
        raise InvariantError("flushed step must reuse nothing")
    if align is not None:
        unsafe = reuse[~align.ravel()[reuse] | fresh.ravel()[reuse]]
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
    n_reused: int
    n_recomputed: int


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
    flushed decision recomputes every slot. A cache of another grid raises
    ValueError; a reuse index outside the grid or listed twice, or a reused
    slot whose source lies outside it, raises :class:`InvariantError`.
    """
    curr = validate_frame(curr)
    rows, cols = decision.rows, decision.cols
    h, w = curr.shape
    if (min(rows, cols) < 1 or h % rows or w % cols
            or not 2 <= h // rows == w // cols):
        raise ValueError(
            f"decision grid {rows}x{cols} does not tile frame {h}x{w}"
        )
    if cache is not None and not (
            cache.tokens.shape[:2] == cache.ages.shape == (rows, cols)):
        raise ValueError(f"cache grid {cache.tokens.shape[:2]} (ages "
                         f"{cache.ages.shape}) does not match decision grid "
                         f"{rows}x{cols}")
    grid = PatchGrid._of_valid(curr, h // rows)
    n = grid.n_patches

    reuse = np.asarray(
        () if cache is None or decision.flushed else decision.reuse_set,
        dtype=np.int64,
    )
    wrong = (reuse < 0) | (reuse >= n)
    if wrong.any():
        k = int(np.argmax(wrong))
        raise InvariantError(
            f"reuse index {reuse[k]} out of range for {n} patches")
    si = reuse // cols - decision.displacement.di_patches
    sj = reuse % cols - decision.displacement.dj_patches
    outside = (si < 0) | (si >= rows) | (sj < 0) | (sj >= cols)
    if outside.any():
        k = int(np.argmax(outside))
        raise InvariantError(
            f"reuse source ({si[k]}, {sj[k]}) out of bounds for patch {reuse[k]}"
        )
    keep = np.ones(n, dtype=bool)
    keep[reuse] = False
    recompute = np.flatnonzero(keep)
    if recompute.size != n - reuse.size:
        k = reuse[np.argmax(np.bincount(reuse, minlength=n)[reuse] > 1)]
        raise InvariantError(f"reuse index {k} listed more than once")
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
    report = StepReport(n_reused=n - recompute.size,
                        n_recomputed=recompute.size)
    return TokenCache(tokens.reshape(rows, cols, -1), ages.reshape(rows, cols)), report


def stream(frames, cfg):
    """Yield :func:`decide`'s decision for each step 1 .. T-1 of ``frames``;
    a frame it rejects raises ValueError naming its step. A caller with a
    token function applies them with :func:`populate_cache` and :func:`step`.

    ``frames`` may be any iterable. It is walked once, and only the two
    frames of the current step are held, so a lazy sequence such as
    :func:`frameio.load_frames` returns is never in memory whole. Each
    frame is analysed once, whatever its dtype (float64, float32, uint8 or
    nested lists): :func:`decide` carries each ``curr`` to the next step,
    where it is ``prev``, and from the second step on a frame that repeats
    the one before it bit for bit takes that frame's carried analysis and
    readings.
    """
    frames = iter(frames)
    prev = next(frames, None)
    t = 0
    for t, curr in enumerate(frames, 1):
        try:
            decision = decide(prev, curr, cfg, step=t)
        except ValueError as exc:
            raise ValueError(f"step {t}: {exc}") from None
        yield decision
        prev = curr
    if t == 0:
        raise ValueError("need at least 2 frames")


@dataclass
class SequenceReport:
    """Aggregate metrics over the decision steps 1 .. T-1 of a sequence."""

    n_frames: int
    n_tokens: int
    decisions: list
    mean_reuse_ratio: float
    speedup: float
    flush_count: int


def run_sequence(frames, cfg):
    """Fold :func:`stream` over consecutive frames, any iterable of them,
    into aggregate metrics."""
    decisions = list(stream(frames, cfg))
    n = decisions[0].rows * decisions[0].cols
    reuse_ratio, _, speedup = modeled_cost([d.k_final for d in decisions], n)
    return SequenceReport(
        n_frames=len(decisions) + 1,
        n_tokens=n,
        decisions=decisions,
        mean_reuse_ratio=reuse_ratio,
        speedup=speedup,
        flush_count=sum(d.flushed for d in decisions),
    )
