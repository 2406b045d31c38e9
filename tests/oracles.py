"""Independent slow-path oracles used to pin expected values.

These deliberately restate the transform and search definitions with
explicit loops over output bins so they share nothing with the package
code they check. ``decide_reference`` is the exception: it shares only the
package's data types, frame validation and invariant checks with
``decide``, and rebuilds every analysis from direct definitions.
``phase_correlation_full_spectrum`` is ``phase_correlation_spectra``
inverted on the full spectrum with ``ifft2`` and shares its peak search.
``sim_spatial`` is the visual-domain reference that criterion 2 sets
against ``sim_freq``, and ``phase_correlation_of`` hands two frames to the
package's one displacement estimator. ``sim_freq_scanned`` and
``spectral_entropy_scanned`` restate ``sim_freq`` and ``spectral_entropy``
with every input check a full scan and the zero bins masked out of the
logarithm; they share the package's weighted bin sum, so they must agree
with it bit for bit. ``patch_energy_scanned`` likewise restates
``patch_energy`` with the flatness test run on every patch.
``default_token_fn_reference`` restates ``default_token_fn`` with its
clip, scale, truncate and ``minimum`` passes and NumPy's ``mean`` and
``var``, and ``decide_validating_first`` runs ``decide`` after scanning both
frames for finiteness up front, as it once did itself.
``impulse_displacement_scanned`` restates the correlation peak search that
scanned the whole response for ties. ``load_rawf32_eager`` restates the
rawf32 loader that read the whole file at once, for the lazy sequence to
match frame by frame, and ``CountingFrames`` wraps frames in that
sequence's interface to count how often each is read.
``count_frame_scans`` counts the whole-frame ``np.isfinite``, ``np.ptp``,
``np.min`` and ``np.max`` scans a run makes.
"""

import math
import struct
from pathlib import Path

import numpy as np
import scipy.fft

from freqcache.budget import EntropyReading
from freqcache.compare import _position_cosines
from freqcache.edge_refresh import _dct_rows, cutoff_index
from freqcache.errors import DegenerateSpectrumError
from freqcache.frame import PatchGrid, validate_frame
from freqcache.frameio import FrameSequence
from freqcache.fusion import CacheDecision, _check_decision, decide
from freqcache.migration import (
    CROSS_POWER_EPS,
    Displacement,
    _canonical,
    _impulse_displacement,
    phase_correlation_spectra,
)
from freqcache.spectral import bin_dot


def load_rawf32_eager(path):
    """Every frame of a well-formed rawf32 file, read whole and converted
    to float64 in one pass, as a list."""
    data = Path(path).read_bytes()
    assert data[:4] == b"FQC1"
    height, width, count = struct.unpack("<III", data[4:16])
    values = np.frombuffer(data, dtype="<f4", count=height * width * count,
                           offset=16)
    frames = values.reshape(count, height, width).astype(np.float64)
    return [frames[t] for t in range(count)]


class CountingFrames(FrameSequence):
    """``frames`` read through :class:`FrameSequence`; ``reads[t]`` counts
    the reads of frame t."""

    def __init__(self, frames):
        shape = (frames.shape if isinstance(frames, FrameSequence)
                 else np.shape(frames[0]))
        super().__init__(len(frames), shape, self._count_read)
        self.frames = frames
        self.reads = [0] * len(frames)

    def _count_read(self, t):
        self.reads[t] += 1
        return self.frames[t]


def count_frame_scans(monkeypatch, shape):
    """Counts, by name, of the ``np.isfinite``, ``np.ptp``, ``np.min`` and
    ``np.max`` calls made from now on over a whole array of ``shape`` (the
    ``ndarray`` methods of the same names are not seen)."""
    scans = {}
    for name in ("isfinite", "ptp", "min", "max"):
        real = getattr(np, name)

        def spy(a, *args, _name=name, _real=real, **kwargs):
            if np.shape(a) == shape:
                scans[_name] = scans.get(_name, 0) + 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return scans


class _AnalysisError(ValueError):
    """An analysis failure decide_reference turns into a flushed decision;
    its message is the decision's diagnostic."""


def naive_dft2(frame):
    """Direct double-loop 2D DFT (unnormalized forward)."""
    f = np.asarray(frame, dtype=np.complex128)
    h, w = f.shape
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    out = np.empty((h, w), dtype=np.complex128)
    for u in range(h):
        for v in range(w):
            phase = np.exp(-2j * np.pi * (u * rows / h + v * cols / w))
            out[u, v] = np.sum(f * phase)
    return out


def naive_dct2(patch):
    """Direct double-sum orthonormal 2D DCT-II."""
    p = np.asarray(patch, dtype=np.float64)
    n = p.shape[0]
    xs = np.arange(n)
    out = np.empty((n, n))
    for u in range(n):
        for v in range(n):
            cu = math.sqrt(1.0 / n) if u == 0 else math.sqrt(2.0 / n)
            cv = math.sqrt(1.0 / n) if v == 0 else math.sqrt(2.0 / n)
            cos_u = np.cos(np.pi * (2 * xs + 1) * u / (2 * n))[:, None]
            cos_v = np.cos(np.pi * (2 * xs + 1) * v / (2 * n))[None, :]
            out[u, v] = cu * cv * np.sum(p * cos_u * cos_v)
    return out


def naive_patch_energy(patch, cutoff):
    """Squared DCT coefficients outside the low-frequency corner, summed."""
    coeffs = naive_dct2(patch)
    total = 0.0
    n = coeffs.shape[0]
    for u in range(n):
        for v in range(n):
            if u < cutoff and v < cutoff:
                continue
            total += coeffs[u, v] ** 2
    return total


def patch_energy_scanned(grid):
    """``patch_energy`` with every patch tested for flatness by a whole-frame
    max == min scan. The projection is restated with the package's DCT rows
    and the same products, so it must agree with ``patch_energy`` bit for
    bit, whichever patches that tests."""
    p = grid.patch_size
    c = cutoff_index(p)
    rows, cols = grid.rows, grid.cols
    dct = _dct_rows(p, c)
    x = grid.frame.reshape(rows, p, cols * p)
    corner = np.matmul(dct, x).reshape(-1, p) @ dct.T
    residual = x - np.matmul(dct.T, (corner @ dct).reshape(rows, c, -1))
    r = residual.reshape(rows, p, cols, p)
    energies = np.einsum("rpqs,rpqs->rq", r, r)
    hi = x.max(axis=1).reshape(rows, cols, p).max(axis=2)
    lo = x.min(axis=1).reshape(rows, cols, p).min(axis=2)
    energies[hi == lo] = 0.0
    return energies


def brute_force_displacement(prev, curr):
    """Best cyclic shift by exhaustive normalized cross-correlation.

    Maximizes NCC(roll(prev, (di, dj)), curr) over every one of the H*W
    cyclic shifts; the winner is wraparound-canonicalized. No FFTs anywhere.
    """
    p = np.asarray(prev, dtype=np.float64)
    c = np.asarray(curr, dtype=np.float64)
    h, w = p.shape
    pc = p - p.mean()
    cc = c - c.mean()
    denom = math.sqrt(float((pc * pc).sum()) * float((cc * cc).sum()))
    if denom == 0.0:
        raise ValueError("constant frame: correlation undefined")

    corr = np.empty((h, w))
    for si in range(h):
        rolled_rows = np.roll(pc, si, axis=0)
        doubled = np.concatenate([rolled_rows, rolled_rows], axis=1)
        # windows[o] = doubled[:, o:o+w]; offset o = w - sj encodes column
        # shift sj, so reading offsets w..1 gives sj = 0..w-1.
        windows = np.lib.stride_tricks.sliding_window_view(doubled, w, axis=1)
        vals = np.einsum("how,hw->o", windows, cc)
        corr[si, :] = vals[w:0:-1]
    corr /= denom

    best_val = -np.inf
    best = (0, 0)
    for si in range(h):
        for sj in range(w):
            di = si - h if 2 * si >= h else si
            dj = sj - w if 2 * sj >= w else sj
            key = (corr[si, sj], -(abs(di) + abs(dj)))
            if key > (best_val, -(abs(best[0]) + abs(best[1]))):
                best_val = corr[si, sj]
                best = (di, dj)
    return best


def histogram_token(patch):
    """One patch's default token the direct way: ``np.histogram`` of the
    clipped pixels, then the mean and variance."""
    p = np.asarray(patch, dtype=np.float64)
    hist, _ = np.histogram(np.clip(p, 0.0, 1.0), bins=16, range=(0.0, 1.0))
    return np.concatenate([hist.astype(np.float64), [p.mean(), p.var()]])


def default_token_fn_reference(patches):
    """``default_token_fn`` as it bins with a clip to [0, 1], a scale by 16,
    a truncation and a ``minimum`` against the last bin, then takes
    NumPy's per-patch ``mean`` and ``var``."""
    a = np.asarray(patches, dtype=np.float64)
    k = a.shape[0]
    flat = a.reshape(k, -1)
    idx = (np.clip(flat, 0.0, 1.0) * 16).astype(np.intp)
    np.minimum(idx, 15, out=idx)
    out = np.empty((k, 18))
    for i in range(k):
        out[i, :16] = np.bincount(idx[i], minlength=16)
    out[:, 16] = flat.mean(axis=1)
    out[:, 17] = flat.var(axis=1)
    return out


def decide_validating_first(prev, curr, cfg, *, step=0):
    """``decide`` on two frames that :func:`validate_frame` has scanned
    first, so a non-finite value raises before any transform runs."""
    return decide(validate_frame(prev), validate_frame(curr), cfg, step=step)


def phase_correlation_full_spectrum(spec_prev, spec_curr, patch_size=1):
    """Phase correlation on precomputed forward spectra of the two frames."""
    cross = spec_prev * np.conj(spec_curr)
    cross /= np.abs(cross) + CROSS_POWER_EPS
    response = scipy.fft.ifft2(cross).real
    di, dj = _impulse_displacement(response)
    return Displacement.from_pixels(di, dj, patch_size)


def impulse_displacement_scanned(response):
    """``migration._impulse_displacement`` as it was before it took one
    ``argmax``: the peak from ``max``, every bin equal to it from a full
    ``==`` scan, and the tie rule over all of them."""
    h, w = response.shape
    peak_value = response.max()
    best_key = None
    best = (0, 0)
    # flatnonzero on the raveled mask is several times faster than argwhere
    for flat in np.flatnonzero(response == peak_value).tolist():
        pi, pj = divmod(flat, w)
        di = _canonical(-pi % h, h)
        dj = _canonical(-pj % w, w)
        key = (abs(di) + abs(dj), pi, pj)
        if best_key is None or key < best_key:
            best_key = key
            best = (di, dj)
    return best


def phase_correlation_of(prev, curr, patch_size=1):
    """:func:`phase_correlation_spectra` of two equal-shape frames."""
    return phase_correlation_spectra(scipy.fft.rfft2(prev),
                                     scipy.fft.rfft2(curr),
                                     np.shape(prev), patch_size)


def sim_freq_scanned(amp_prev, amp_curr, weights=None):
    """``sim_freq`` checking both grids for non-finite and then for negative
    entries by full scans before it takes any norm."""
    a = np.asarray(amp_prev, dtype=np.float64)
    b = np.asarray(amp_curr, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("amplitude grids must have equal dimensions")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("amplitude grids contain non-finite values")
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("amplitude grids must be nonnegative")
    norm_a = math.sqrt(bin_dot(a, a, weights))
    norm_b = math.sqrt(bin_dot(b, b, weights))
    if norm_a == 0.0 or norm_b == 0.0:
        raise DegenerateSpectrumError("degenerate spectrum")
    return min(1.0, bin_dot(a, b, weights) / (norm_a * norm_b))


def spectral_entropy_scanned(amplitude, weights=None):
    """``spectral_entropy`` checking the grid by full scans before it takes
    the total, with a zero-power bin's logarithm masked to 0."""
    a = np.asarray(amplitude, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("amplitude grid contains non-finite values")
    if np.any(a < 0.0):
        raise ValueError("amplitude grid must be nonnegative")
    total = bin_dot(a, a, weights)
    bins = a.size if weights is None else a.shape[0] * int(np.sum(weights))
    if bins < 2:
        raise ValueError("amplitude grid must have at least 2 bins")
    if total <= 0.0:
        raise DegenerateSpectrumError("degenerate spectrum")
    p = a * a
    p /= total
    log_p = np.zeros_like(p)
    np.log(p, out=log_p, where=p > 0.0)
    raw = -bin_dot(p, log_p, weights) + 0.0
    return EntropyReading(raw, raw / math.log(bins))


def sim_spatial(prev, curr, patch_size, token_fn):
    """Mean position-wise cosine similarity between patch embeddings.

    The naive visual-domain score: each patch is compared only with the
    patch at the same grid position in the other frame, so any content
    shift drags it down. ``token_fn`` embeds a (k, P, P) stack of patches;
    a zero-norm embedding contributes 0 to the mean.
    """
    if np.shape(prev) != np.shape(curr):
        raise ValueError(f"frame shapes differ: {np.shape(prev)} vs "
                         f"{np.shape(curr)}")
    a, b = (PatchGrid(f, patch_size).tokens(token_fn) for f in (prev, curr))
    return float(_position_cosines(a, b).mean())


def population_stats(values):
    """Mean and population (divide-by-N) standard deviation."""
    vals = [float(v) for v in np.asarray(values).ravel()]
    n = len(vals)
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / n
    return mean, math.sqrt(var)


def shannon_entropy_nats(probabilities):
    """-sum p ln p with zero-probability terms contributing nothing."""
    total = 0.0
    for p in np.asarray(probabilities).ravel():
        if p > 0.0:
            total -= float(p) * math.log(float(p))
    return total


def cosine(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.dot(a, b)) / (
        math.sqrt(float(np.dot(a, a))) * math.sqrt(float(np.dot(b, b)))
    )


def assert_decision_equivalence(fast, ref, tol=1e-9):
    """Field-by-field agreement between two decisions.

    Discrete fields must match exactly; float fields computed through
    different transform paths must agree within ``tol``.
    """
    assert fast.step == ref.step
    assert fast.flushed == ref.flushed
    assert fast.displacement == ref.displacement
    assert fast.rows == ref.rows and fast.cols == ref.cols
    assert fast.k_reuse == ref.k_reuse
    assert fast.k_candidate == ref.k_candidate
    assert fast.k_final == ref.k_final
    assert fast.reuse_set == ref.reuse_set
    assert fast.recompute_set == ref.recompute_set
    assert fast.refresh_set == ref.refresh_set
    assert fast.diagnostic == ref.diagnostic
    assert abs(fast.sim_freq - ref.sim_freq) <= tol
    assert abs(fast.alpha_t - ref.alpha_t) <= tol
    assert abs(fast.entropy.raw - ref.entropy.raw) <= tol
    assert abs(fast.entropy.normalized - ref.entropy.normalized) <= tol


def decide_reference(prev, curr, cfg, *, step=0):
    """Slow twin of :func:`decide` built from direct-definition transforms
    and a full sort in place of the fast selection.

    Exists for equivalence testing only; it must agree with ``decide``
    field-by-field on every input.
    """
    prev = validate_frame(prev)
    curr = validate_frame(curr)
    if prev.shape != curr.shape:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {curr.shape}")
    grid = PatchGrid(curr, cfg.patch_size)
    n = grid.n_patches
    h, w = curr.shape

    spec_prev = _dft2_direct(prev)
    spec_curr = _dft2_direct(curr)
    amp_prev = np.abs(spec_prev)
    amp_curr = np.abs(spec_curr)

    # Edge analysis (never degenerate): per-patch masked DCT energy.
    p = cfg.patch_size
    cut = cutoff_index(p)
    hp = np.ones((p, p))
    hp[:cut, :cut] = 0.0
    energies = np.empty((grid.rows, grid.cols))
    for i in range(grid.rows):
        for j in range(grid.cols):
            coeffs = hp * _dct2_direct(grid.blocks()[i, j])
            energies[i, j] = float(np.sum(coeffs * coeffs))
    mu = min(max(float(energies.sum()) / n, energies.min()), energies.max())
    sigma = math.sqrt(float(((energies - mu) ** 2).sum()) / n)
    fresh = energies > mu + cfg.edge_lambda * sigma
    refresh_set = tuple(int(q) for q in np.flatnonzero(fresh.ravel()))

    # Mirror decide's stage semantics: a stage that raises contributes only
    # its defaults, even for values it had produced before failing.
    failure = None
    sim = 0.0
    disp = Displacement(0, 0, 0, 0)
    align = None
    try:
        norm_p = math.sqrt(float(np.sum(amp_prev * amp_prev)))
        norm_c = math.sqrt(float(np.sum(amp_curr * amp_curr)))
        if norm_p == 0.0 or norm_c == 0.0:
            raise _AnalysisError("degenerate spectrum")
        stage_sim = min(1.0, float(np.sum(amp_prev * amp_curr)) / (norm_p * norm_c))
        if np.ptp(prev) == 0.0 or np.ptp(curr) == 0.0:
            raise _AnalysisError("no texture; displacement undefined")
        cross = spec_prev * np.conj(spec_curr)
        cross /= np.abs(cross) + CROSS_POWER_EPS
        response = _idft2_direct(cross).real
        peak = response.max()
        best_key = None
        di = dj = 0
        for pi, pj in np.argwhere(response == peak):
            ci = int(-pi) % h
            cj = int(-pj) % w
            ci = ci - h if 2 * ci >= h else ci
            cj = cj - w if 2 * cj >= w else cj
            key = (abs(ci) + abs(cj), int(pi), int(pj))
            if best_key is None or key < best_key:
                best_key = key
                di, dj = ci, cj
        stage_disp = Displacement.from_pixels(di, dj, p)
        stage_align = np.zeros((grid.rows, grid.cols), dtype=bool)
        for i in range(grid.rows):
            for j in range(grid.cols):
                si = i - stage_disp.di_patches
                sj = j - stage_disp.dj_patches
                stage_align[i, j] = 0 <= si < grid.rows and 0 <= sj < grid.cols
        sim, disp, align = stage_sim, stage_disp, stage_align
    except _AnalysisError as exc:
        failure = exc

    entropy = EntropyReading(0.0, 0.0)
    alpha, k_reuse = 0.0, 0
    try:
        power = (amp_curr * amp_curr).ravel()
        total = float(power.sum())
        if total <= 0.0:
            raise _AnalysisError("degenerate spectrum")
        prob = power / total
        raw = float(-np.sum(prob[prob > 0.0] * np.log(prob[prob > 0.0]))) + 0.0
        stage_entropy = EntropyReading(raw, raw / math.log(prob.size))
        stage_alpha = cfg.alpha_min + (
            cfg.alpha_max - cfg.alpha_min
        ) * math.exp(-stage_entropy.normalized)
        entropy = stage_entropy
        alpha = stage_alpha
        k_reuse = int(math.floor(stage_alpha * n))
    except _AnalysisError as exc:
        failure = failure or exc

    if failure is not None:
        flushed, diagnostic = True, str(failure)
        k_candidate, k_final = 0, 0
        reuse = ()
    elif sim < cfg.tau_mig:
        flushed, diagnostic = True, None
        k_candidate, k_final = 0, 0
        reuse = ()
    else:
        flushed, diagnostic = False, None
        e_flat = energies.ravel()
        candidates = [
            q for q in range(n) if align.ravel()[q] and not fresh.ravel()[q]
        ]
        k_candidate = len(candidates)
        k_final = min(k_reuse, k_candidate)
        ranked = sorted(candidates, key=lambda q: (e_flat[q], q))
        reuse = tuple(ranked[:k_final])
    reused = set(reuse)
    recompute = tuple(q for q in range(n) if q not in reused)

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
    )
    _check_decision(decision, align if not flushed else None, fresh,
                    np.array(reuse, dtype=np.intp),
                    np.array(recompute, dtype=np.intp))
    return decision


def _dft_matrix(n):
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def _dft2_direct(frame):
    h, w = frame.shape
    return _dft_matrix(h) @ frame.astype(np.complex128) @ _dft_matrix(w)


def _idft2_direct(spec):
    h, w = spec.shape
    return np.conj(_dft_matrix(h)) @ spec @ np.conj(_dft_matrix(w)) / (h * w)


def _dct2_direct(patch):
    p = patch.shape[0]
    x = np.arange(p)
    basis = np.cos(np.pi * np.outer(np.arange(p), 2 * x + 1) / (2 * p))
    scale = np.full(p, math.sqrt(2.0 / p))
    scale[0] = math.sqrt(1.0 / p)
    c = basis * scale[:, None]
    return c @ patch @ c.T
