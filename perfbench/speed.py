"""Speed probes that scale wall times to a fixed reference speed.

On a shared host the same code runs up to twice as slowly from one minute
to the next, with the process on the CPU the whole time, so raw medians of
separate runs disagree by more than any useful regression bound. The
benchmark therefore runs two fixed probes after every timed frame, outside
the timed region, and scales each time by how fast the matching probe ran
around it:

* the ``spectral`` probe (a 224x224 FFT, amplitude, cross-power
  normalisation and inverse FFT) scales ``decide``, which is bound by
  transforms and whole-frame array operations;
* the ``token`` probe (a Python loop and small-array histograms) scales
  ``step``, whose per-patch token loop is interpreter-bound.

Each probe slows down with its part of the frame: fitted over 76 blocks of
15 frames spanning fast and slow spells, log frame-part time against log
probe time has slope 0.94-1.09 for ``decide`` and 1.02-1.10 for ``step``.

Set-up time is import-bound and does not follow these probes, so it has a
third: the ``import`` probe, a fresh interpreter importing freqcache's
dependencies (see child.py).

A scaled time is ``raw * REFERENCE_S[kind] / probe_time``: the time the
work would take on a machine where the probe takes ``REFERENCE_S``. The
probes are frozen code that does not touch freqcache, so a change to
freqcache cannot move them.
"""

import statistics
import time

import numpy as np
import scipy.fft

# Bound once, so tracing that wraps scipy.fft never sees the probes.
_fft2 = scipy.fft.fft2
_ifft2 = scipy.fft.ifft2

# Reference probe times in seconds: round values of the order the probes
# take on a 2-core x86-64 host. They fix the unit of scaled figures, which
# are comparable between runs but are not the wall time of any one run.
REFERENCE_S = {"spectral": 2.0e-3, "token": 0.6e-3, "import": 0.27}
# Half-width, in frames, of the window whose median probe time scales a
# frame; wider windows miss the short slow spells that set the p90.
WINDOW = 1


class Probes:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._image = rng.random((224, 224))
        self._patch = rng.random((16, 16))
        self.samples = {"spectral": [], "token": []}

    def _spectral(self):
        spectrum = _fft2(self._image)
        amplitude = np.abs(spectrum)
        cross = spectrum * np.conj(spectrum)
        cross /= np.abs(cross) + 1e-12
        return float(np.dot(amplitude.ravel(), amplitude.ravel())
                     + _ifft2(cross).real.max())

    def _token(self):
        total = 0
        for i in range(4000):
            total += i * i
        for _ in range(10):
            np.histogram(self._patch, bins=16, range=(0.0, 1.0))
        return total

    def sample(self):
        """Time each probe once and keep the times."""
        for kind, probe in (("spectral", self._spectral), ("token", self._token)):
            t0 = time.perf_counter()
            probe()
            self.samples[kind].append(time.perf_counter() - t0)


def factor(kind, probe_times):
    """Scale factor for work done while the probe took ``probe_times``."""
    return REFERENCE_S[kind] / statistics.median(probe_times)


def windowed_factors(kind, probe_times):
    """Per-sample scale factors from a centred running median of probe times."""
    return [factor(kind, probe_times[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(probe_times))]
