"""Hermitian weights and the weighted bin sum that let an ``rfft2`` half
spectrum stand for the full frequency grid of a real frame, and the
per-thread scratch region that ``decide``'s stages carve their frame-sized
temporaries from."""

import functools
import math
import threading

import numpy as np

# Offsets of the views within the scratch region are rounded up to this, so
# each view keeps the 16-byte alignment NumPy's allocator gives the region.
_SCRATCH_ALIGN = 16


class _Scratch(threading.local):
    region = None
    # The views handed out for each (shape, dtypes) request since the region
    # was last replaced.
    views = None


_scratch = _Scratch()


def scratch(shape, *dtypes):
    """One array of ``shape`` (a tuple) per dtype, laid end to end in this
    thread's scratch region.

    The region is a ``uint8`` buffer that grows to the largest request made
    on the thread and is never released, so a stream of equal-shape frames
    faults its pages in once instead of on every call. A request repeated
    before the region grows gets the same views back, as a tuple. The
    arrays hold whatever the last request left, and every request hands
    out the same bytes again. So a caller writes them before reading them,
    lets no view of them outlive the call, and calls nothing that requests
    scratch while it holds them.
    """
    key = (shape, dtypes)
    views = _scratch.views
    if views is not None and key in views:
        return views[key]
    count = math.prod(shape)
    starts, end = [], 0
    for dtype in dtypes:
        starts.append(end)
        end += -(-count * np.dtype(dtype).itemsize // _SCRATCH_ALIGN) * _SCRATCH_ALIGN
    region = _scratch.region
    if region is None or region.size < end:
        region = _scratch.region = np.empty(end, np.uint8)
        views = _scratch.views = {}
    views[key] = tuple(region[start:start + count * np.dtype(dtype).itemsize]
                       .view(dtype).reshape(shape)
                       for start, dtype in zip(starts, dtypes))
    return views[key]


@functools.cache
def hermitian_weights(width):
    """Full-grid bins each ``rfft2`` column of a ``width``-wide real frame
    stands for, as a read-only float array of ``width // 2 + 1`` entries,
    one per width.

    Column 0 (DC) and, for even widths, column ``width // 2`` (Nyquist) are
    their own mirror images and count once. Every other column v also
    stands for column ``width - v``, whose bins hold its conjugates, so it
    counts twice. The weights sum to ``width``.
    """
    weights = np.full(width // 2 + 1, 2.0)
    weights[0] = 1.0
    if width % 2 == 0:
        weights[-1] = 1.0
    weights.flags.writeable = False
    return weights


def bin_dot(a, b, weights=None):
    """Sum of ``a * b`` over the frequency bins two equal-shape grids stand
    for.

    With ``weights`` None every entry is one bin. Otherwise the grids are
    ``rfft2`` half spectra and entry (u, v) counts ``weights[v]`` times
    (see :func:`hermitian_weights`).
    """
    if weights is None:
        return float(np.dot(a.ravel(), b.ravel()))
    _check_weights(a, weights)
    return float(np.einsum("ij,ij->j", a, b) @ weights)


def _check_weights(a, weights):
    """Raise ValueError unless ``weights`` holds one weight per column of
    the 2D grid ``a`` (None, one weight per entry, always fits)."""
    if weights is not None and (a.ndim != 2
                                or np.shape(weights) != (a.shape[1],)):
        raise ValueError(
            f"need one weight per column of a 2D grid, got {np.shape(weights)} "
            f"for shape {a.shape}"
        )
