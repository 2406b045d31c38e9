import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcache import PatchGrid, default_token_fn
from freqcache.frame import TOKEN_CHUNK_PIXELS
from freqcache.fusion import _TOKEN_BINS

from oracles import default_token_fn_reference, histogram_token

# default_token_fn's bin edges over [0, 1].
EDGES = np.linspace(0.0, 1.0, _TOKEN_BINS + 1)
# Exact bin edges and -0.0, their floating-point neighbours, values outside
# [0, 1] and plain values inside it.
PIXELS = st.one_of(
    st.sampled_from([float(e) for e in EDGES] + [-0.0]),
    st.sampled_from([float(np.nextafter(e, side))
                     for e in EDGES for side in (-np.inf, np.inf)]),
    st.floats(-2.0, 3.0, allow_nan=False),
    st.floats(0.0, 1.0),
)


def view_tokens(grid, token_fn, indices):
    """One call per listed patch, on its (P, P) view of the frame."""
    p = grid.patch_size
    views = []
    for idx in indices:
        i, j = divmod(int(idx), grid.cols)
        views.append(grid.frame[i * p:(i + 1) * p, j * p:(j + 1) * p])
    return np.stack([np.ravel(token_fn(view)) for view in views])


def per_patch(fn):
    """A batched token function that calls ``fn`` on each (P, P) patch."""
    return lambda patches: np.stack([np.ravel(fn(p)) for p in patches])


class TestDefaultTokenFn:
    @given(p=st.sampled_from([2, 3, 8, 16, 32]), rows=st.integers(1, 2),
           cols=st.integers(1, 3), palette=st.lists(PIXELS, min_size=1,
                                                     max_size=24),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_batched_matches_per_patch_histogram(self, p, rows, cols,
                                                 palette, seed):
        rng = np.random.default_rng(seed)
        frame = rng.choice(np.array(palette), size=(rows * p, cols * p))
        grid = PatchGrid(frame, p)
        got = grid.tokens(default_token_fn)
        expected = view_tokens(grid, histogram_token, range(grid.n_patches))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("p", [2, 3, 8, 16])
    def test_equals_the_clip_scale_minimum_reference_bit_for_bit(self, p):
        # Edges and their neighbours, -0.0, subnormals, values far outside
        # [0, 1] (1e300 scales past float64's range) and plain values.
        specials = np.array(
            [float(e) for e in EDGES]
            + [float(np.nextafter(e, side))
               for e in EDGES for side in (-np.inf, np.inf)]
            + [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7e308, -1.7e308,
               2.0, -1.0, 16.0, 15.0 / 16.0])
        rng = np.random.default_rng(p)
        for trial in range(200):
            stack = rng.random((int(rng.integers(1, 40)), p, p)) * 1.5 - 0.25
            mask = rng.random(stack.shape) < rng.choice([0.0, 0.1, 0.5, 1.0])
            stack[mask] = rng.choice(specials, size=int(mask.sum()))
            # the variance of a stack holding +-1e300 overflows in both
            with np.errstate(over="ignore", invalid="ignore"):
                got = default_token_fn(stack)
                expected = default_token_fn_reference(stack)
            assert got.tobytes() == expected.tobytes(), trial

    def test_scaled_bin_edges_are_exact(self):
        # default_token_fn bins by truncating x * 16 with no correction
        # against the edges; that is exact only while every edge scales to
        # its integer exactly.
        assert np.array_equal(EDGES * _TOKEN_BINS, np.arange(17))


class TestPatchGridTokens:
    def test_subset_matches_per_patch_calls(self):
        rng = np.random.default_rng(0)
        indices = [17, 0, 5, 23]
        for _ in range(2):
            grid = PatchGrid(rng.random((16, 24)), 4)
            got = grid.tokens(default_token_fn, indices)
            assert got.shape == (4, 18)
            expected = grid.tokens(per_patch(histogram_token), indices)
            assert np.array_equal(got, expected)
            assert np.array_equal(
                got, view_tokens(grid, histogram_token, indices))

    def test_default_lists_every_patch_row_major(self):
        frame = np.arange(64.0).reshape(8, 8)
        grid = PatchGrid(frame, 4)
        got = grid.tokens(lambda p: p.ravel())
        expected = grid.tokens(per_patch(lambda p: p.ravel()))
        assert np.array_equal(got, expected)
        assert np.array_equal(got, view_tokens(grid, np.ravel, range(4)))

    def test_empty_index_list_calls_nothing(self):
        calls = []
        grid = PatchGrid(np.ones((8, 8)), 4)
        got = grid.tokens(lambda p: calls.append(p) or p.ravel(), [])
        assert got.shape == (0, 0)
        assert calls == []

    @pytest.mark.parametrize("indices", [[0, 4], [-1]])
    def test_out_of_range_index_rejected(self, indices):
        grid = PatchGrid(np.ones((8, 8)), 4)
        with pytest.raises(IndexError, match="patch indices"):
            grid.tokens(default_token_fn, indices)

    @pytest.mark.parametrize("p", [3, 8, 16, 32])
    def test_chunk_boundaries(self, p):
        chunk = max(1, TOKEN_CHUNK_PIXELS // p**2)
        side = math.isqrt(chunk + 1) + 1  # at least chunk + 2 patches
        rng = np.random.default_rng(p)
        grid = PatchGrid(rng.random((side * p, side * p)) * 1.2 - 0.1, p)
        n = grid.n_patches
        order = rng.permutation(n)
        sizes = []

        def spy(patches):
            sizes.append(len(patches))
            return default_token_fn(patches)

        for count in (0, 1, chunk - 1, chunk, chunk + 1, n):
            indices = order[:count]
            got = grid.tokens(spy, indices)
            if count == 0:
                assert got.shape == (0, 0)
                continue
            expected = grid.tokens(per_patch(histogram_token), indices)
            assert np.array_equal(got, expected)
            assert np.array_equal(
                got, view_tokens(grid, histogram_token, indices))
        assert 0 < min(sizes) and max(sizes) == chunk
