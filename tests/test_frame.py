import numpy as np

from freqcache import PatchGrid, default_token_fn


def per_patch(grid, token_fn, indices, frame):
    return [token_fn(grid.patch(*divmod(idx, grid.cols), frame)) for idx in indices]


class TestPatchGridTokens:
    def test_subset_matches_per_patch_calls(self):
        rng = np.random.default_rng(0)
        grid = PatchGrid(rng.random((16, 24)), 4)
        other = rng.random((16, 24))
        indices = [17, 0, 5, 23]
        for frame in (None, other):
            got = grid.tokens(default_token_fn, indices, frame)
            assert got.shape == (4, 18)
            expected = per_patch(grid, default_token_fn, indices, frame)
            assert np.array_equal(got, np.stack(expected))

    def test_default_lists_every_patch_row_major(self):
        frame = np.arange(64.0).reshape(8, 8)
        grid = PatchGrid(frame, 4)
        got = grid.tokens(lambda p: p.ravel())
        expected = per_patch(grid, lambda p: p.ravel(), range(4), None)
        assert np.array_equal(got, np.stack(expected))

    def test_empty_index_list_calls_nothing(self):
        calls = []
        grid = PatchGrid(np.ones((8, 8)), 4)
        got = grid.tokens(lambda p: calls.append(p) or p.ravel(), [])
        assert got.shape == (0, 0)
        assert calls == []
