"""Frame validation and patch-grid geometry."""

import numpy as np

# Pixels per token_fn call in PatchGrid.tokens. Bounded chunks keep the
# gathered stack and its temporaries small: large fresh allocations page-
# fault on every step, which cost more than the extra calls.
TOKEN_CHUNK_PIXELS = 64 * 16 * 16


def frame_array(data):
    """Coerce input to a 2D float64 grid, rejecting empty data; unlike
    :func:`validate_frame`, it does not scan the values."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"frame must be 2D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"frame dimensions must be >= 1, got {arr.shape}")
    return arr


def validate_frame(data):
    """Coerce input to a 2D float64 grid, rejecting empty or non-finite data."""
    arr = frame_array(data)
    if not np.all(np.isfinite(arr)):
        raise ValueError("frame contains non-finite values")
    return arr


def grid_shape(shape, patch_size):
    """Rows and columns of the ``patch_size`` patches that tile a frame of
    ``shape``; ValueError unless the patch size is at least 2 and divides
    both dimensions."""
    if patch_size < 2:
        raise ValueError(f"patch size must be >= 2, got {patch_size}")
    height, width = shape
    if height % patch_size or width % patch_size:
        raise ValueError(
            f"patch size {patch_size} does not divide frame dimensions "
            f"{height}x{width}"
        )
    return height // patch_size, width // patch_size


class PatchGrid:
    """Partition of a frame into non-overlapping square patches.

    The patch size must divide both frame dimensions exactly; frames that do
    not tile evenly are rejected so per-patch statistics stay unbiased.
    Patch (i, j) covers pixel rows [i*P, (i+1)*P) and columns [j*P, (j+1)*P);
    its row-major index is i * cols + j.
    """

    def __init__(self, frame, patch_size):
        self._tile(validate_frame(frame), patch_size)

    @classmethod
    def _of_valid(cls, frame, patch_size):
        """Grid over a frame that :func:`validate_frame` already returned."""
        grid = cls.__new__(cls)
        grid._tile(frame, patch_size)
        return grid

    def _tile(self, frame, patch_size):
        self.patch_size = int(patch_size)
        self.rows, self.cols = grid_shape(frame.shape, self.patch_size)
        self.frame = frame

    @property
    def n_patches(self):
        return self.rows * self.cols

    def blocks(self):
        """All patches as a (rows, cols, P, P) view."""
        p = self.patch_size
        return self.frame.reshape(self.rows, p, self.cols, p).swapaxes(1, 2)

    def tokens(self, token_fn, indices=None):
        """Token vectors of the listed patches as a (k, dim) float64 array.

        ``indices`` are row-major patch indices (default: every patch in
        order). ``token_fn`` takes a (k, P, P) stack of patches and returns
        k * dim values, read as (k, dim); it is called on consecutive chunks
        of at most ``TOKEN_CHUNK_PIXELS // P**2`` patches (at least one),
        never on an empty stack. A function of one (P, P) patch applies over
        the stack as ``lambda ps: np.stack([fn(p) for p in ps])``. An empty
        list gives shape (0, 0).
        """
        blocks = self.blocks()
        if indices is None:
            indices = np.arange(self.n_patches)
        indices = np.asarray(indices, dtype=np.intp).ravel()
        n = self.n_patches
        if indices.size and not 0 <= indices.min() <= indices.max() < n:
            raise IndexError(
                f"patch indices must lie in [0, {n}), got "
                f"{indices.min()}..{indices.max()}"
            )
        chunk = max(1, TOKEN_CHUNK_PIXELS // self.patch_size ** 2)
        vecs = []
        for start in range(0, indices.size, chunk):
            i, j = np.divmod(indices[start:start + chunk], self.cols)
            # Fancy indexing gathers only the listed patches; reshaping the
            # swapped view instead would copy the whole frame.
            out = np.asarray(token_fn(blocks[i, j]), dtype=np.float64)
            vecs.append(out.reshape(i.size, -1))
        return np.concatenate(vecs) if vecs else np.empty((0, 0))

