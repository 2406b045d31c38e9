"""Frame file I/O and mask export.

Supported formats:

* binary PGM (P5, maxval 255): pixel bytes map to reals in [0, 1] by /255.
* binary PPM (P6, maxval 255): reduced to grayscale with BT.601 luma weights.
* rawf32: 16-byte header (magic ``FQC1``, then u32 height, width, frame
  count, little-endian) followed by ``T*H*W`` little-endian float32 values.

Parse failures report the byte offset at which the file became unreadable.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import FrameParseError
from .frame import validate_frame
from .records import decision_record

RAWF32_MAGIC = b"FQC1"
RAWF32_HEADER = 16

# BT.601 luma weights for color reduction.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def _tokenize_netpbm(data, count, path):
    """First ``count`` whitespace/comment-delimited header tokens and the
    offset just past the single whitespace byte that ends the header."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise FrameParseError(f"{path}: truncated header", offset=pos)
        byte = data[pos:pos + 1]
        if byte.isspace():
            pos += 1
        elif byte == b"#":
            while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    if pos >= len(data):
        raise FrameParseError(f"{path}: missing pixel data", offset=pos)
    return tokens, pos + 1  # consume the single whitespace after maxval


def read_netpbm(path):
    """Read a P5 (grayscale) or P6 (color, luma-reduced) image as a frame."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 2:
        raise FrameParseError(f"{path}: file too short", offset=len(data))
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise FrameParseError(f"{path}: unsupported magic {magic!r}", offset=0)
    tokens, payload_at = _tokenize_netpbm(data, 4, path)
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise FrameParseError(f"{path}: non-numeric header field", offset=2)
    if width < 1 or height < 1:
        raise FrameParseError(f"{path}: invalid dimensions {width}x{height}",
                              offset=2)
    if maxval != 255:
        raise FrameParseError(f"{path}: only maxval 255 supported, got {maxval}",
                              offset=2)
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    payload = data[payload_at:payload_at + expected]
    if len(payload) < expected:
        raise FrameParseError(
            f"{path}: truncated pixel data, expected {expected} bytes",
            offset=payload_at + len(payload),
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    if channels == 1:
        gray = pixels.reshape(height, width)
    else:
        rgb = pixels.reshape(height, width, 3)
        gray = (LUMA_WEIGHTS[0] * rgb[..., 0] + LUMA_WEIGHTS[1] * rgb[..., 1]
                + LUMA_WEIGHTS[2] * rgb[..., 2])
    return gray / 255.0


def write_pgm(path, values):
    """Write a grayscale image as binary P5 with maxval 255.

    Accepts uint8 data as-is; float data is clipped to [0, 1] and quantized.
    """
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2D, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.round(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def save_rawf32(path, frames):
    """Write frames as a rawf32 container (float32 little-endian payload)."""
    stack = np.stack([validate_frame(f) for f in frames]).astype("<f4")
    t, h, w = stack.shape
    with open(path, "wb") as fh:
        fh.write(RAWF32_MAGIC)
        fh.write(struct.pack("<III", h, w, t))
        fh.write(stack.tobytes())


def load_rawf32(path):
    path = Path(path)
    data = path.read_bytes()
    if len(data) < RAWF32_HEADER:
        raise FrameParseError(f"{path}: truncated rawf32 header", offset=len(data))
    if data[:4] != RAWF32_MAGIC:
        raise FrameParseError(
            f"{path}: bad magic {data[:4]!r}, expected {RAWF32_MAGIC!r}", offset=0
        )
    height, width, count = struct.unpack("<III", data[4:16])
    if height < 1 or width < 1 or count < 1:
        raise FrameParseError(
            f"{path}: invalid header dimensions {height}x{width}x{count}", offset=4
        )
    expected = RAWF32_HEADER + 4 * height * width * count
    if len(data) < expected:
        raise FrameParseError(
            f"{path}: truncated rawf32 payload, expected {expected} bytes",
            offset=len(data),
        )
    if len(data) > expected:
        raise FrameParseError(f"{path}: trailing bytes after payload",
                              offset=expected)
    values = np.frombuffer(data, dtype="<f4", count=height * width * count,
                           offset=RAWF32_HEADER)
    frames = values.reshape(count, height, width).astype(np.float64)
    for t in range(count):
        if not np.all(np.isfinite(frames[t])):
            raise FrameParseError(f"{path}: frame {t} contains non-finite values")
    return [frames[t] for t in range(count)]


def load_frames(path, fmt="auto"):
    """Load an ordered frame list.

    ``fmt`` may be ``rawf32``, ``pgm`` (a netpbm file, or a directory of
    them read in sorted order), or ``auto`` to infer from the path.
    """
    path = Path(path)
    if fmt == "auto":
        if path.is_dir():
            fmt = "pgm"
        elif path.suffix.lower() in (".pgm", ".ppm"):
            fmt = "pgm"
        else:
            fmt = "rawf32"
    if fmt == "rawf32":
        return load_rawf32(path)
    if fmt == "pgm":
        if path.is_dir():
            files = sorted(
                p for p in path.iterdir()
                if p.suffix.lower() in (".pgm", ".ppm")
            )
            if not files:
                raise FrameParseError(f"{path}: no .pgm/.ppm files found")
            return [read_netpbm(p) for p in files]
        return [read_netpbm(path)]
    raise ValueError(f"unknown format {fmt!r}")


# Pixel levels for exported decision masks.
MASK_REUSED = 255
MASK_EDGE_RECOMPUTE = 128
MASK_RECOMPUTE = 0


def export_masks(decisions, out_dir):
    """Write one patch-resolution PGM per decision.

    Reused patches render 255, edge-forced recomputes 128, everything else
    0; flushed steps render all-zero. Accepts decision objects or JSONL
    dicts. Returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for d in decisions:
        rec = d if isinstance(d, dict) else decision_record(d)
        rows = rec["grid"]["rows"]
        cols = rec["grid"]["cols"]
        img = np.zeros((rows, cols), dtype=np.uint8)
        if not rec["flushed"]:
            flat = img.ravel()
            flat[list(rec["refresh_set"])] = MASK_EDGE_RECOMPUTE
            flat[list(rec["reuse_set"])] = MASK_REUSED
        path = out_dir / f"step_{rec['step']:05d}.pgm"
        write_pgm(path, img)
        paths.append(path)
    return paths
