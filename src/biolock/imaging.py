"""Raster primitives shared by the fingerprint and iris pipelines.

Images are immutable value objects wrapping float64/bool numpy arrays in
row-major (height, width) layout.  Intensities live in [0, 1]; 8-bit values
appear only at the PGM I/O boundary.
"""

from __future__ import annotations

import os
import re
import stat
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MalformedHeader, NotRegularFile, TruncatedData, UnsupportedMaxval

FIELD_KINDS = ("orientation", "frequency", "coherence")
MAX_PGM_PIXELS = 2048 * 2048  # decode_pgm refuses larger rasters before allocating them
MAX_PGM_BYTES = MAX_PGM_PIXELS + 64 * 1024  # a PGM file: the pixel cap and a header allowance
_MAX_PGM_DIGITS = 10  # a longer header field cannot pass the pixel cap or the maxval check
MORPH_RADIUS = 2  # mask cleanup: morph_close_open's square element is 2r+1 px wide
BINARIZE_WINDOW = 11  # ridge binarization: adaptive_threshold's square window, in px


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _unchecked(cls, **fields):
    """A ``cls`` dataclass holding ``fields`` as passed: no checks, no copy."""
    (value := object.__new__(cls)).__dict__.update(fields)
    return value


@dataclass(frozen=True)
class GrayImage:
    """Grayscale raster, float64 intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("GrayImage needs a non-empty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("GrayImage intensities must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("GrayImage intensities must lie in [0, 1]")
        object.__setattr__(self, "pixels", _freeze(arr))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @cached_property
    def gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """3x3 Sobel gradients; x increases rightward, y downward.

        Raw signed responses, replicated edges.  Both come from one C-ordered
        padded copy: gx correlates it with [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
        and gy with that kernel's transpose, each adding its six non-zero taps to
        +0.0 in the x kernel's row-major order, -c before +c.  So constant regions
        cancel exactly (a y kernel taken row by row sums -c-2c-c and leaves 1-ulp
        residue), a sum that starts at +0.0 never becomes -0.0, and over finite
        pixels each is bit-identical to a naive nine-tap loop.  Computed on first
        read; the image keeps the read-only pair for as long as it lives.
        """
        h, w = self.pixels.shape
        padded = np.pad(self.pixels, 1, mode="edge")
        gx, gy = np.zeros((h, w)), np.zeros((h, w))
        tap = np.empty((h, w))
        for i, weight in enumerate((1.0, 2.0, 1.0)):
            for out, lo, hi in ((gx, padded[i:i + h, :w], padded[i:i + h, 2:]),
                                (gy, padded[:h, i:i + w], padded[2:, i:i + w])):
                # a product with 1.0 is exact, so those taps are read as they are
                out -= lo if weight == 1.0 else np.multiply(weight, lo, out=tap)
                out += hi if weight == 1.0 else np.multiply(weight, hi, out=tap)
        gx.flags.writeable = gy.flags.writeable = False
        return gx, gy


@dataclass(frozen=True)
class BinaryImage:
    """Boolean raster (mask, binarized image, or skeleton)."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("BinaryImage needs a non-empty 2-D array")
        object.__setattr__(self, "bits", _freeze(arr.astype(bool)))

    @cached_property
    def codes(self) -> np.ndarray:
        """Read-only :func:`neighbour_codes` of the bits, kept from the first read."""
        return _freeze(neighbour_codes(self.bits))

    @cached_property
    def column_depth(self) -> np.ndarray:
        """Per pixel, as read-only int32, the rows to the nearest false pixel or
        frame row in its column (0 on a false pixel), with a column of 0 on each
        side for the frame's; one pass down the rows and one up, kept once read."""
        h = self.bits.shape[0]
        rows = np.arange(1, h + 1, dtype=np.int32)[:, None]  # the frame rows are 0 and h + 1
        above = ~self.bits * rows  # a false pixel's row, else 0
        below = above + self.bits * np.int32(h + 1)
        for r in range(1, h):  # running max down, min up: row by row beats accumulate
            np.maximum(above[r - 1], above[r], out=above[r])
            np.minimum(below[h - r], below[h - r - 1], out=below[h - r - 1])
        return _freeze(np.pad(np.minimum(rows - above, below - rows), ((0, 0), (1, 1))))


@dataclass(frozen=True)
class FloatField:
    """Per-pixel or per-block field of finite reals (orientation/frequency/coherence)."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("FloatField needs a non-empty 2-D array")
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{self.kind} values must be finite")
        if self.kind == "orientation":
            if arr.min() < 0.0 or arr.max() >= np.pi:
                raise ValueError("orientation values must lie in [0, pi)")
        elif self.kind == "frequency":
            if arr.min() < 0.0:
                raise ValueError("frequency values must be >= 0")
        else:
            if arr.min() < 0.0 or arr.max() > 1.0 + 1e-12:
                raise ValueError("coherence values must lie in [0, 1]")
        object.__setattr__(self, "values", _freeze(arr))


# ---------------------------------------------------------------------------
# File and PGM (P5) I/O

def open_regular(path, flags: int, dir_fd=None) -> tuple[int, os.stat_result]:
    """``os.open``, relative to ``dir_fd`` if given, that refuses anything but a regular
    file with :class:`NotRegularFile`: the descriptor and its one ``fstat``."""
    fd = os.open(path, flags, 0o666, dir_fd=dir_fd)
    if not stat.S_ISREG((info := os.fstat(fd)).st_mode):
        os.close(fd)
        raise NotRegularFile(f"{path}: not a regular file")
    return fd, info


def read_regular_file(path, cap: int, dir_fd=None) -> bytes:
    """The bytes of the regular file at ``path``, relative to ``dir_fd`` if given: opened by
    :func:`open_regular` without blocking, so a FIFO fails at once, then one ``pread`` of the
    size its ``fstat`` gave, cut at ``cap`` + 1 bytes, so a longer file fails unread."""
    fd, info = open_regular(path, os.O_RDONLY | os.O_NONBLOCK, dir_fd)
    try:
        data = os.pread(fd, min(info.st_size, cap) + 1, 0)
    finally:
        os.close(fd)
    if len(data) > cap:
        raise TruncatedData(f"{path}: longer than the {cap}-byte cap")
    return data


_PGM_TOKEN = re.compile(rb"^\s*(?:#[^\n]*\n\s*)*(\S+)")


def _read_tokens(data: bytes, count: int):
    """Read whitespace/comment-separated header tokens, return (tokens, offset)."""
    tokens = []
    pos = 0
    for _ in range(count):
        m = _PGM_TOKEN.match(data[pos:])
        if not m:
            raise MalformedHeader("incomplete PGM header")
        tokens.append(m.group(1))
        pos += m.end(1)
    return tokens, pos


def decode_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM (P5, maxval 255) into a GrayImage (v/255 mapping)."""
    if not data.startswith(b"P5"):
        raise MalformedHeader("not a binary PGM (P5) file")
    if not (data[2:3].isspace() or data[2:3] == b"#"):
        raise MalformedHeader("no whitespace after the PGM magic P5")
    tokens, pos = _read_tokens(data[2:], 3)
    if not all(t.isdigit() for t in tokens):
        raise MalformedHeader(f"non-numeric PGM header field in {tokens!r}")
    if max(map(len, tokens)) > _MAX_PGM_DIGITS:
        raise MalformedHeader(f"a PGM header field has more than {_MAX_PGM_DIGITS} digits")
    width, height, maxval = (int(t) for t in tokens)
    if width <= 0 or height <= 0:
        raise MalformedHeader("non-positive dimensions")
    if width * height > MAX_PGM_PIXELS:
        raise MalformedHeader(f"{width}x{height} exceeds the {MAX_PGM_PIXELS}-pixel PGM cap")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval} unsupported (need 255)")
    # exactly one whitespace byte separates the header from the payload
    payload = data[2 + pos + 1:]
    if len(payload) < width * height:
        raise TruncatedData(
            f"payload has {len(payload)} bytes, expected {width * height}"
        )
    raw = np.frombuffer(payload[: width * height], dtype=np.uint8)
    return GrayImage(raw.reshape(height, width).astype(np.float64) / 255.0)


def encode_pgm(img: GrayImage) -> bytes:
    """Encode a GrayImage as binary PGM (P5, maxval 255)."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    payload = np.rint(img.pixels * 255.0).clip(0, 255).astype(np.uint8).tobytes()
    return header + payload


def encode_pgm_raster(raster: np.ndarray) -> bytes:
    """Encode an arbitrary real raster as PGM after min-max scaling to [0, 1]."""
    arr = np.asarray(raster, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        scaled = np.zeros_like(arr)
    else:
        scaled = (arr - lo) / (hi - lo)
    return encode_pgm(GrayImage(scaled))


# ---------------------------------------------------------------------------
# Filtering

def _bilinear(pixels: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample ``pixels`` at float coordinates, clamping to the border."""
    h, w = pixels.shape
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = pixels[y0, x0] * (1 - fx) + pixels[y0, x1] * fx
    bot = pixels[y1, x0] * (1 - fx) + pixels[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def box_mean(a: np.ndarray, size: int) -> np.ndarray:
    """Mean of the 2-D float64 array ``a`` over the ``size``-square about each
    pixel, edges replicated: scipy's ``uniform_filter(a, size, mode="nearest")``
    bit for bit.

    As there, each axis is one running sum, columns first: the first window
    is added in order to 0.0, each step then adds (entering - leaving), and
    each output is that sum divided by ``size``.  Any other order of the same
    additions differs in the last bits.  An even window reaches one pixel
    farther back than forward.
    """
    back = size // 2
    h, w = a.shape

    def edge(n):  # the index each position of an axis padded by the window reads
        return np.clip(np.arange(-back, n + size - 1 - back), 0, n - 1)

    rows, cols = edge(h), edge(w)
    step = max(1, (1 << 16) // (w + size))  # rows per block: bounded scratch
    out = np.empty((h, w))
    run = out[0]
    run[:] = 0.0
    for k in rows[:size]:
        run += a[k]
    for i in range(1, h, step):
        part = out[i:i + step]
        n = len(part)
        np.subtract(a[rows[i + size - 1:i + size - 1 + n]], a[rows[i - 1:i - 1 + n]], out=part)
    for row in out[1:]:  # down the columns, every column at each step
        row += run
        run = row
    out /= size
    for i in range(0, h, step):  # along the rows, one accumulate per block
        part = out[i:i + step]
        padded = part.take(cols, axis=1)
        run = part[:, 0]
        run[:] = 0.0
        for k in range(size):
            run += padded[:, k]
        np.subtract(padded[:, size:], padded[:, :w - 1], out=part[:, 1:])
        np.add.accumulate(part, axis=1, out=part)
    out /= size
    return out


def _square_sweep(bits: np.ndarray, fill: bool) -> np.ndarray:
    """Max (fill False) or min (fill True) of a boolean raster over the
    (2 * MORPH_RADIUS + 1)-square centred on each pixel, pixels beyond the
    border reading as ``fill``: one 1-D OR/AND sweep along the rows of a
    padded copy, then one down its columns."""
    combine = np.logical_and if fill else np.logical_or
    h, w = bits.shape
    padded = np.pad(bits, MORPH_RADIUS, mode="constant", constant_values=fill)
    rows = padded[:, :w].copy()
    for k in range(1, 2 * MORPH_RADIUS + 1):
        combine(rows, padded[:, k:k + w], out=rows)
    out = rows[:h].copy()
    for k in range(1, 2 * MORPH_RADIUS + 1):
        combine(out, rows[k:k + h], out=out)
    return out


def morph_close_open(mask: BinaryImage) -> BinaryImage:
    """Morphological closing then opening with the square element of radius
    MORPH_RADIUS.

    Pixels beyond the border count as background for dilation and as
    foreground for erosion, so an all-true mask is a fixed point.
    """
    def dilate(b):
        return _square_sweep(b, fill=False)

    def erode(b):
        return _square_sweep(b, fill=True)

    closed = erode(dilate(mask.bits))
    opened = dilate(erode(closed))
    return BinaryImage(opened)


def adaptive_threshold(raster: np.ndarray) -> BinaryImage:
    """Pixel true iff its value exceeds the local mean over the
    BINARIZE_WINDOW square, edges replicated.

    Ties go to false; a tiny epsilon absorbs float round-off so a constant
    image stays all-false.
    """
    arr = np.asarray(raster, dtype=np.float64)
    local_mean = box_mean(arr, BINARIZE_WINDOW)
    return BinaryImage(arr > local_mean + 1e-12)


# ---------------------------------------------------------------------------
# 8-neighbourhoods and thinning

# Clockwise from north, as (dx, dy) with y down: N NE E SE S SW W NW.
NEIGHBOUR_OFFSETS = ((0, -1), (1, -1), (1, 0), (1, 1),
                     (0, 1), (-1, 1), (-1, 0), (-1, -1))


def neighbour_codes(bits: np.ndarray) -> np.ndarray:
    """Per-pixel uint8 code of the 8-neighbourhood: bit i is set when
    neighbour i of NEIGHBOUR_OFFSETS is foreground.  Pixels beyond the
    border count as background."""
    p = np.pad(bits, 1).view(np.uint8)
    h, w = bits.shape
    codes = np.zeros((h, w), dtype=np.uint8)
    for i, (dx, dy) in enumerate(NEIGHBOUR_OFFSETS):
        codes |= p[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] << i
    return codes


def crossing_number(neighborhood) -> int:
    """Half the sum of absolute differences around the 8-neighborhood.

    `neighborhood` lists the 8 neighbor values in cyclic order; the result
    counts ridge arms: 1 = ending, 2 = interior ridge, 3 = bifurcation.
    """
    vals = [1 if v else 0 for v in neighborhood]
    if len(vals) != 8:
        raise ValueError("neighborhood must have exactly 8 entries")
    return sum(abs(vals[i] - vals[i - 1]) for i in range(8)) // 2


_CODE_BITS = [(np.arange(256) >> i) & 1 for i in range(8)]
CROSSING_NUMBERS = np.array([crossing_number(hood) for hood in zip(*_CODE_BITS)],
                            dtype=np.uint8)


def _deletion_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per neighbour code, whether each subiteration of `thin` deletes the
    pixel: Zhang & Suen's rule, but with 3..6 set neighbours instead of 2..6,
    because two set neighbours in one run (crossing number 1) are a line tip."""
    p2, p3, p4, p5, p6, p7, p8, p9 = _CODE_BITS
    b = sum(_CODE_BITS)
    cond = (b >= 3) & (b <= 6) & (CROSSING_NUMBERS == 1)
    return (cond & (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0),
            cond & (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0))


_THIN_DELETE = _deletion_tables()


def thin(img: BinaryImage) -> BinaryImage:
    """Two-subiteration parallel thinning, iterated until stable.

    Deletes only foreground pixels, so the result is always a subset of the
    input, and a stable result re-thins to itself.  Pixels with exactly two
    set neighbours that are cyclically adjacent (exposed line tips) are kept;
    without that guard the classic subiteration pair eats an extra pixel off
    stroke ends, shortening a 20-long bar below 18.  A subiteration reads only
    pixels that can go, so it deletes what a full scan would: no table holds
    eight set neighbours, and a pixel with no neighbour gone in the last two
    subiterations has the code with which its phase last kept it.
    """
    # the framed image, flat: a deletion clears its bit (i + 4) % 8 in neighbour
    # i's code, and the frame absorbs the writes that leave the image
    bits = np.pad(img.bits, 1)
    flat, codes = bits.ravel(), np.pad(neighbour_codes(img.bits), 1).ravel()
    steps = [(dy * bits.shape[1] + dx, np.uint8(0xFF ^ 1 << (i + 4) % 8))
             for i, (dx, dy) in enumerate(NEIGHBOUR_OFFSETS)]
    near = [flat & (codes != 0xFF)] * 2  # next to each of the last two deletions
    idle = phase = 0
    while idle < 2:  # two subiterations in a row without a deletion: stable
        live = np.flatnonzero((near[0] | near[1]) & flat)
        gone = live[_THIN_DELETE[phase][codes[live]]]
        idle = 0 if len(gone) else idle + 1
        flat[gone] = False
        near = [near[1], np.zeros_like(flat)]
        for step, keep in steps:
            codes[gone + step] &= keep
            near[1][gone + step] = True
        phase ^= 1
    return BinaryImage(bits[1:-1, 1:-1])
