"""Raster primitives shared by the fingerprint and iris pipelines.

Images are immutable value objects wrapping float64/bool numpy arrays in
row-major (height, width) layout.  Intensities live in [0, 1]; 8-bit values
appear only at the PGM I/O boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    EvenWindow,
    MalformedHeader,
    TruncatedData,
    UnsupportedMaxval,
)

FIELD_KINDS = ("orientation", "frequency", "coherence")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


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


@dataclass(frozen=True)
class BinaryImage:
    """Boolean raster (mask, binarized image, or skeleton)."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("BinaryImage needs a non-empty 2-D array")
        object.__setattr__(self, "bits", _freeze(arr.astype(bool)))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def count(self) -> int:
        return int(self.bits.sum())


@dataclass(frozen=True)
class FloatField:
    """Per-pixel or per-block real-valued field (orientation/frequency/coherence)."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("FloatField needs a non-empty 2-D array")
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
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

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# PGM (P5) I/O

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
    width, height, maxval = (int(t) for t in tokens)
    if width <= 0 or height <= 0:
        raise MalformedHeader("non-positive dimensions")
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

def _correlate(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Replicated-edge correlation with an odd-sized kernel, accumulating
    kernel entries in row-major order so the result is bit-identical to a
    naive nested-loop evaluation."""
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    # a C-ordered pad keeps the tap slices of a transposed input contiguous
    padded = np.pad(np.ascontiguousarray(arr), ((ry, ry), (rx, rx)), mode="edge")
    h, w = arr.shape
    out = np.zeros((h, w), dtype=np.float64)
    # A sum that starts at +0.0 never becomes -0.0, so a zero tap adds no bit
    # unless 0 * p is NaN, which needs an inf or NaN pixel.
    finite = np.isfinite(arr).all()
    for i in range(kh):
        for j in range(kw):
            if kernel[i, j] != 0.0 or not finite:
                out += kernel[i, j] * padded[i:i + h, j:j + w]
    return out


SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])


def gradients(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel gradients; x increases rightward, y downward.

    Raw signed responses, replicated edges.  Computed once per image, which
    keeps the read-only pair for as long as it lives.
    """
    if "_gradients" not in img.__dict__:
        gx = _correlate(img.pixels, SOBEL_X)
        # Correlating the transpose with SOBEL_X accumulates each kernel row in the
        # order -c, +c, so constant regions cancel exactly; correlating with
        # SOBEL_X.T directly sums -c-2c-c per column and leaves 1-ulp residue on
        # constant input.
        gy = _correlate(img.pixels.T, SOBEL_X).T
        gx.flags.writeable = gy.flags.writeable = False
        object.__setattr__(img, "_gradients", (gx, gy))
    return img._gradients


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


def morph_close_open(mask: BinaryImage, radius: int) -> BinaryImage:
    """Morphological closing then opening with a square (2r+1) element.

    Pixels beyond the border count as background for dilation and as
    foreground for erosion, so an all-true mask is a fixed point.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    size = 2 * radius + 1
    bits = mask.bits

    def dilate(b):
        return ndimage.maximum_filter(b, size=size, mode="constant", cval=False)

    def erode(b):
        return ndimage.minimum_filter(b, size=size, mode="constant", cval=True)

    closed = erode(dilate(bits))
    opened = dilate(erode(closed))
    return BinaryImage(opened)


def adaptive_threshold(raster: GrayImage | np.ndarray, window: int) -> BinaryImage:
    """Pixel true iff its value exceeds the local mean over an odd window.

    Ties go to false; a tiny epsilon absorbs float round-off so a constant
    image stays all-false.
    """
    if window < 3 or window % 2 == 0:
        raise EvenWindow(f"window must be odd and >= 3, got {window}")
    arr = raster.pixels if isinstance(raster, GrayImage) else np.asarray(raster, dtype=np.float64)
    local_mean = ndimage.uniform_filter(arr, size=window, mode="nearest")
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
    stroke ends, shortening a 20-long bar below 18.
    """
    # the framed image, flat: a deletion clears its bit (i + 4) % 8 in neighbour
    # i's code, and the frame absorbs the writes that leave the image
    bits = np.pad(img.bits, 1)
    codes = np.pad(neighbour_codes(img.bits), 1).ravel()
    live = np.flatnonzero(bits)
    steps = [(dy * bits.shape[1] + dx, np.uint8(0xFF ^ 1 << (i + 4) % 8))
             for i, (dx, dy) in enumerate(NEIGHBOUR_OFFSETS)]
    idle = phase = 0
    while idle < 2:  # two subiterations in a row without a deletion: stable
        gone = _THIN_DELETE[phase][codes[live]]
        idle = 0 if gone.any() else idle + 1
        bits.flat[live[gone]] = False
        for step, keep in steps:
            codes[live[gone] + step] &= keep
        live = live[~gone]
        phase ^= 1
    return BinaryImage(bits[1:-1, 1:-1])
