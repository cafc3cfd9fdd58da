"""Iris pipeline: localization, normalization, iris codes, and code matching.

The pipeline finds the pupil and iris circles in a grayscale eye image,
unwraps the annulus between them into a fixed-size polar strip, masks rows
likely covered by eyelids, and summarizes the strip as a binary iris code
under one of two schemes:

* ``haar`` -- signs of selected subbands of an unnormalized 2-D Haar
  multiresolution analysis of the strip.
* ``mellin`` -- signs of phases of complex log-radial/angular operators
  correlated with the strip over a grid of anchor windows.

Codes are compared with a masked Hamming distance minimized over small
circular shifts within each subband/anchor row, which absorbs in-plane eye
rotation between captures.  :func:`hamming_distances` scores one probe
against a whole gallery at once with masked XOR and popcount over packed
64-bit words (Daugman, "How iris recognition works", IEEE TCSVT 2004).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    BadDimensions,
    BadMagic,
    BoundaryNotFound,
    IncomparableCodes,
    NoPupilFound,
    SchemeMismatch,
    TruncatedData,
)
from .imaging import GrayImage, _bilinear, _freeze

# Localization.
PUPIL_THRESHOLD = 0.25
MIN_PUPIL_AREA = 16
BOUNDARY_SAMPLES = 256
BOUNDARY_START_OFFSET = 4.0

# Normalization.
DEFAULT_RADIAL = 64
DEFAULT_ANGULAR = 512
EYELID_SECTORS = ((math.pi / 3, 2 * math.pi / 3),
                  (4 * math.pi / 3, 5 * math.pi / 3))
EYELID_DEVIATION = 2.0

# Coding.
SCHEME_HAAR = "haar"
SCHEME_MELLIN = "mellin"
HAAR_LEVELS = 5
MELLIN_SETTINGS = ((2, 1), (4, 1), (3, 2))
MELLIN_WINDOW_ROWS = 16
MELLIN_WINDOW_COLS = 64
MELLIN_RADIAL_ANCHORS = 8
MELLIN_ANGULAR_ANCHORS = 64
MELLIN_MAX_INVALID = 0.5

# Matching.
DEFAULT_MAX_SHIFT = 8
MIN_COMPARABLE_BITS = 64

CODE_MAGIC = b"IRC1"
_SCHEME_CODE = {SCHEME_HAAR: 0, SCHEME_MELLIN: 1}
_CODE_SCHEME = {v: k for k, v in _SCHEME_CODE.items()}


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class IrisGeometry:
    """Pupil and iris circles sharing a center, in pixel coordinates."""

    center_x: float
    center_y: float
    pupil_r: float
    iris_r: float

    def __post_init__(self):
        for name in ("center_x", "center_y", "pupil_r", "iris_r"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number")
        if self.pupil_r < 4.0:
            raise ValueError("pupil_r must be >= 4 pixels")
        if self.iris_r <= self.pupil_r:
            raise ValueError("iris_r must exceed pupil_r")


@dataclass(frozen=True)
class NormalizedStrip:
    """Polar unwrap of the iris annulus: rows = radius, columns = angle.

    Row 0 hugs the pupil boundary, the last row hugs the iris boundary.
    ``valid`` marks cells that survived occlusion screening.  Every strip is
    DEFAULT_RADIAL x DEFAULT_ANGULAR, the one shape both code schemes take.
    """

    values: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.valid)
        if vals.shape != (DEFAULT_RADIAL, DEFAULT_ANGULAR):
            raise BadDimensions(
                f"strip shape {vals.shape} must be {DEFAULT_RADIAL}x{DEFAULT_ANGULAR}")
        if mask.shape != vals.shape:
            raise ValueError("strip validity mask must match the value shape")
        if not np.all(np.isfinite(vals)):
            raise ValueError("strip values must be finite")
        if vals.min() < 0.0 or vals.max() > 1.0:
            raise ValueError("strip values must lie in [0, 1]")
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "valid", _freeze(mask.astype(bool)))


@dataclass(frozen=True)
class IrisCode:
    """Binary iris code plus a per-bit validity mask."""

    bits: np.ndarray
    mask: np.ndarray
    scheme: str

    def __post_init__(self):
        if self.scheme not in _SCHEME_CODE:
            raise ValueError(f"unknown iris code scheme {self.scheme!r}")
        bits = np.asarray(self.bits)
        mask = np.asarray(self.mask)
        if bits.ndim != 1 or mask.shape != bits.shape:
            raise ValueError("bits and mask must be 1-D arrays of equal length")
        if bits.size != _CODE_BITS[self.scheme]:
            raise ValueError(f"{self.scheme} code must have "
                             f"{_CODE_BITS[self.scheme]} bits, got {bits.size}")
        object.__setattr__(self, "bits", _freeze(bits.astype(bool)))
        object.__setattr__(self, "mask", _freeze(mask.astype(bool)))

    def __len__(self) -> int:
        return self.bits.size


def _row_layout(scheme: str) -> tuple[tuple[int, int], ...]:
    """Row structure of a code as (row_count, row_width) segments.

    Shift alignment rotates bits within each such row independently.
    """
    if scheme == SCHEME_HAAR:
        # Three level-4 detail subbands of shape (4, 32), then three level-5
        # detail subbands and the level-5 approximation, each (2, 16).
        return ((4, 32),) * 3 + ((2, 16),) * 4
    # One row per (operator setting, radial anchor) pair.
    return ((len(MELLIN_SETTINGS) * MELLIN_RADIAL_ANCHORS,
             MELLIN_ANGULAR_ANCHORS),)


# A scheme fixes its code length.
_CODE_BITS = {s: sum(r * w for r, w in _row_layout(s)) for s in _SCHEME_CODE}
CODE_MAX_BYTES = 9 + 2 * ((max(_CODE_BITS.values()) + 7) // 8)  # header, packed bits and mask


# ---------------------------------------------------------------------------
# Localization

def locate_pupil(img: GrayImage) -> tuple[float, float, float]:
    """Find the pupil center and radius.

    Thresholds the image at 0.25, takes the largest dark connected component
    (8-connectivity), and returns its centroid plus the distance from the
    centroid to the nearest pixel outside the component.  Raises NoPupilFound
    when no dark component reaches 16 pixels.
    """
    dark = img.pixels < PUPIL_THRESHOLD
    labels, count = ndimage.label(dark, structure=np.ones((3, 3), dtype=bool))
    if count == 0:
        raise NoPupilFound("no pixels below the pupil threshold")
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    best = int(sizes.argmax())
    if sizes[best] < MIN_PUPIL_AREA:
        raise NoPupilFound(
            f"largest dark component has {sizes[best]} px, needs {MIN_PUPIL_AREA}")
    component = labels == best
    ys, xs = np.nonzero(component)
    cx = float(xs.mean())
    cy = float(ys.mean())
    out_ys, out_xs = np.nonzero(~component)
    if out_ys.size == 0:
        raise NoPupilFound("dark component fills the whole image")
    pupil_r = float(np.hypot(out_xs - cx, out_ys - cy).min())
    return cx, cy, pupil_r


def _polar_samples(pixels: np.ndarray, cx: float, cy: float,
                   radii: np.ndarray, angular: int) -> np.ndarray:
    """Bilinear samples on circles about (cx, cy): one row per radius, column
    j at angle 2*pi*j / angular measured from the +x axis toward +y."""
    phi = 2.0 * math.pi * np.arange(angular, dtype=np.float64) / angular
    x = cx + radii[:, None] * np.cos(phi)[None, :]
    y = cy + radii[:, None] * np.sin(phi)[None, :]
    return _bilinear(pixels, x, y)


def locate_iris_boundary(img: GrayImage, center_x: float, center_y: float,
                         pupil_r: float) -> float:
    """Find the outer iris radius.

    Sweeps circles of radius pupil_r + 4, pupil_r + 5, ... out to the last
    radius that keeps the circle inside the image, measuring the mean
    intensity over 256 bilinear perimeter samples, and returns the radius
    whose mean changed the most against the previous circle.  Ties go to the
    smallest radius.  Raises BoundaryNotFound when fewer than two circles fit.
    """
    margin = min(center_x, center_y,
                 img.width - 1.0 - center_x, img.height - 1.0 - center_y)
    start = pupil_r + BOUNDARY_START_OFFSET
    steps = int(math.floor(margin - start)) + 1
    if steps < 2:
        raise BoundaryNotFound(
            f"no room to search outward of radius {start:.1f} "
            f"within margin {margin:.1f}")
    radii = start + np.arange(steps, dtype=np.float64)
    means = _polar_samples(img.pixels, center_x, center_y, radii,
                           BOUNDARY_SAMPLES).mean(axis=1)
    jumps = np.abs(np.diff(means))
    return float(radii[int(jumps.argmax()) + 1])


# ---------------------------------------------------------------------------
# Normalization

def normalize(img: GrayImage, geometry: IrisGeometry) -> NormalizedStrip:
    """Unwrap the iris annulus into a DEFAULT_RADIAL x DEFAULT_ANGULAR polar
    strip.

    Cell (i, j) samples the image bilinearly at radius
    pupil_r + (i + 0.5) / DEFAULT_RADIAL * (iris_r - pupil_r) and angle
    2*pi*j / DEFAULT_ANGULAR measured from the +x axis toward +y.  All cells
    start valid.
    """
    cx, cy = geometry.center_x, geometry.center_y
    if (cx - geometry.iris_r < 0 or cx + geometry.iris_r > img.width - 1
            or cy - geometry.iris_r < 0 or cy + geometry.iris_r > img.height - 1):
        raise ValueError("iris circle extends beyond the image")
    rows = np.arange(DEFAULT_RADIAL, dtype=np.float64)
    r = geometry.pupil_r + (rows + 0.5) / DEFAULT_RADIAL * (geometry.iris_r - geometry.pupil_r)
    values = _polar_samples(img.pixels, cx, cy, r, DEFAULT_ANGULAR)
    return NormalizedStrip(values, np.ones(values.shape, dtype=bool))


def detect_eyelids(strip: NormalizedStrip) -> NormalizedStrip:
    """Invalidate outer-radius rows of columns that look eyelid-covered.

    A column is flagged when its angle falls in the upper (60-120 degree) or
    lower (240-300 degree) sector and its mean intensity deviates from the
    strip's global median by more than two global standard deviations.
    Flagged columns lose validity for rows i >= DEFAULT_RADIAL / 2; values
    are kept.
    """
    vals = strip.values
    median = float(np.median(vals))
    spread = float(vals.std())
    col_mean = vals.mean(axis=0)
    angles = 2.0 * math.pi * np.arange(DEFAULT_ANGULAR) / DEFAULT_ANGULAR
    in_sector = np.zeros(DEFAULT_ANGULAR, dtype=bool)
    for lo, hi in EYELID_SECTORS:
        in_sector |= (angles >= lo) & (angles <= hi)
    flagged = in_sector & (np.abs(col_mean - median) > EYELID_DEVIATION * spread)
    if not flagged.any():
        return strip
    valid = strip.valid.copy()
    valid[DEFAULT_RADIAL // 2:, flagged] = False
    return NormalizedStrip(strip.values, valid)


# ---------------------------------------------------------------------------
# Haar scheme

def haar_decompose(values: np.ndarray
                   ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Unnormalized HAAR_LEVELS-level 2-D Haar analysis.

    Each level turns the running approximation into a half-size approximation
    plus three detail subbands via pairwise sums and differences (no 1/2 or
    1/sqrt(2) scaling): columns are paired first (angular direction), then
    rows (radial direction).  Returns the final approximation and the
    (angular, radial, diagonal) detail triple per level, coarsest last.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] % (1 << HAAR_LEVELS) or a.shape[1] % (1 << HAAR_LEVELS):
        raise BadDimensions(
            f"shape {a.shape} does not support a level-{HAAR_LEVELS} analysis")
    details = []
    for _ in range(HAAR_LEVELS):
        col_sum = a[:, 0::2] + a[:, 1::2]
        col_diff = a[:, 0::2] - a[:, 1::2]
        approx = col_sum[0::2, :] + col_sum[1::2, :]
        radial_detail = col_sum[0::2, :] - col_sum[1::2, :]
        angular_detail = col_diff[0::2, :] + col_diff[1::2, :]
        diagonal = col_diff[0::2, :] - col_diff[1::2, :]
        details.append((angular_detail, radial_detail, diagonal))
        a = approx
    return a, details


def haar_reconstruct(approx: np.ndarray,
                     details: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                     ) -> np.ndarray:
    """Invert :func:`haar_decompose` exactly (up to float round-off)."""
    a = np.asarray(approx, dtype=np.float64)
    for angular_detail, radial_detail, diagonal in reversed(details):
        col_sum = np.empty((a.shape[0] * 2, a.shape[1]))
        col_sum[0::2, :] = (a + radial_detail) / 2.0
        col_sum[1::2, :] = (a - radial_detail) / 2.0
        col_diff = np.empty_like(col_sum)
        col_diff[0::2, :] = (angular_detail + diagonal) / 2.0
        col_diff[1::2, :] = (angular_detail - diagonal) / 2.0
        a = np.empty((col_sum.shape[0], col_sum.shape[1] * 2))
        a[:, 0::2] = (col_sum + col_diff) / 2.0
        a[:, 1::2] = (col_sum - col_diff) / 2.0
    return a


def _block_any(cells: np.ndarray, block: int) -> np.ndarray:
    """Per-block OR over non-overlapping ``block`` x ``block`` tiles."""
    h, w = cells.shape
    return cells.reshape(h // block, block, w // block, block).any(axis=(1, 3))


def haar_code(strip: NormalizedStrip) -> IrisCode:
    """Sign-quantize selected Haar subbands of the strip into a 512-bit code.

    Bits are 1 where the coefficient is > 0, in fixed raster order: level-4
    angular/radial/diagonal details, level-5 angular/radial/diagonal details,
    then the level-5 approximation.  A bit's mask is 0 when any strip cell in
    the coefficient's support is invalid.
    """
    approx, details = haar_decompose(strip.values)
    invalid = ~strip.valid
    pieces = []
    mask_pieces = []
    for level in (4, 5):
        tainted = _block_any(invalid, 1 << level)
        for band in details[level - 1]:
            pieces.append(band > 0.0)
            mask_pieces.append(~tainted)
    pieces.append(approx > 0.0)
    mask_pieces.append(~_block_any(invalid, 1 << HAAR_LEVELS))
    bits = np.concatenate([p.ravel() for p in pieces])
    mask = np.concatenate([m.ravel() for m in mask_pieces])
    return IrisCode(bits, mask, SCHEME_HAAR)


# ---------------------------------------------------------------------------
# Mellin scheme

@functools.cache
def _mellin_kernels(window_tops: tuple[int, ...]) -> dict[tuple[int, int], np.ndarray]:
    """Complex operator per (radial anchor, setting), keyed by (top, index);
    built once per set of window tops, read-only."""
    taper = np.outer(np.hanning(MELLIN_WINDOW_ROWS), np.hanning(MELLIN_WINDOW_COLS))
    cols = np.arange(MELLIN_WINDOW_COLS, dtype=np.float64)
    kernels = {}
    for top in window_tops:
        # Log-radial coordinate of each window row, normalized to [0, 1]
        # across the window (row indices are 1-based to keep logs finite).
        row_pos = top + np.arange(MELLIN_WINDOW_ROWS, dtype=np.float64) + 1.0
        s = np.log(row_pos / row_pos[0]) / math.log(row_pos[-1] / row_pos[0])
        for idx, (p, q) in enumerate(MELLIN_SETTINGS):
            phase = (p * 2.0 * math.pi * cols[None, :] / MELLIN_WINDOW_COLS
                     + q * 2.0 * math.pi * s[:, None])
            kernels[(int(top), idx)] = _freeze(taper * np.exp(1j * phase))
    return kernels


def mellin_code(strip: NormalizedStrip) -> IrisCode:
    """Phase-quantize log-radial/angular operator responses into 1536 bits.

    Three operator settings (p, q) in {(2, 1), (4, 1), (3, 2)} are correlated
    with the strip over a grid of 8 radial x 64 angular anchor positions,
    each seeing a 16 x 64 raised-cosine window that wraps circularly in angle
    and clamps in radius.  A bit is 1 when the response phase lies in (0, pi];
    its mask is 0 when more than half the window's cells are invalid.
    """
    r_count, a_count = MELLIN_RADIAL_ANCHORS, MELLIN_ANGULAR_ANCHORS
    centers = (np.arange(r_count) + 0.5) * DEFAULT_RADIAL / r_count
    tops = np.clip(np.round(centers - MELLIN_WINDOW_ROWS / 2).astype(int),
                   0, DEFAULT_RADIAL - MELLIN_WINDOW_ROWS)
    stride = DEFAULT_ANGULAR // a_count
    kernels = _mellin_kernels(tuple(np.unique(tops).tolist()))

    # Wrap the strip so every angular window is a contiguous slice.
    vals = np.concatenate([strip.values, strip.values[:, :MELLIN_WINDOW_COLS]],
                          axis=1)
    invalid = ~strip.valid
    inv = np.concatenate([invalid, invalid[:, :MELLIN_WINDOW_COLS]], axis=1)

    bits = np.zeros(len(MELLIN_SETTINGS) * r_count * a_count, dtype=bool)
    mask = np.zeros_like(bits)
    starts = np.arange(a_count) * stride
    for r_idx, top in enumerate(tops):
        windows = np.stack([vals[top:top + MELLIN_WINDOW_ROWS, s:s + MELLIN_WINDOW_COLS]
                            for s in starts])
        bad_frac = np.stack([inv[top:top + MELLIN_WINDOW_ROWS, s:s + MELLIN_WINDOW_COLS]
                             for s in starts]).mean(axis=(1, 2))
        ok = bad_frac <= MELLIN_MAX_INVALID
        for s_idx in range(len(MELLIN_SETTINGS)):
            resp = np.einsum("wij,ij->w", windows, kernels[(int(top), s_idx)])
            phase = np.arctan2(resp.imag, resp.real)
            base = (s_idx * r_count + r_idx) * a_count
            bits[base:base + a_count] = phase > 0.0
            mask[base:base + a_count] = ok
    return IrisCode(bits, mask, SCHEME_MELLIN)


# ---------------------------------------------------------------------------
# Matching

def _shift_rows(flat: np.ndarray, layout: tuple[tuple[int, int], ...],
                shift: int) -> np.ndarray:
    """Circularly shift a flat code by ``shift`` within each layout row."""
    if shift == 0:
        return flat
    out = np.empty_like(flat)
    pos = 0
    for rows, width in layout:
        seg = flat[pos:pos + rows * width].reshape(rows, width)
        out[pos:pos + rows * width] = np.roll(seg, shift, axis=1).ravel()
        pos += rows * width
    return out


@functools.cache
def _shift_table(scheme: str, max_shift: int) -> np.ndarray:
    """Per shift s in [-max_shift, max_shift], the bit order of a code rotated
    by s within each layout row; built once per (scheme, max_shift), read-only."""
    order = np.arange(_CODE_BITS[scheme])
    return _freeze(np.stack([_shift_rows(order, _row_layout(scheme), s)
                             for s in range(-max_shift, max_shift + 1)]))


def hamming_distance(a: IrisCode, b: IrisCode) -> float:
    """Masked Hamming distance minimized over small angular shifts.

    For each shift s in [-DEFAULT_MAX_SHIFT, +DEFAULT_MAX_SHIFT], b's bits and
    mask are rotated by s within each subband/anchor row, and the fraction of
    jointly valid bits that disagree is computed.  Returns the minimum over
    shifts with at least 64 jointly valid bits; raises IncomparableCodes when
    no shift reaches that, and SchemeMismatch when the codes' schemes differ.
    A gallery of one for :func:`hamming_distances`.
    """
    return float(hamming_distances([a], b)[0])


def _pack_words(flags: np.ndarray) -> np.ndarray:
    """Pack boolean rows of a multiple of 64 bits into uint64 words."""
    return np.packbits(flags, axis=-1).view(np.uint64)


def hamming_distances(gallery: list[IrisCode], probe: IrisCode) -> np.ndarray:
    """:func:`hamming_distance` of each gallery code against one probe.

    Returns a float64 array in one pass: the probe is shifted and packed
    once per shift, the gallery is packed once, and jointly valid and
    disagreeing bits are counted by popcount over 64-bit words.  Raises
    IncomparableCodes or SchemeMismatch when any gallery code is incomparable
    or of another scheme.
    """
    for a in gallery:
        if a.scheme != probe.scheme:
            raise SchemeMismatch(f"cannot compare {a.scheme} against {probe.scheme}")
    if not gallery:
        return np.empty(0)
    shifted = _shift_table(probe.scheme, DEFAULT_MAX_SHIFT)
    p_bits = _pack_words(probe.bits[shifted])
    p_mask = _pack_words(probe.mask[shifted])
    g_bits = _pack_words(np.stack([a.bits for a in gallery]))[:, None, :]
    g_mask = _pack_words(np.stack([a.mask for a in gallery]))[:, None, :]
    joint = g_mask & p_mask
    valid = np.bitwise_count(joint).sum(axis=2, dtype=np.int64)
    differ = np.bitwise_count((g_bits ^ p_bits) & joint).sum(axis=2, dtype=np.int64)
    hd = np.divide(differ, valid, out=np.full(valid.shape, np.inf),
                   where=valid >= MIN_COMPARABLE_BITS)
    best = hd.min(axis=1)
    if np.isinf(best).any():
        raise IncomparableCodes(
            f"fewer than {MIN_COMPARABLE_BITS} jointly valid bits at every shift")
    return best


# ---------------------------------------------------------------------------
# Serialization

def encode_code(code: IrisCode) -> bytes:
    """Serialize an iris code: magic, scheme byte, bit count, packed bits+mask."""
    head = CODE_MAGIC + struct.pack("<BI", _SCHEME_CODE[code.scheme], len(code))
    packed_bits = np.packbits(code.bits.astype(np.uint8), bitorder="little")
    packed_mask = np.packbits(code.mask.astype(np.uint8), bitorder="little")
    return head + packed_bits.tobytes() + packed_mask.tobytes()


def decode_code(data: bytes) -> IrisCode:
    """Parse bytes produced by :func:`encode_code`."""
    if data[:4] != CODE_MAGIC:
        raise BadMagic(f"expected {CODE_MAGIC!r} header, got {data[:4]!r}")
    if len(data) < 9:
        raise TruncatedData("iris code header truncated")
    scheme_code, length = struct.unpack_from("<BI", data, 4)
    if scheme_code not in _CODE_SCHEME:
        raise TruncatedData(f"unknown iris code scheme byte {scheme_code}")
    scheme = _CODE_SCHEME[scheme_code]
    if length != _CODE_BITS[scheme]:
        raise TruncatedData(f"{scheme} code must have {_CODE_BITS[scheme]} bits, got {length}")
    nbytes = (length + 7) // 8
    if len(data) != 9 + 2 * nbytes:
        raise TruncatedData(f"{scheme} code must be {9 + 2 * nbytes} bytes, got {len(data)}")
    packed = np.frombuffer(data, dtype=np.uint8, count=2 * nbytes, offset=9).reshape(2, nbytes)
    planes = np.unpackbits(packed, axis=1, count=length, bitorder="little").view(bool)
    planes.setflags(write=False)
    code = object.__new__(IrisCode)  # owns the fresh planes: no checks, no copies
    code.__dict__.update(bits=planes[0], mask=planes[1], scheme=scheme)
    return code


# ---------------------------------------------------------------------------
# End-to-end convenience

def build_codes(img: GrayImage) -> tuple[IrisGeometry, NormalizedStrip, IrisCode, IrisCode]:
    """Run the full iris pipeline: locate, unwrap, screen eyelids, code.

    Returns the fitted geometry, the screened strip, and the (haar, mellin)
    code pair.
    """
    cx, cy, pupil_r = locate_pupil(img)
    iris_r = locate_iris_boundary(img, cx, cy, pupil_r)
    geometry = IrisGeometry(cx, cy, pupil_r, iris_r)
    strip = detect_eyelids(normalize(img, geometry))
    return geometry, strip, haar_code(strip), mellin_code(strip)
