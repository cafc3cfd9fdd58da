"""Iris pipeline: localization, normalization, iris codes, and code matching.

The pipeline finds the pupil and iris circles in a grayscale eye image,
unwraps the annulus between them into a fixed-size polar strip, masks rows
likely covered by eyelids, and summarizes the strip as a binary iris code
under one of two schemes:

* ``haar`` -- signs of selected subbands of an unnormalized 2-D Haar
  multiresolution analysis of the strip.
* ``mellin`` -- phase signs of log-radial/angular operators, from the responses
  of their real cosine and sine parts over a grid of anchor windows.

Codes are compared with a masked Hamming distance minimized over small
circular shifts within each subband/anchor row, which absorbs in-plane eye
rotation between captures.  :func:`hamming_distances` scores one probe
against a whole gallery at once with masked XOR and popcount over packed
64-bit words (Daugman, "How iris recognition works", IEEE TCSVT 2004).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensions,
    BadMagic,
    BoundaryNotFound,
    IncomparableCodes,
    NoPupilFound,
    SchemeMismatch,
    TruncatedData,
)
from .imaging import GrayImage, _bilinear, _freeze, _unchecked

# Localization.
PUPIL_THRESHOLD = 0.25
MIN_PUPIL_AREA = 16
MIN_PUPIL_RADIUS = 4.0
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
        if self.pupil_r < MIN_PUPIL_RADIUS:
            raise ValueError(f"pupil_r must be >= {MIN_PUPIL_RADIUS:g} pixels")
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


@dataclass(frozen=True, eq=False, init=False)
class IrisCode:
    """Binary iris code plus a per-bit validity mask, held as ``words``: a
    read-only (2, bits / 64) little-endian uint64 array of the bit plane then
    the mask, bit i of a plane at bit i % 64 of word i // 64.  These are the
    words ``IRC1`` stores and the Hamming kernel XORs; ``bits`` and ``mask``
    unpack one plane on each call."""

    words: np.ndarray
    scheme: str

    def __init__(self, bits, mask, scheme: str):
        if scheme not in _SCHEME_CODE:
            raise ValueError(f"unknown iris code scheme {scheme!r}")
        bits, mask = np.asarray(bits), np.asarray(mask)
        if bits.ndim != 1 or mask.shape != bits.shape:
            raise ValueError("bits and mask must be 1-D arrays of equal length")
        if bits.size != _CODE_BITS[scheme]:
            raise ValueError(f"{scheme} code must have {_CODE_BITS[scheme]} bits, got {bits.size}")
        self.__dict__.update(words=_pack(np.stack((bits.astype(bool), mask.astype(bool)))),
                             scheme=scheme)

    @property
    def bits(self) -> np.ndarray:
        return _unpack(self.words[0])

    @property
    def mask(self) -> np.ndarray:
        return _unpack(self.words[1])

    def __eq__(self, other):
        return (isinstance(other, IrisCode) and self.scheme == other.scheme
                and np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.scheme, self.words.tobytes()))

    def __len__(self) -> int:
        return _CODE_BITS[self.scheme]


def _pack(planes: np.ndarray) -> np.ndarray:
    """Read-only little-endian uint64 words of boolean rows of a multiple of 64
    bits: bit i of a row is bit i % 64 of word i // 64."""
    return _freeze(np.packbits(planes, axis=-1, bitorder="little")).view("<u8")


def _unpack(words: np.ndarray) -> np.ndarray:
    """Read-only boolean rows of :func:`_pack`'s words."""
    return _freeze(np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little").view(bool))


# Row structure of each scheme's code as (row_count, row_width) segments.
# Shift alignment rotates bits within each such row independently.
_ROW_LAYOUT = {
    # Three level-4 detail subbands of shape (4, 32), then three level-5
    # detail subbands and the level-5 approximation, each (2, 16).
    SCHEME_HAAR: ((4, 32),) * 3 + ((2, 16),) * 4,
    # One row per (operator setting, radial anchor) pair.
    SCHEME_MELLIN: ((len(MELLIN_SETTINGS) * MELLIN_RADIAL_ANCHORS, MELLIN_ANGULAR_ANCHORS),),
}


# A scheme fixes its code length.
_CODE_BITS = {s: sum(r * w for r, w in layout) for s, layout in _ROW_LAYOUT.items()}
CODE_MAX_BYTES = 9 + 2 * (max(_CODE_BITS.values()) // 8)  # header, bit and mask words


# ---------------------------------------------------------------------------
# Localization

def _runs_and_components(bits: np.ndarray):
    """The horizontal runs of true pixels in raster order, as rows, first
    columns and end columns (exclusive), and per run the index of the first
    run of its 8-connected component.

    Runs in adjacent rows touch when their column spans overlap or meet at a
    corner (Wu, Otoo & Suzuki 2009).  Union-find by rounds: each tree hooks its
    root under the least root it touches, then every run jumps to its root;
    the trees at least halve per round.  A root is the least run of its tree,
    so components are ordered by their first pixel, as ``ndimage.label`` does.
    """
    w = bits.shape[1]
    edges = np.diff(np.pad(bits, ((0, 0), (1, 1))).view(np.int8), axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]
    # the runs of the row above that touch each run span one range of indices
    lo = np.searchsorted(rows * (w + 1) + ends, (rows - 1) * (w + 1) + starts, "left")
    hi = np.searchsorted(rows * (w + 1) + starts, (rows - 1) * (w + 1) + ends, "right")
    count = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(rows.size), count)
    above = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(below.size)
    root = np.arange(rows.size)
    while (root[above] != root[below]).any():
        a, b = root[above], root[below]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while (root[root] != root).any():
            root = root[root]
    return rows, starts, ends, root


def locate_pupil(img: GrayImage) -> tuple[float, float, float]:
    """Find the pupil center and radius.

    Thresholds the image at 0.25, takes the largest dark connected component
    (8-connectivity; of equal ones, the one whose first pixel comes first in
    raster order), and returns its centroid plus the distance from the
    centroid to the nearest pixel outside the component.  Raises NoPupilFound
    when no dark component reaches 16 pixels or its radius is under 4.
    """
    h, w = img.pixels.shape
    rows, starts, ends, root = _runs_and_components(img.pixels < PUPIL_THRESHOLD)
    if rows.size == 0:
        raise NoPupilFound("no pixels below the pupil threshold")
    length = ends - starts
    sizes = np.bincount(root, weights=length)
    best = int(sizes.argmax())
    area = int(sizes[best])
    if area < MIN_PUPIL_AREA:
        raise NoPupilFound(
            f"largest dark component has {area} px, needs {MIN_PUPIL_AREA}")
    mine = root == best
    rows, starts, length = rows[mine], starts[mine], length[mine]
    # exact integer sums, so each mean is the mean of the pixels' coordinates
    cx = int(((2 * starts + length - 1) * length).sum()) // 2 / area
    cy = int((rows * length).sum()) / area
    component = np.zeros(h * w, dtype=bool)
    component[np.repeat(rows * w + starts - np.cumsum(length) + length, length)
              + np.arange(area)] = True
    outside = ~component.reshape(h, w)
    # the pixels beside the component's first run are not dark, so outside
    # it: the nearest outside pixel is no farther than they are and lies in
    # the square about the centroid their distance spans (a pixel wider,
    # against rounding); with neither in the image, search it all
    top = left = 0
    beside = [x for x in (starts[0] - 1, starts[0] + length[0]) if 0 <= x < w]
    if beside:
        reach = math.ceil(float(np.hypot(beside[0] - cx, rows[0] - cy))) + 1
        top, left = max(int(cy) - reach, 0), max(int(cx) - reach, 0)
        outside = outside[top:int(cy) + reach + 1, left:int(cx) + reach + 1]
    out_ys, out_xs = np.nonzero(outside)
    if out_ys.size == 0:
        raise NoPupilFound("dark component fills the whole image")
    pupil_r = float(np.hypot(out_xs + left - cx, out_ys + top - cy).min())
    if pupil_r < MIN_PUPIL_RADIUS:
        raise NoPupilFound(f"pupil radius {pupil_r:g} px, needs {MIN_PUPIL_RADIUS:g}")
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

# Top row of each radial anchor's window: anchors at even fractions of the
# strip height, windows clamped inside the strip.
_MELLIN_TOPS = tuple(np.clip(
    np.round((np.arange(MELLIN_RADIAL_ANCHORS) + 0.5) * DEFAULT_RADIAL / MELLIN_RADIAL_ANCHORS
             - MELLIN_WINDOW_ROWS / 2).astype(int),
    0, DEFAULT_RADIAL - MELLIN_WINDOW_ROWS).tolist())


def _mellin_bank() -> np.ndarray:
    """Read-only real operators, (radial anchor, part, window row, column): the
    three settings' cosine parts, then their sine parts."""
    # Log-radial coordinate of each window row, normalized to [0, 1] across
    # the window (row indices are 1-based to keep logs finite).
    row_pos = np.array(_MELLIN_TOPS, dtype=np.float64)[:, None] + np.arange(MELLIN_WINDOW_ROWS) + 1.0
    s = np.log(row_pos / row_pos[:, :1]) / [[math.log(r[-1] / r[0])] for r in row_pos]
    p, q = np.array(MELLIN_SETTINGS, dtype=np.float64).T[:, :, None, None]
    phase = (p * 2.0 * math.pi * np.arange(MELLIN_WINDOW_COLS) / MELLIN_WINDOW_COLS
             + q * 2.0 * math.pi * s[:, None, :, None])
    taper = np.outer(np.hanning(MELLIN_WINDOW_ROWS), np.hanning(MELLIN_WINDOW_COLS))
    bank = taper * np.exp(1j * phase)
    return _freeze(np.concatenate([bank.real, bank.imag], axis=1))


_MELLIN_KERNELS = _mellin_bank()


def mellin_code(strip: NormalizedStrip) -> IrisCode:
    """Phase-quantize log-radial/angular operator responses into 1536 bits.

    Three operator settings (p, q) in {(2, 1), (4, 1), (3, 2)} are correlated
    with the strip over a grid of 8 radial x 64 angular anchor positions,
    each seeing a 16 x 64 raised-cosine window that wraps circularly in angle
    and clamps in radius.  A bit is 1 when the response phase, the angle of
    the responses of the operator's real cosine and sine parts, lies in
    (0, pi]; its mask is 0 when more than half the window's cells are invalid.
    Bits are ordered by setting, then radial anchor, then angular anchor.
    """
    # Values and invalidity wrapped in angle; windows are views into them,
    # taken one radial anchor at a time.
    planes = np.stack([strip.values, ~strip.valid])
    planes = np.concatenate([planes, planes[:, :, :MELLIN_WINDOW_COLS]], axis=2)
    values, invalid = np.lib.stride_tricks.sliding_window_view(
        planes, (MELLIN_WINDOW_ROWS, MELLIN_WINDOW_COLS), axis=(1, 2)
    )[:, :, :DEFAULT_ANGULAR:DEFAULT_ANGULAR // MELLIN_ANGULAR_ANCHORS]
    resp = np.stack([np.einsum("wij,sij->sw", values[top], kernels)
                     for top, kernels in zip(_MELLIN_TOPS, _MELLIN_KERNELS)], axis=1)
    # whole counts of invalid cells, so each window's invalid share is exact
    counts = np.stack([np.einsum("wij->w", invalid[top]) for top in _MELLIN_TOPS])
    ok = counts / (MELLIN_WINDOW_ROWS * MELLIN_WINDOW_COLS) <= MELLIN_MAX_INVALID
    bits = np.arctan2(resp[len(MELLIN_SETTINGS):], resp[:len(MELLIN_SETTINGS)]) > 0.0
    return IrisCode(bits.ravel(), np.broadcast_to(ok, bits.shape).ravel(), SCHEME_MELLIN)


# ---------------------------------------------------------------------------
# Matching

def _shift_table(scheme: str) -> np.ndarray:
    """Per shift s in [-DEFAULT_MAX_SHIFT, DEFAULT_MAX_SHIFT], the bit order of
    a code rotated by s within each layout row; read-only."""
    pieces, pos = [], 0
    for rows, width in _ROW_LAYOUT[scheme]:
        seg = np.arange(pos, pos + rows * width).reshape(rows, width)
        pieces.append([np.roll(seg, s, axis=1).ravel()
                       for s in range(-DEFAULT_MAX_SHIFT, DEFAULT_MAX_SHIFT + 1)])
        pos += rows * width
    return _freeze(np.concatenate(pieces, axis=1))


_SHIFT_TABLES = {scheme: _shift_table(scheme) for scheme in _ROW_LAYOUT}


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


def hamming_distances(gallery: list[IrisCode], probe: IrisCode) -> np.ndarray:
    """:func:`hamming_distance` of each gallery code against one probe.

    Returns a float64 array in one pass: the probe is shifted and packed
    once per shift, the gallery's words are stacked once, and jointly valid
    and disagreeing bits are counted by popcount over 64-bit words.  Raises
    IncomparableCodes or SchemeMismatch when any gallery code is incomparable
    or of another scheme.
    """
    for a in gallery:
        if a.scheme != probe.scheme:
            raise SchemeMismatch(f"cannot compare {a.scheme} against {probe.scheme}")
    if not gallery:
        return np.empty(0)
    shifted = _SHIFT_TABLES[probe.scheme]
    p_bits, p_mask = _pack(_unpack(probe.words)[:, shifted])
    g_words = np.stack([a.words for a in gallery])
    g_bits, g_mask = g_words[:, 0, None], g_words[:, 1, None]
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
    """Serialize an iris code: magic, scheme byte, bit count, bit and mask words."""
    head = CODE_MAGIC + struct.pack("<BI", _SCHEME_CODE[code.scheme], len(code))
    return head + code.words.tobytes()


def decode_codes(blobs, names=None) -> list[IrisCode]:
    """``[decode_code(b) for b in blobs]``, headers checked in one loop, the first
    faulty blob raising (prefixed ``names[i]: `` given names); each code holds its
    row of one read-only (n, 2, words) array per scheme, never the caller's bytes."""
    schemes = []
    for i, data in enumerate(blobs):
        if data[:4] != CODE_MAGIC:
            fault = BadMagic, f"expected {CODE_MAGIC!r} header, got {data[:4]!r}"
        elif len(data) < 9:
            fault = TruncatedData, "iris code header truncated"
        elif (head := struct.unpack_from("<BI", data, 4))[0] not in _CODE_SCHEME:
            fault = TruncatedData, f"unknown iris code scheme byte {head[0]}"
        elif head[1] != _CODE_BITS[scheme := _CODE_SCHEME[head[0]]]:
            fault = TruncatedData, f"{scheme} code must have {_CODE_BITS[scheme]} bits, got {head[1]}"
        elif len(data) != 9 + head[1] // 4:
            fault = TruncatedData, f"{scheme} code must be {9 + head[1] // 4} bytes, got {len(data)}"
        else:
            schemes.append(scheme)
            continue
        raise fault[0](fault[1] if names is None else f"{names[i]}: {fault[1]}")
    codes = [None] * len(schemes)
    for scheme, bits in _CODE_BITS.items():
        own = [i for i, s in enumerate(schemes) if s == scheme]
        words = np.frombuffer(b"".join(memoryview(blobs[i])[9:] for i in own),  # fresh bytes
                              "<u8").reshape(len(own), 2, bits // 64)
        for i, row in zip(own, _freeze(np.require(words, requirements="A"))):
            codes[i] = _unchecked(IrisCode, words=row, scheme=scheme)  # a row of fresh words
    return codes


def decode_code(data: bytes) -> IrisCode:
    """Parse bytes produced by :func:`encode_code`: a gallery of one."""
    return decode_codes([data])[0]


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
