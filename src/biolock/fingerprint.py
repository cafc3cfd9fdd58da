"""Fingerprint pipeline: segmentation, orientation/frequency estimation,
Gabor enhancement, minutiae extraction and filtering, registration, matching.

Coordinates are (x right, y down); ridge orientation is an angle in [0, pi)
measured from +x, and minutia direction is its lift to [0, 2*pi) along the
departing ridge.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    BadMagic,
    BlockTooSmall,
    EmptyTemplate,
    ImageTooSmall,
    TruncatedData,
)
from .imaging import (  # crossing_number is re-exported
    CROSSING_NUMBERS,
    NEIGHBOUR_OFFSETS,
    BinaryImage,
    FloatField,
    GrayImage,
    _bilinear,
    adaptive_threshold,
    crossing_number,
    gradients,
    morph_close_open,
    neighbour_codes,
    thin,
)

# ---------------------------------------------------------------------------
# Parameters

DEFAULT_COHERENCE_WINDOW = 16   # W: window for per-pixel coherence sums
DEFAULT_MASK_K = 0.0            # mask threshold offset: coh >= M_c + k*S_c
DEFAULT_MORPH_RADIUS = 2        # mask cleanup element radius

# The one block grid: orientation and frequency are estimated on
# h // DEFAULT_BLOCK by w // DEFAULT_BLOCK blocks of DEFAULT_BLOCK px, and
# Gabor tiles and minutia orientations read the same blocks, the last block
# row and column also covering the remainder of the image.
DEFAULT_BLOCK = 16
FREQ_MIN = 1.0 / 25.0           # plausible ridge frequency band (cycles/px)
FREQ_MAX = 1.0 / 3.0
FREQ_FALLBACK = 1.0 / 9.0       # used when no block yields a reliable estimate

GABOR_SIGMA = 4.0               # isotropic Gaussian envelope
GABOR_HALF = int(2 * GABOR_SIGMA)  # kernel half-size -> 17x17 support

BINARIZE_WINDOW = 11            # adaptive threshold window on enhanced image

DEFAULT_THETA0 = 12.0                   # spatial match threshold (px)
DEFAULT_THETA1 = math.radians(20.0)     # orientation match threshold
DEFAULT_XY_BIN = 8.0                    # registration accumulator bin (px)
DEFAULT_ANGLE_BIN = math.radians(10.0)  # registration accumulator bin

MAX_MINUTIAE = 256              # template cap, keeps matching cost bounded
TRACE_STEPS = 8                 # skeleton steps walked to orient a minutia

KIND_ENDING = "ending"
KIND_BIFURCATION = "bifurcation"
_KIND_CODE = {KIND_ENDING: 0, KIND_BIFURCATION: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

TEMPLATE_MAGIC = b"FPT1"


# ---------------------------------------------------------------------------
# Domain types

@dataclass(frozen=True)
class Minutia:
    x: float
    y: float
    theta: float  # direction in [0, 2*pi)
    kind: str

    def __post_init__(self):
        if not (0.0 <= self.theta < 2.0 * math.pi):
            raise ValueError(f"theta must be in [0, 2*pi), got {self.theta}")
        if self.kind not in _KIND_CODE:
            raise ValueError(f"kind must be one of {sorted(_KIND_CODE)}, got {self.kind!r}")


@dataclass(frozen=True)
class FingerprintTemplate:
    minutiae: tuple[Minutia, ...]
    image_width: int
    image_height: int

    def __post_init__(self):
        object.__setattr__(self, "minutiae", tuple(self.minutiae))
        if len(self.minutiae) > MAX_MINUTIAE:
            raise ValueError(f"template holds at most {MAX_MINUTIAE} minutiae")

    def __len__(self) -> int:
        return len(self.minutiae)


@dataclass(frozen=True)
class MatchParams:
    theta0: float = DEFAULT_THETA0
    theta1: float = DEFAULT_THETA1
    hough_xy_bin: float = DEFAULT_XY_BIN
    hough_angle_bin: float = DEFAULT_ANGLE_BIN

    def __post_init__(self):
        if min(self.theta0, self.theta1, self.hough_xy_bin, self.hough_angle_bin) <= 0:
            raise ValueError("all match parameters must be strictly positive")
        if self.theta1 >= math.pi:
            raise ValueError("theta1 must be below pi")


@dataclass(frozen=True)
class RegistrationTransform:
    dx: float
    dy: float
    dtheta: float
    support: int

    def __post_init__(self):
        if self.support < 0:
            raise ValueError("support must be >= 0")


# ---------------------------------------------------------------------------
# Segmentation

def coherence_image(img: GrayImage) -> FloatField:
    """Per-pixel structure-tensor coherence over a WxW window, in [0,1].

    Windows with zero gradient energy get coherence 0.
    """
    w = DEFAULT_COHERENCE_WINDOW
    if img.width < w or img.height < w:
        raise ImageTooSmall(f"image must be at least {w}x{w}, got {img.width}x{img.height}")
    gx, gy = gradients(img)
    gxx = gx * gx
    gyy = gy * gy
    gxy = gx * gy

    def wsum(a):
        # uniform_filter computes window means; coherence is a ratio of sums
        # over one window, so the common 1/W^2 factor cancels.
        return ndimage.uniform_filter(a, size=w, mode="nearest")

    sx = wsum(gxx - gyy)
    sxy = wsum(2.0 * gxy)
    denom = wsum(gxx + gyy)
    num = np.sqrt(sx * sx + sxy * sxy)
    # the moving-average window sums cancel only to round-off over flat
    # regions, so treat near-zero gradient energy as zero energy
    live = denom > 1e-12
    coh = np.where(live, num / np.where(live, denom, 1.0), 0.0)
    return FloatField(np.clip(coh, 0.0, 1.0), kind="coherence")


def _foreground_mask(img: GrayImage) -> BinaryImage:
    """The mask of :func:`segment`, without the masked image."""
    coh = coherence_image(img).values
    raw = BinaryImage(coh >= float(coh.mean()) + DEFAULT_MASK_K * float(coh.std()))
    return morph_close_open(raw, DEFAULT_MORPH_RADIUS)


def segment(img: GrayImage) -> tuple[BinaryImage, GrayImage]:
    """Foreground mask from block coherence, plus the masked image.

    Mask keeps pixels with coherence >= M_c + k*S_c (global mean/std of the
    coherence image), cleaned by closing-then-opening; mask-false pixels of
    the returned image are exactly 0.
    """
    mask = _foreground_mask(img)
    return mask, GrayImage(np.where(mask.bits, img.pixels, 0.0))


# ---------------------------------------------------------------------------
# Orientation and frequency fields

def estimate_orientation(img: GrayImage) -> FloatField:
    """Per-block least-squares ridge orientation in [0, pi).

    Gradient orientation phi = atan2(sum 2*gx*gy, sum gx^2-gy^2) / 2; the
    ridge runs orthogonal to it.  Smoothed by averaging doubled-angle vectors
    over 3x3 block neighborhoods; blocks with no gradient energy stay 0.
    """
    block = DEFAULT_BLOCK
    bw, bh = img.width // block, img.height // block
    if bw < 1 or bh < 1:
        raise BlockTooSmall(
            f"image {img.width}x{img.height} is smaller than one {block}-px block")
    gx, gy = gradients(img)

    def block_sum(a):
        trimmed = a[:bh * block, :bw * block]
        return trimmed.reshape(bh, block, bw, block).sum(axis=(1, 3))

    sx = block_sum(gx * gx - gy * gy)
    sxy = block_sum(2.0 * gx * gy)
    phi = 0.5 * np.arctan2(sxy, sx)
    theta = np.mod(phi + 0.5 * math.pi, math.pi)

    # doubled-angle vector smoothing; degenerate blocks contribute a zero
    # vector so they inherit orientation from textured neighbors
    energy = (sx != 0.0) | (sxy != 0.0)
    c = np.where(energy, np.cos(2.0 * theta), 0.0)
    s = np.where(energy, np.sin(2.0 * theta), 0.0)
    c_bar = ndimage.uniform_filter(c, size=3, mode="nearest")
    s_bar = ndimage.uniform_filter(s, size=3, mode="nearest")
    smooth = np.mod(0.5 * np.arctan2(s_bar, c_bar) + math.pi, math.pi)
    degenerate = (np.abs(c_bar) < 1e-12) & (np.abs(s_bar) < 1e-12)
    out = np.where(degenerate, 0.0, smooth)
    return FloatField(np.where(out >= math.pi, 0.0, out), kind="orientation")


def _check_block_grid(img: GrayImage, *grids: FloatField) -> None:
    """ValueError unless each grid holds one value per block of the image."""
    shape = (img.height // DEFAULT_BLOCK, img.width // DEFAULT_BLOCK)
    for grid in grids:
        if grid.values.shape != shape:
            raise ValueError(f"{grid.kind} grid {grid.values.shape} does not match the "
                             f"{shape} blocks of a {img.width}x{img.height} image")


def _cos_sin(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``math.cos`` and ``math.sin`` of the flattened angles (numpy's may differ)."""
    angles = angles.ravel().tolist()
    return np.array([math.cos(a) for a in angles]), np.array([math.sin(a) for a in angles])


def _block_frequencies(img: GrayImage, orientation: FloatField) -> np.ndarray:
    """Per block, 1/mean spacing of the signature peaks clamped to the band, NaN
    below two peaks: all blocks at once, with the per-block float operations in order."""
    _check_block_grid(img, orientation)
    bh, bw = orientation.values.shape
    t = np.arange(-DEFAULT_BLOCK, DEFAULT_BLOCK + 1, dtype=np.float64)  # across the ridges
    bi, bj = np.divmod(np.arange(bh * bw)[:, None], bw)
    cx, cy = bj * DEFAULT_BLOCK + DEFAULT_BLOCK / 2.0, bi * DEFAULT_BLOCK + DEFAULT_BLOCK / 2.0
    nx, ny = (c[:, None] for c in _cos_sin(orientation.values + 0.5 * math.pi))
    rx, ry = (c[:, None] for c in _cos_sin(orientation.values))
    offsets = (-3.0, 0.0, 3.0)
    sig = np.zeros((bh * bw, len(t)))
    for o in offsets:
        sig += _bilinear(img.pixels, cx + o * rx + t * nx, cy + o * ry + t * ny)
    sig /= len(offsets)
    peaks = (sig[:, 1:-1] > sig[:, :-2]) & (sig[:, 1:-1] >= sig[:, 2:])
    count = peaks.sum(axis=1)
    ok = count >= 2
    first = peaks[ok].argmax(axis=1)
    last = peaks.shape[1] - 1 - peaks[ok, ::-1].argmax(axis=1)
    freq = np.full(bh * bw, np.nan)
    # integer gaps between peaks sum to last - first exactly: this is their mean
    freq[ok] = np.minimum(np.maximum(1.0 / ((last - first) / (count[ok] - 1)), FREQ_MIN), FREQ_MAX)
    return freq.reshape(bh, bw)


def estimate_frequency(img: GrayImage, orientation: FloatField) -> FloatField:
    """Per-block ridge frequency from the signature across the ridge flow.

    Each block is sampled along the direction orthogonal to its orientation;
    frequency is 1/mean spacing of signature peaks, clamped to the plausible
    band.  Blocks without peaks take the median of estimated neighbors, and
    if no block at all yields an estimate the global fallback applies.
    ValueError unless the orientation grid is the image's DEFAULT_BLOCK grid.
    """
    freq = _block_frequencies(img, orientation)
    bh, bw = freq.shape

    # propagate estimates into empty blocks: simultaneous rounds of
    # median-of-known-neighbors until the grid stops changing
    while np.isnan(freq).any():
        known = ~np.isnan(freq)
        if not known.any():
            freq[:] = FREQ_FALLBACK
            break
        updated = freq.copy()
        progress = False
        for bi in range(bh):
            for bj in range(bw):
                if known[bi, bj]:
                    continue
                vals = [freq[bi + dy, bj + dx]
                        for dx, dy in NEIGHBOUR_OFFSETS
                        if 0 <= bi + dy < bh and 0 <= bj + dx < bw
                        and known[bi + dy, bj + dx]]
                if vals:
                    updated[bi, bj] = float(np.median(vals))
                    progress = True
        if not progress:
            updated[np.isnan(updated)] = FREQ_FALLBACK
        freq = updated
    return FloatField(freq, kind="frequency")


# ---------------------------------------------------------------------------
# Enhancement

def gabor_enhance(img: GrayImage, orientation: FloatField, frequency: FloatField) -> np.ndarray:
    """Filter each pixel with the Gabor kernel of its block's (theta, freq).

    Returns the raw signed response raster; flat regions map to 0 because the
    kernels carry no DC.  Both fields must hold one value per block of the
    image's DEFAULT_BLOCK grid, else ValueError.
    """
    _check_block_grid(img, orientation, frequency)
    # per block, an even-symmetric kernel across the ridge flow less its own mean
    half = GABOR_HALF
    v, u = np.mgrid[-half:half + 1, -half:half + 1].astype(np.float64)
    cos_phi, sin_phi = (c[:, None, None] for c in _cos_sin(orientation.values + 0.5 * math.pi))
    g = (np.exp(-(u * u + v * v) / (2.0 * GABOR_SIGMA ** 2))
         * np.cos(2.0 * math.pi * frequency.values.reshape(-1, 1, 1) * (u * cos_phi + v * sin_phi)))
    kernels = g - g.mean(axis=(1, 2), keepdims=True)
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(img.pixels, half, mode="edge"),
                                                       u.shape)
    bh, bw = orientation.values.shape
    rows = [DEFAULT_BLOCK * bi for bi in range(bh)] + [img.height]
    cols = [DEFAULT_BLOCK * bj for bj in range(bw)] + [img.width]
    out = np.zeros((img.height, img.width))
    for k, (bi, bj) in enumerate(np.ndindex(bh, bw)):
        tile = np.s_[rows[bi]:rows[bi + 1], cols[bj]:cols[bj + 1]]
        out[tile] = np.tensordot(windows[tile], kernels[k], axes=([2, 3], [0, 1]))
    return out


# ---------------------------------------------------------------------------
# Minutiae extraction

# the (dx, dy) offsets of the foreground neighbours of every neighbour code;
# codes count pixels beyond the border as background, so none leaves the image
_CODE_OFFSETS = tuple(tuple(off for i, off in enumerate(NEIGHBOUR_OFFSETS) if code >> i & 1)
                      for code in range(256))


def _skeleton_neighbors(codes: np.ndarray, x: int, y: int) -> list[tuple[int, int]]:
    return [(x + dx, y + dy) for dx, dy in _CODE_OFFSETS[codes[y, x]]]


def _walk_arm(codes: np.ndarray, start: tuple[int, int], first: tuple[int, int],
              max_steps: int) -> tuple[int, int]:
    """Follow a skeleton arm from `start` through `first`; return the farthest
    pixel reached within max_steps (stops early at junctions or arm ends)."""
    visited = {start, first}
    cur = first
    for _ in range(max_steps - 1):
        nxt = [q for q in _skeleton_neighbors(codes, *cur) if q not in visited]
        if len(nxt) != 1:
            break
        cur = nxt[0]
        visited.add(cur)
    return cur


def _lift_direction(theta_base: float, vx: float, vy: float) -> float:
    """Lift a [0,pi) ridge orientation to [0,2*pi) toward the vector (vx,vy)."""
    facing = vx * math.cos(theta_base) + vy * math.sin(theta_base) >= 0.0
    return (theta_base if facing else theta_base + math.pi) % (2.0 * math.pi)


def extract_minutiae(thinned: BinaryImage, orientation: FloatField,
                     mask: BinaryImage) -> list[Minutia]:
    """Classify skeleton pixels by crossing number; report endings and
    bifurcations inside the mask, with directions lifted along their arms."""
    bits = thinned.bits
    bh, bw = orientation.values.shape
    codes = neighbour_codes(bits)
    cn = CROSSING_NUMBERS[codes]
    out: list[Minutia] = []
    ys, xs = np.nonzero(bits & ((cn == 1) | (cn == 3)))
    for y, x in zip(ys.tolist(), xs.tolist()):
        if not mask.bits[y, x]:
            continue
        bi = min(y // DEFAULT_BLOCK, bh - 1)
        bj = min(x // DEFAULT_BLOCK, bw - 1)
        theta_base = float(orientation.values[bi, bj])
        neighbors = _skeleton_neighbors(codes, x, y)
        if cn[y, x] == 1:
            kind = KIND_ENDING
            if neighbors:
                fx, fy = _walk_arm(codes, (x, y), neighbors[0], TRACE_STEPS)
                vx, vy = fx - x, fy - y
            else:
                vx, vy = math.cos(theta_base), math.sin(theta_base)
        else:
            kind = KIND_BIFURCATION
            vx = vy = 0.0
            for nb in neighbors:
                fx, fy = _walk_arm(codes, (x, y), nb, TRACE_STEPS)
                norm = math.hypot(fx - x, fy - y)
                if norm > 0:
                    vx += (fx - x) / norm
                    vy += (fy - y) / norm
        still = abs(vx) < 1e-12 and abs(vy) < 1e-12
        theta = theta_base if still else _lift_direction(theta_base, vx, vy)
        out.append(Minutia(float(x), float(y), theta, kind))
    return out


# ---------------------------------------------------------------------------
# False-minutiae filtering

def _border_distance(mask: BinaryImage) -> np.ndarray:
    """Distance from each pixel to the nearest mask-false pixel, counting the
    image frame itself as background."""
    framed = np.pad(mask.bits, 1, mode="constant", constant_values=False)
    dist = ndimage.distance_transform_edt(framed)
    return dist[1:-1, 1:-1]


def _angle_diff(a: float, b: float) -> float:
    """Absolute circular difference of two directions, in [0, pi]."""
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _trace_to_junction(codes: np.ndarray, ending: tuple[int, int],
                       max_steps: int) -> tuple[tuple[int, int] | None, int]:
    """Walk from an ending along its arm; return (junction pixel, steps) if a
    pixel of crossing number >= 3 is reached within max_steps, else
    (None, steps)."""
    visited = {ending}
    cur = ending
    steps = 0
    while steps < max_steps:
        nxt = [q for q in _skeleton_neighbors(codes, *cur) if q not in visited]
        if not nxt:
            return None, steps
        # the junction pixel itself may sit among a fan-out of continuations
        for q in nxt:
            if CROSSING_NUMBERS[codes[q[1], q[0]]] >= 3:
                return q, steps + 1
        if len(nxt) > 1:
            return None, steps
        cur = nxt[0]
        visited.add(cur)
        steps += 1
    return None, steps


def _two_paths(codes: np.ndarray, a: tuple[int, int], b: tuple[int, int],
               max_steps: int) -> bool:
    """True when two skeleton paths no longer than max_steps join a and b."""

    def shortest(blocked: set[tuple[int, int]]) -> list[tuple[int, int]] | None:
        prev: dict[tuple[int, int], tuple[int, int]] = {}
        seen = {a}
        queue = deque([(a, 0)])
        while queue:
            cur, d = queue.popleft()
            if cur == b:
                path = [cur]
                while path[-1] != a:
                    path.append(prev[path[-1]])
                return path
            if d == max_steps:
                continue
            for q in _skeleton_neighbors(codes, *cur):
                if q in seen or q in blocked:
                    continue
                seen.add(q)
                prev[q] = cur
                queue.append((q, d + 1))
        return None

    first = shortest(set())
    if first is None:
        return False
    interior = set(first) - {a, b}
    return shortest(interior) is not None


def _close_pairs(minutiae: list[Minutia], gap: float) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, of minutiae less than `gap` apart: a sweep
    in x order that ends each scan once the x offset alone reaches `gap`."""
    order = sorted(range(len(minutiae)), key=lambda i: minutiae[i].x)
    pairs = []
    for s, a in enumerate(order):
        ma = minutiae[a]
        for t in range(s + 1, len(order)):
            b = order[t]
            mb = minutiae[b]
            if mb.x - ma.x >= gap:
                break
            if math.hypot(ma.x - mb.x, ma.y - mb.y) < gap:
                pairs.append((min(a, b), max(a, b)))
    return pairs


def filter_false_minutiae(minutiae: list[Minutia], thinned: BinaryImage,
                          mask: BinaryImage, avg_ridge_gap: float) -> list[Minutia]:
    """Drop artifact minutiae: border effects, ridge breaks, spurs/spikes,
    holes, and bridges/ladders, in that order.

    Each rule marks every qualifying minutia against the survivors of the
    previous rule and removes them together, so re-filtering the output is a
    no-op for the pair rules.
    """
    return _filter_minutiae(minutiae, thinned, _border_distance(mask), avg_ridge_gap)


def _filter_minutiae(minutiae: list[Minutia], thinned: BinaryImage,
                     border: np.ndarray, avg_ridge_gap: float) -> list[Minutia]:
    """:func:`filter_false_minutiae` given the mask's `_border_distance`."""
    if avg_ridge_gap <= 0:
        raise ValueError("avg_ridge_gap must be positive")
    gap = avg_ridge_gap
    steps = max(1, int(math.ceil(gap)))

    current = [m for m in minutiae
               if border[int(round(m.y)), int(round(m.x))] >= gap]

    # ridge break: facing ending pairs across a small gap
    drop: set[int] = set()
    for a, b in _close_pairs(current, gap):
        ma, mb = current[a], current[b]
        if ma.kind != KIND_ENDING or mb.kind != KIND_ENDING:
            continue
        if abs(_angle_diff(ma.theta, mb.theta) - math.pi) < math.radians(30.0):
            drop.update((a, b))
    current = [m for i, m in enumerate(current) if i not in drop]

    # spur/spike: an ending hanging off a nearby junction takes the junction
    # minutia down with it
    drop = set()
    codes = neighbour_codes(thinned.bits)
    bif_at = {(int(round(m.x)), int(round(m.y))): i
              for i, m in enumerate(current) if m.kind == KIND_BIFURCATION}
    for i, m in enumerate(current):
        if m.kind != KIND_ENDING:
            continue
        junction, n_steps = _trace_to_junction(codes, (int(round(m.x)), int(round(m.y))), steps)
        if junction is not None and n_steps < gap:
            drop.add(i)
            if junction in bif_at:
                drop.add(bif_at[junction])
    current = [m for i, m in enumerate(current) if i not in drop]

    # hole: twin bifurcations joined by two short paths (a loop)
    drop = set()
    for a, b in _close_pairs(current, gap):
        ma, mb = current[a], current[b]
        if ma.kind != KIND_BIFURCATION or mb.kind != KIND_BIFURCATION:
            continue
        pa = (int(round(ma.x)), int(round(ma.y)))
        pb = (int(round(mb.x)), int(round(mb.y)))
        if _two_paths(codes, pa, pb, 2 * steps):
            drop.update((a, b))
    current = [m for i, m in enumerate(current) if i not in drop]

    # bridge/ladder: close pairs with near-orthogonal ridge directions where
    # at least one member is a bifurcation
    drop = set()
    for a, b in _close_pairs(current, gap):
        ma, mb = current[a], current[b]
        if ma.kind == KIND_ENDING and mb.kind == KIND_ENDING:
            continue
        fold = _angle_diff(ma.theta, mb.theta) % math.pi
        fold = min(fold, math.pi - fold)
        if fold >= math.radians(60.0):
            drop.update((a, b))
    return [m for i, m in enumerate(current) if i not in drop]


# ---------------------------------------------------------------------------
# Registration and matching
#
# One kernel scores a probe against a gallery in blocks of whole templates.
# Its float operations and their order are those of the pairwise definition
# (votes in template-minutia-major order, bin sums left to right), so a
# template's result does not depend on the gallery around it.

_TWO_PI = 2.0 * math.pi
_BLOCK_VOTES = 1 << 14  # votes per block of whole templates; bounds scratch memory


def _minutiae_rows(templates) -> np.ndarray:
    """(n, 4) array of x, y, theta, kind code over the templates' minutiae."""
    rows = [(m.x, m.y, m.theta, _KIND_CODE[m.kind]) for t in templates for m in t.minutiae]
    rows = np.array(rows, dtype=np.float64).reshape(-1, 4)
    if not np.isfinite(rows).all():
        raise ValueError("minutia positions must be finite")
    return rows


def _register_block(block, p: np.ndarray, params: MatchParams):
    """Hough registration of probe rows ``p`` against each template of a
    block: the block's minutia rows, each row's template, the template
    centres, and per template the peak bin's (dtheta, dx, dy, support)."""
    t = _minutiae_rows(block)
    owner = np.repeat(np.arange(len(block)), [len(x.minutiae) for x in block])
    centre = np.array([(x.image_width / 2.0, x.image_height / 2.0) for x in block])
    cx, cy = centre[owner, 0, None], centre[owner, 1, None]
    dtheta = np.mod(p[:, 2] - t[:, 2, None] + math.pi, _TWO_PI) - math.pi
    dtheta[dtheta == -math.pi] = math.pi
    c, s = np.cos(dtheta), np.sin(dtheta)
    ox, oy = t[:, 0, None] - cx, t[:, 1, None] - cy
    votes = [dtheta.ravel(), (p[:, 0] - (cx + c * ox - s * oy)).ravel(),
             (p[:, 1] - (cy + s * ox + c * oy)).ravel()]
    bins = (params.hough_angle_bin, params.hough_xy_bin, params.hough_xy_bin)
    keys = [owner.repeat(len(p))] + [np.rint(v / b) for v, b in zip(votes, bins)]
    # Keys that fit in int16 take lexsort's radix path; the order is the same.
    keys = [k.astype(np.int16) if np.abs(k).max() < 2**15 else k for k in keys]
    order = np.lexsort(keys[::-1])
    keys = [k[order] for k in keys]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    group = np.cumsum(first) - 1
    n = np.bincount(group)
    dt, dx, dy = (np.bincount(group, weights=v[order]) / n for v in votes)
    # Per template, narrow its bins rank by rank to the peak.
    bin_owner = keys[0][first]
    starts = np.flatnonzero(np.r_[True, bin_owner[1:] != bin_owner[:-1]])
    best = np.ones(len(n), dtype=bool)
    for rank in (-n, np.abs(dt), np.abs(dx) + np.abs(dy)):
        rank = np.where(best, rank, np.inf)
        best &= rank == np.minimum.reduceat(rank, starts)[bin_owner]
    peak = np.flatnonzero(best)
    peak = peak[np.r_[True, bin_owner[peak[1:]] != bin_owner[peak[:-1]]]]
    return t, owner, centre, (dt[peak], dx[peak], dy[peak], n[peak])


def _pair_block(t, owner, centre, p, reg, params: MatchParams) -> list[int]:
    """Per template of a block, the greedy count of paired minutiae: probe
    rows mapped back into the template frame by its registration, candidate
    pairs of equal kind within the spatial and orientation thresholds taken
    closest first, ties by (template index, probe index)."""
    dt, dx, dy, _ = reg
    cx, cy = centre[:, 0, None], centre[:, 1, None]
    c, s = np.cos(-dt)[:, None], np.sin(-dt)[:, None]
    ox, oy = (p[:, 0] - dx[:, None]) - cx, (p[:, 1] - dy[:, None]) - cy
    ex = t[:, 0, None] - (cx + c * ox - s * oy)[owner]
    ey = t[:, 1, None] - (cy + s * ox + c * oy)[owner]
    turn = np.mod(t[:, 2, None] - np.mod(p[:, 2] - dt[:, None], _TWO_PI)[owner], _TWO_PI)
    # np.hypot may differ from math.hypot in the last bit: keep a little
    # slack here and decide on the exact distance below.
    near = ((t[:, 3, None] == p[:, 3])
            & (np.hypot(ex, ey) <= params.theta0 * (1.0 + 1e-9))
            & (np.minimum(turn, _TWO_PI - turn) <= params.theta1))
    rows, cols = np.nonzero(near)
    dist = np.array([math.hypot(a, b) for a, b in zip(ex[near].tolist(), ey[near].tolist())])
    keep = dist <= params.theta0
    rows, cols, dist = rows[keep], cols[keep], dist[keep]
    order = np.lexsort((cols, rows, dist))
    rows, cols = rows[order], cols[order]
    matched = [0] * len(centre)
    used: set = set()  # template rows, and (template, probe column) pairs
    for row, o, col in zip(rows.tolist(), owner[rows].tolist(), cols.tolist()):
        if row not in used and (o, col) not in used:
            used.update((row, (o, col)))
            matched[o] += 1
    return matched


def register_minutiae(template: FingerprintTemplate, probe: FingerprintTemplate,
                      params: MatchParams = MatchParams()) -> RegistrationTransform:
    """Vote (dtheta, dx, dy) over all minutia pairs in a quantized accumulator
    and return the peak bin's transform refined by averaging its raw votes.

    Ties between equally supported bins go to the smallest |dtheta|, then the
    smallest |dx|+|dy| of the refined transform, then the smallest bin key.
    """
    if len(template) == 0 or len(probe) == 0:
        raise EmptyTemplate("registration needs non-empty minutiae sets")
    *_, (dt, dx, dy, n) = _register_block([template], _minutiae_rows([probe]), params)
    return RegistrationTransform(float(dx[0]), float(dy[0]), float(dt[0]), int(n[0]))


def match_minutiae_many(templates, probe: FingerprintTemplate,
                        params: MatchParams = MatchParams()) -> list[float]:
    """``[match_minutiae(t, probe, params) for t in templates]``, computed in
    one pass over blocks of whole templates."""
    templates = list(templates)
    sizes = [len(t.minutiae) for t in templates]
    scores = [0.0] * len(templates)
    votes = np.array(sizes, dtype=np.int64) * len(probe)
    live = np.flatnonzero(votes)
    if len(live) == 0:
        return scores
    p = _minutiae_rows([probe])
    # A block starts at each template whose preceding votes pass a multiple
    # of _BLOCK_VOTES, so it casts under _BLOCK_VOTES plus one template's.
    start = (np.cumsum(votes) - votes)[live] // _BLOCK_VOTES
    for block in np.split(live, np.flatnonzero(np.diff(start)) + 1):
        block = block.tolist()
        t, owner, centre, reg = _register_block([templates[i] for i in block], p, params)
        for i, matched in zip(block, _pair_block(t, owner, centre, p, reg, params)):
            scores[i] = matched / max(sizes[i], len(probe))
    return scores


def match_minutiae(template: FingerprintTemplate, probe: FingerprintTemplate,
                   params: MatchParams = MatchParams()) -> float:
    """Similarity in [0,1]: greedily pair registered minutiae, closest pairs
    first, within the spatial/orientation thresholds and with equal kind;
    score = matched / max(|template|, |probe|), 0.0 when either is empty."""
    return match_minutiae_many([template], probe, params)[0]


# ---------------------------------------------------------------------------
# Full pipeline

@dataclass(frozen=True)
class PipelineArtifacts:
    """Intermediate rasters kept for inspection dumps."""
    mask: BinaryImage
    orientation: FloatField
    frequency: FloatField
    enhanced: np.ndarray
    binarized: BinaryImage
    thinned: BinaryImage
    raw_minutiae: list[Minutia]


def build_template(img: GrayImage, keep_artifacts: bool = False):
    """End-to-end extraction: segment, estimate fields, enhance, binarize,
    thin, extract and filter minutiae, cap to the template limit.

    Returns the template, or (template, PipelineArtifacts) when asked.
    """
    mask = _foreground_mask(img)
    orientation = estimate_orientation(img)
    frequency = estimate_frequency(img, orientation)
    enhanced = gabor_enhance(img, orientation, frequency)
    binarized = adaptive_threshold(enhanced, BINARIZE_WINDOW)
    ridge_bits = BinaryImage(binarized.bits & mask.bits)
    thinned = thin(ridge_bits)
    raw = extract_minutiae(thinned, orientation, mask)
    gap = 1.0 / float(np.median(frequency.values))
    border = _border_distance(mask)
    kept = _filter_minutiae(raw, thinned, border, gap)

    if len(kept) > MAX_MINUTIAE:
        scored = sorted(range(len(kept)),
                        key=lambda i: (-border[int(round(kept[i].y)), int(round(kept[i].x))], i))
        keep_idx = sorted(scored[:MAX_MINUTIAE])
        kept = [kept[i] for i in keep_idx]

    template = FingerprintTemplate(tuple(kept), img.width, img.height)
    if keep_artifacts:
        return template, PipelineArtifacts(mask, orientation, frequency, enhanced,
                                           binarized, thinned, raw)
    return template


# ---------------------------------------------------------------------------
# Binary template format

def encode_template(template: FingerprintTemplate) -> bytes:
    """Serialize: magic, LE u16 count/width/height, then per minutia
    (f32 x, f32 y, f32 theta, u8 kind, 3 pad bytes)."""
    parts = [TEMPLATE_MAGIC,
             struct.pack("<HHH", len(template), template.image_width, template.image_height)]
    for m in template.minutiae:
        parts.append(struct.pack("<fffB3x", m.x, m.y, m.theta, _KIND_CODE[m.kind]))
    return b"".join(parts)


def decode_template(data: bytes) -> FingerprintTemplate:
    if data[:4] != TEMPLATE_MAGIC:
        raise BadMagic(f"expected {TEMPLATE_MAGIC!r} header, got {data[:4]!r}")
    if len(data) < 10:
        raise TruncatedData("template header truncated")
    count, width, height = struct.unpack_from("<HHH", data, 4)
    if count > MAX_MINUTIAE:
        raise TruncatedData(f"template holds {count} minutiae, at most {MAX_MINUTIAE} allowed")
    need = 10 + 16 * count
    if len(data) < need:
        raise TruncatedData(f"template payload needs {need} bytes, got {len(data)}")
    minutiae = []
    for i in range(count):
        x, y, theta, code = struct.unpack_from("<fffB", data, 10 + 16 * i)
        if code not in _CODE_KIND:
            raise TruncatedData(f"unknown minutia kind code {code}")
        if not math.isfinite(x + y + theta):
            raise TruncatedData(f"minutia {i} has a non-finite field")
        theta = min(max(float(theta), 0.0), math.nextafter(2.0 * math.pi, 0.0))
        minutiae.append(Minutia(float(x), float(y), theta, _CODE_KIND[code]))
    return FingerprintTemplate(tuple(minutiae), width, height)
