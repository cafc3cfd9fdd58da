"""Fingerprint pipeline: segmentation, orientation/frequency estimation,
Gabor enhancement, minutiae extraction and filtering, registration, matching.

Coordinates are (x right, y down); ridge orientation is an angle in [0, pi)
measured from +x, and minutia direction is its lift to [0, 2*pi) along the
departing ridge.
"""

from __future__ import annotations

import copy
import math
import struct
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
TEMPLATE_MAX_BYTES = 10 + 16 * MAX_MINUTIAE  # header, then 16 bytes per minutia


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


@dataclass(frozen=True, eq=False, init=False)
class FingerprintTemplate:
    """The minutiae of one print as ``rows``, a read-only (n, 4) float64 array
    of x, y, theta and kind code, one row per minutia, and the image size;
    ``minutiae`` builds the :class:`Minutia` tuple from the rows on each call."""

    rows: np.ndarray
    image_width: int
    image_height: int

    def __init__(self, minutiae, image_width: int, image_height: int):
        rows = np.array([(m.x, m.y, m.theta, _KIND_CODE[m.kind]) for m in minutiae],
                        dtype=np.float64).reshape(-1, 4)
        if len(rows) > MAX_MINUTIAE:
            raise ValueError(f"template holds at most {MAX_MINUTIAE} minutiae")
        rows.setflags(write=False)
        self.__dict__.update(rows=rows, image_width=image_width, image_height=image_height)

    @property
    def minutiae(self) -> tuple[Minutia, ...]:
        return tuple(Minutia(x, y, t, _CODE_KIND[k]) for x, y, t, k in self.rows.tolist())

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, FingerprintTemplate) and np.array_equal(self.rows, other.rows)
                and (self.image_width, self.image_height) == (other.image_width, other.image_height))

    def __hash__(self) -> int:  # + 0.0 maps -0.0 to 0.0, which compares equal to it
        return hash((self.image_width, self.image_height, (self.rows + 0.0).tobytes()))


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


def _border_distance(mask: BinaryImage) -> np.ndarray:
    """Distance from each pixel to the nearest mask-false pixel, counting the
    image frame itself as background."""
    framed = np.pad(mask.bits, 1, mode="constant", constant_values=False)
    dist = ndimage.distance_transform_edt(framed)
    return dist[1:-1, 1:-1]


def segment(img: GrayImage) -> tuple[BinaryImage, np.ndarray]:
    """Foreground mask from block coherence, plus its border distance.

    Mask keeps pixels with coherence >= M_c + k*S_c (global mean/std of the
    coherence image), cleaned by closing-then-opening.  The border raster
    holds each pixel's distance to the nearest mask-false pixel or the image
    frame, so it is 0 off the mask and at least 1 on it.
    """
    coh = coherence_image(img).values
    raw = BinaryImage(coh >= float(coh.mean()) + DEFAULT_MASK_K * float(coh.std()))
    mask = morph_close_open(raw, DEFAULT_MORPH_RADIUS)
    return mask, _border_distance(mask)


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
        if np.isnan(freq).all():
            freq[:] = FREQ_FALLBACK
            break
        framed = np.pad(freq, 1, constant_values=np.nan)
        hood = np.sort([framed[1 + dy:1 + dy + bh, 1 + dx:1 + dx + bw]
                        for dx, dy in NEIGHBOUR_OFFSETS], axis=0)  # unknowns last
        n = np.count_nonzero(~np.isnan(hood), axis=0)
        # np.median's mean of the middle pair; an odd count's one middle x is (x + x) / 2
        lo, hi = np.take_along_axis(hood, np.stack([np.maximum(n - 1, 0) // 2, n // 2]), 0)
        fill = np.isnan(freq) & (n > 0)
        freq = np.where(fill, (lo + hi) / 2.0, freq)
        if not fill.any():
            freq[np.isnan(freq)] = FREQ_FALLBACK
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

# per neighbour code, which neighbours of NEIGHBOUR_OFFSETS are foreground;
# codes count pixels beyond the border as background, so none leaves the image
_NEIGHBOURS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)


# math.hypot of every offset an arm walk of TRACE_STEPS pixels can reach
_ARM_HYPOT = np.array([[math.hypot(dx, dy) for dy in range(-TRACE_STEPS, TRACE_STEPS + 1)]
                       for dx in range(-TRACE_STEPS, TRACE_STEPS + 1)])


def _flat_offsets(width: int) -> np.ndarray:
    """NEIGHBOUR_OFFSETS as steps between flat indices of a raster `width` wide."""
    return np.array([dy * width + dx for dx, dy in NEIGHBOUR_OFFSETS])


def _skeleton_codes(skeleton: BinaryImage) -> np.ndarray:
    """The skeleton's neighbour codes: the ones build_template keeps on its own
    copy of the skeleton, else new ones."""
    codes = skeleton.__dict__.get("_codes")
    return neighbour_codes(skeleton.bits) if codes is None else codes


def _walk(codes: np.ndarray, paths: np.ndarray, steps: int,
          stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk every path on by at most `steps` skeleton steps, all in lockstep.

    Each column of `paths` holds a path's pixels so far, as flat indices.  A
    path steps to its last pixel's one unvisited neighbour and ends where
    there is none or more than one; when `stop`, a table over neighbour
    codes, marks an unvisited neighbour's code, the path steps onto the first
    such in NEIGHBOUR_OFFSETS order and ends there.  Returns each path's last
    pixel and the steps it took.
    """
    flat, offsets = codes.ravel(), _flat_offsets(codes.shape[1])
    last, taken = paths[-1].copy(), np.zeros(paths.shape[1], dtype=np.int64)
    live = np.arange(paths.shape[1])
    for step in range(1, steps + 1):
        if not len(live):
            break
        q = paths[-1][:, None] + offsets
        fresh = _NEIGHBOURS[flat[paths[-1]]] & ~(q == paths[:, :, None]).any(axis=0)
        hit = fresh & stop[flat.take(q, mode="clip")]  # clips only pixels not fresh
        ends = hit.any(axis=1)
        move = ends | (fresh.sum(axis=1) == 1)
        # the first stop if any, else the first unvisited neighbour
        nxt = q[np.arange(len(q)), (fresh.view(np.uint8) + hit).argmax(axis=1)]
        last[live[move]], taken[live[move]] = nxt[move], step
        go = move & ~ends
        paths, live = np.concatenate([paths[:, go], nxt[None, go]]), live[go]
    return last, taken


def extract_minutiae(thinned: BinaryImage, orientation: FloatField,
                     mask: BinaryImage) -> list[Minutia]:
    """Classify skeleton pixels by crossing number; report endings and
    bifurcations inside the mask, with directions lifted along their arms."""
    bits = thinned.bits
    bh, bw = orientation.values.shape
    codes = _skeleton_codes(thinned)
    ys, xs = np.nonzero(bits & mask.bits)
    cn = CROSSING_NUMBERS[codes[ys, xs]]
    pick = (cn == 1) | (cn == 3)
    ys, xs, ending = ys[pick], xs[pick], cn[pick] == 1
    theta_base = orientation.values[np.minimum(ys // DEFAULT_BLOCK, bh - 1),
                                    np.minimum(xs // DEFAULT_BLOCK, bw - 1)]
    # an ending walks its first arm and a bifurcation every arm, TRACE_STEPS
    # pixels at most, stopping early at junctions and arm ends
    arms = _NEIGHBOURS[codes[ys, xs]]
    arms[ending] &= np.cumsum(arms[ending], axis=1) == 1
    owner, k = np.nonzero(arms)
    start = ys[owner] * bits.shape[1] + xs[owner]
    paths = np.stack([start, start + _flat_offsets(bits.shape[1])[k]])
    far, _ = _walk(codes, paths, TRACE_STEPS - 1, np.zeros(256, dtype=bool))
    dy, dx = np.divmod(far, bits.shape[1])
    dx, dy = dx - xs[owner], dy - ys[owner]
    # an ending points along its arm, a bifurcation along the sum of its arms'
    # unit vectors, added in arm order (a zero arm adds 0 / 1)
    norm = _ARM_HYPOT[dx + TRACE_STEPS, dy + TRACE_STEPS]
    norm = np.where(ending[owner] | (norm == 0.0), 1.0, norm)
    vx, vy = np.zeros(len(ys)), np.zeros(len(ys))
    np.add.at(vx, owner, dx / norm)
    np.add.at(vy, owner, dy / norm)
    # lift the ridge orientation to the side the vector points to
    cos, sin = _cos_sin(theta_base)
    still = (np.abs(vx) < 1e-12) & (np.abs(vy) < 1e-12)
    away = ~still & (vx * cos + vy * sin < 0.0)
    theta = np.where(away, np.mod(theta_base + math.pi, 2.0 * math.pi), theta_base)
    return [Minutia(float(x), float(y), t, KIND_ENDING if e else KIND_BIFURCATION)
            for x, y, t, e in zip(xs.tolist(), ys.tolist(), theta.tolist(), ending.tolist())]


# ---------------------------------------------------------------------------
# False-minutiae filtering

def _angle_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Absolute circular difference of directions, in [0, pi], elementwise."""
    d = np.mod(a - b, 2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def _search(codes: np.ndarray, a: np.ndarray, b: np.ndarray, steps: int,
            blocked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per pair i, whether a breadth-first search from pixel a[i] reaches b[i]
    within `steps` skeleton steps, and the inner pixels of the paths found.

    All pairs search level by level, pixels keyed ``i * codes.size + pixel``;
    keys in `blocked` are never entered.  A pixel's predecessor is the first
    node to discover it in the order of one FIFO queue that scans
    NEIGHBOUR_OFFSETS, so each path is the one such a queue finds.  A
    neighbour of a level-d pixel lies on level d - 1, d or d + 1, so only the
    last two levels are checked for pixels already seen.  Pixels farther from
    b than the steps left are dropped: they cannot discover a pixel of a path
    found, since all its discoverers lie within reach of b.
    """
    size, flat, offsets = codes.size, codes.ravel(), _flat_offsets(codes.shape[1])
    blocked = np.append(np.sort(blocked), np.iinfo(np.int64).max)  # ends above every key
    pair = np.arange(len(a))
    source, goal = pair * size + a, pair * size + b
    goal_row, goal_col = np.divmod(b, codes.shape[1])
    found = a == b
    before, frontier = source[:0], source[~found]
    nodes, parents = [source], [source]
    for left in range(steps - 1, -1, -1):  # the steps left after this one
        if not len(frontier):
            break
        fresh = _NEIGHBOURS[flat[frontier % size]]
        cand, par = (frontier[:, None] + offsets)[fresh], np.repeat(frontier, fresh.sum(axis=1))
        row, col = np.divmod(cand % size, codes.shape[1])
        near = np.maximum(np.abs(row - goal_row[cand // size]),
                          np.abs(col - goal_col[cand // size])) <= left
        cand, par = cand[near], par[near]
        known = len(before) + len(frontier)
        first = np.unique(np.concatenate([before, frontier, cand]), return_index=True)[1]
        new = np.sort(first[first >= known]) - known
        new = new[blocked[np.searchsorted(blocked, cand[new])] != cand[new]]
        nodes.append(cand[new])
        parents.append(par[new])
        found[nodes[-1][nodes[-1] == goal[nodes[-1] // size]] // size] = True
        before, frontier = frontier, nodes[-1][~found[nodes[-1] // size]]
    nodes, parents = np.concatenate(nodes), np.concatenate(parents)
    order = np.argsort(nodes)
    nodes, parents = nodes[order], parents[order]
    inner, cur = [], goal[found]
    while len(cur):
        cur = parents[np.searchsorted(nodes, cur)]
        cur = cur[cur != source[cur // size]]
        inner.append(cur)
    return found, np.concatenate([source[:0], *inner])


def _close_pairs(x: np.ndarray, y: np.ndarray, gap: float) -> np.ndarray:
    """Rows (a, b), a < b, of the indices of points less than `gap` apart: one
    sweep over x-order windows of offset under `gap`, each pair decided as
    ``math.hypot`` decides it."""
    order = np.argsort(x, kind="stable")
    # x[t] - x[s] < gap needs x[t] < x[s] + gap exactly, so x[t] <= the rounded sum
    ends = np.searchsorted(x[order], x[order] + gap, side="right")
    s = np.repeat(np.arange(len(x)), ends - np.arange(len(x)) - 1)
    t = np.arange(len(s)) - np.searchsorted(s, s) + s + 1  # s + 1 .. ends[s] - 1
    s, t = order[s], order[t]
    # np.hypot and math.hypot may differ in the last bit: math.hypot decides
    # the pairs in a margin around the gap
    dx, dy = x[t] - x[s], y[t] - y[s]
    dist = np.hypot(dx, dy)
    near = dist < gap * (1.0 - 1e-9)
    band = np.flatnonzero(~near & (dist <= gap * (1.0 + 1e-9)))
    near[band] = [math.hypot(u, v) < gap for u, v in zip(dx[band].tolist(), dy[band].tolist())]
    return np.sort(np.stack([s[near], t[near]], axis=1), axis=1)


def filter_false_minutiae(minutiae: list[Minutia], thinned: BinaryImage,
                          border: np.ndarray, avg_ridge_gap: float) -> list[Minutia]:
    """Drop artifact minutiae: border effects, ridge breaks, spurs/spikes,
    holes, and bridges/ladders, in that order.

    ``border`` is the border distance :func:`segment` returns with the mask;
    the border rule drops minutiae closer than ``avg_ridge_gap`` to the mask
    edge.  Each rule marks every qualifying minutia against the survivors of
    the previous rule and removes them together, so re-filtering the output
    is a no-op for the pair rules.
    """
    if avg_ridge_gap <= 0:
        raise ValueError("avg_ridge_gap must be positive")
    gap = avg_ridge_gap
    steps = max(1, int(math.ceil(gap)))
    x, y, theta = (np.array([getattr(m, f) for m in minutiae], dtype=np.float64)
                   for f in ("x", "y", "theta"))
    ending = np.array([m.kind == KIND_ENDING for m in minutiae], dtype=bool)
    row, col = np.rint(y).astype(np.int64), np.rint(x).astype(np.int64)  # round() of each
    kept = border[row, col] >= gap

    live = np.flatnonzero(kept)
    close = live[_close_pairs(x[live], y[live], gap)].reshape(-1, 2)

    def pairs():  # the close pairs of minutiae kept so far
        return close[kept[close].all(axis=1)]

    # ridge break: facing ending pairs across a small gap
    a, b = pairs().T
    hit = ending[a] & ending[b] & (np.abs(_angle_diff(theta[a], theta[b]) - math.pi)
                                   < math.radians(30.0))
    kept[a[hit]] = kept[b[hit]] = False

    # spur/spike: an ending hanging off a nearby junction takes the junction
    # minutia down with it; all endings walk toward their junctions at once
    codes = _skeleton_codes(thinned)
    at = row * codes.shape[1] + col
    ends, bifs = np.flatnonzero(kept & ending), np.flatnonzero(kept & ~ending)
    junction = CROSSING_NUMBERS >= 3
    last, taken = _walk(codes, at[ends][None], steps, junction)
    hit = (taken > 0) & junction[codes.ravel()[last]] & (taken < gap)
    kept[ends[hit]] = False
    bif_at = dict(zip(at[bifs].tolist(), bifs.tolist()))
    for j in last[hit].tolist():
        if j in bif_at:
            kept[bif_at[j]] = False

    # hole: twin bifurcations joined by two short paths (a loop): the first
    # path found, then one that avoids its inner pixels, which a pair with no
    # first path cannot have; all pairs at once
    twins = pairs()
    twins = twins[~ending[twins].any(axis=1)]
    _, inner = _search(codes, at[twins[:, 0]], at[twins[:, 1]], 2 * steps,
                       np.empty(0, dtype=np.int64))
    twice, _ = _search(codes, at[twins[:, 0]], at[twins[:, 1]], 2 * steps, inner)
    kept[twins[twice]] = False

    # bridge/ladder: close pairs with near-orthogonal ridge directions where
    # at least one member is a bifurcation
    a, b = pairs().T
    fold = np.mod(_angle_diff(theta[a], theta[b]), math.pi)
    hit = ~(ending[a] & ending[b]) & (np.minimum(fold, math.pi - fold) >= math.radians(60.0))
    kept[a[hit]] = kept[b[hit]] = False
    return [minutiae[i] for i in np.flatnonzero(kept).tolist()]


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
    rows = np.concatenate([np.empty((0, 4)), *(t.rows for t in templates)])
    if not np.isfinite(rows).all():
        raise ValueError("minutia positions must be finite")
    return rows


def _register_block(block, p: np.ndarray):
    """Hough registration of probe rows ``p`` against each template of a
    block: the block's minutia rows, each row's template, the template
    centres, and per template the peak bin's (dtheta, dx, dy, support)."""
    t = _minutiae_rows(block)
    owner = np.repeat(np.arange(len(block)), [len(x) for x in block])
    centre = np.array([(x.image_width / 2.0, x.image_height / 2.0) for x in block])
    cx, cy = centre[owner, 0, None], centre[owner, 1, None]
    dtheta = np.mod(p[:, 2] - t[:, 2, None] + math.pi, _TWO_PI) - math.pi
    dtheta[dtheta == -math.pi] = math.pi
    c, s = np.cos(dtheta), np.sin(dtheta)
    ox, oy = t[:, 0, None] - cx, t[:, 1, None] - cy
    votes = [dtheta.ravel(), (p[:, 0] - (cx + c * ox - s * oy)).ravel(),
             (p[:, 1] - (cy + s * ox + c * oy)).ravel()]
    bins = (DEFAULT_ANGLE_BIN, DEFAULT_XY_BIN, DEFAULT_XY_BIN)
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


def _pair_block(t, owner, centre, p, reg) -> list[int]:
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
            & (np.hypot(ex, ey) <= DEFAULT_THETA0 * (1.0 + 1e-9))
            & (np.minimum(turn, _TWO_PI - turn) <= DEFAULT_THETA1))
    rows, cols = np.nonzero(near)
    dist = np.array([math.hypot(a, b) for a, b in zip(ex[near].tolist(), ey[near].tolist())])
    keep = dist <= DEFAULT_THETA0
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


def register_minutiae(template: FingerprintTemplate,
                      probe: FingerprintTemplate) -> RegistrationTransform:
    """Vote (dtheta, dx, dy) over all minutia pairs in a quantized accumulator
    and return the peak bin's transform refined by averaging its raw votes.

    Ties between equally supported bins go to the smallest |dtheta|, then the
    smallest |dx|+|dy| of the refined transform, then the smallest bin key.
    """
    if len(template) == 0 or len(probe) == 0:
        raise EmptyTemplate("registration needs non-empty minutiae sets")
    *_, (dt, dx, dy, n) = _register_block([template], _minutiae_rows([probe]))
    return RegistrationTransform(float(dx[0]), float(dy[0]), float(dt[0]), int(n[0]))


def match_minutiae_many(templates, probe: FingerprintTemplate) -> list[float]:
    """``[match_minutiae(t, probe) for t in templates]``, computed in
    one pass over blocks of whole templates."""
    templates = list(templates)
    sizes = [len(t) for t in templates]
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
        t, owner, centre, reg = _register_block([templates[i] for i in block], p)
        for i, matched in zip(block, _pair_block(t, owner, centre, p, reg)):
            scores[i] = matched / max(sizes[i], len(probe))
    return scores


def match_minutiae(template: FingerprintTemplate, probe: FingerprintTemplate) -> float:
    """Similarity in [0,1]: greedily pair registered minutiae, closest pairs
    first, within the spatial/orientation thresholds and with equal kind;
    score = matched / max(|template|, |probe|), 0.0 when either is empty."""
    return match_minutiae_many([template], probe)[0]


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
    img = copy.copy(img)  # the Sobel pair its stages share dies with this call
    mask, border = segment(img)
    orientation = estimate_orientation(img)
    frequency = estimate_frequency(img, orientation)
    enhanced = gabor_enhance(img, orientation, frequency)
    binarized = adaptive_threshold(enhanced, BINARIZE_WINDOW)
    ridge_bits = BinaryImage(binarized.bits & mask.bits)
    thinned = thin(ridge_bits)
    skeleton = copy.copy(thinned)  # extract and filter share its codes, which die with this call
    object.__setattr__(skeleton, "_codes", neighbour_codes(thinned.bits))
    raw = extract_minutiae(skeleton, orientation, mask)
    gap = 1.0 / float(np.median(frequency.values))
    kept = filter_false_minutiae(raw, skeleton, border, gap)

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
    records = np.zeros((len(template), 4), dtype="<f4")
    with np.errstate(over="raise"):  # a field past the float32 range fails, as struct does
        records[:, :3] = template.rows[:, :3]
    records.view(np.uint8)[:, 12] = template.rows[:, 3]
    head = struct.pack("<HHH", len(template), template.image_width, template.image_height)
    return TEMPLATE_MAGIC + head + records.tobytes()


def decode_template(data: bytes) -> FingerprintTemplate:
    if data[:4] != TEMPLATE_MAGIC:
        raise BadMagic(f"expected {TEMPLATE_MAGIC!r} header, got {data[:4]!r}")
    if len(data) < 10:
        raise TruncatedData("template header truncated")
    count, width, height = struct.unpack_from("<HHH", data, 4)
    if count > MAX_MINUTIAE:
        raise TruncatedData(f"template holds {count} minutiae, at most {MAX_MINUTIAE} allowed")
    need = 10 + 16 * count
    if len(data) != need:
        raise TruncatedData(f"template of {count} minutiae must be {need} bytes, got {len(data)}")
    records = np.frombuffer(data, dtype="<f4", count=4 * count, offset=10).reshape(count, 4)
    kinds = records.view(np.uint8)[:, 12]
    if kinds.max(initial=0) >= len(_CODE_KIND):
        raise TruncatedData(f"unknown minutia kind code {kinds.max()}")
    # test before the float64 cast, which warns on a signalling NaN
    if not np.isfinite(records[:, :3]).all():
        raise TruncatedData("a minutia has a non-finite field")
    rows = np.empty((count, 4))
    rows[:, :3], rows[:, 3] = records[:, :3], kinds
    theta = rows[:, 2]  # clamped as min(max(theta, 0.0), below_2pi) would: -0.0 stays
    np.copyto(theta, 0.0, where=theta < 0.0)
    np.minimum(theta, math.nextafter(2.0 * math.pi, 0.0), out=theta)
    rows.setflags(write=False)
    template = object.__new__(FingerprintTemplate)  # owns the fresh rows: no checks, no copy
    template.__dict__.update(rows=rows, image_width=width, image_height=height)
    return template
