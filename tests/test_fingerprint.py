"""Tests for the fingerprint pipeline: segmentation, field estimation,
enhancement, minutiae extraction/filtering, registration, and matching."""
import collections
import functools
import hashlib
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import synthgen
from biolock.errors import (
    BadMagic,
    BlockTooSmall,
    EmptyTemplate,
    ImageTooSmall,
    TruncatedData,
)
from biolock import fingerprint, imaging
from biolock.fingerprint import (
    FREQ_FALLBACK,
    KIND_BIFURCATION,
    KIND_ENDING,
    FingerprintTemplate,
    Minutia,
    RegistrationTransform,
    build_template,
    coherence_image,
    crossing_number,
    decode_template,
    encode_template,
    estimate_frequency,
    estimate_orientation,
    extract_minutiae,
    filter_false_minutiae,
    gabor_enhance,
    match_minutiae,
    match_minutiae_many,
    register_minutiae,
    segment,
)
from biolock.imaging import (
    CROSSING_NUMBERS,
    _bilinear,
    BinaryImage,
    FloatField,
    GrayImage,
    neighbour_codes,
    thin,
)

# neighbor order used when reading a pixel's 8-neighborhood off an array
NEIGH = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))


def ridge_image(size, period, angle=0.0, amp=0.45):
    coords = np.arange(size, dtype=np.float64)
    xg, yg = np.meshgrid(coords, coords)
    u = xg * math.cos(angle) + yg * math.sin(angle)
    return GrayImage(0.5 + amp * np.cos(2.0 * math.pi * u / period))


def skeleton_image(points, size):
    bits = np.zeros((size, size), dtype=bool)
    for x, y in points:
        bits[y, x] = True
    return BinaryImage(bits)


def hline(x0, x1, y):
    return [(x, y) for x in range(x0, x1 + 1)]


def zeros_field(blocks, kind="orientation"):
    return FloatField(np.zeros((blocks, blocks)), kind=kind)


def circ_diff_pi(a, b):
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


KINDS = (KIND_ENDING, KIND_BIFURCATION)  # index = kind code


def as_minutiae(rows):
    """The Minutia list of (n, 4) rows of x, y, theta and kind code, as the
    oracles take and return them; :func:`as_rows` is its inverse."""
    return [Minutia(x, y, t, KINDS[int(k)]) for x, y, t, k in rows.tolist()]


def as_rows(minutiae):
    """The (n, 4) rows of a Minutia list, as the extraction stages pass them."""
    return np.array([(m.x, m.y, m.theta, fingerprint._KIND_CODE[m.kind]) for m in minutiae],
                    dtype=np.float64).reshape(-1, 4)


def make_template(coords, size=256):
    minutiae = tuple(Minutia(float(x), float(y), theta, kind)
                     for x, y, theta, kind in coords)
    return FingerprintTemplate(minutiae, size, size)


def rigid_template(tpl, dx, dy, dtheta):
    cx = tpl.image_width / 2.0
    cy = tpl.image_height / 2.0
    ca, sa = math.cos(dtheta), math.sin(dtheta)
    moved = []
    for m in as_minutiae(tpl.rows):
        x = cx + ca * (m.x - cx) - sa * (m.y - cy) + dx
        y = cy + sa * (m.x - cx) + ca * (m.y - cy) + dy
        moved.append(Minutia(x, y, (m.theta + dtheta) % (2.0 * math.pi), m.kind))
    return FingerprintTemplate(tuple(moved), tpl.image_width, tpl.image_height)


# ---------------------------------------------------------------------------
# coherence

def test_coherence_constant_image_is_zero():
    coh = coherence_image(GrayImage(np.full((64, 64), 0.42)))
    assert np.all(coh.values == 0.0)


def test_coherence_ideal_sinusoid_interior_near_one():
    coh = coherence_image(ridge_image(64, 8))
    interior = coh.values[16:-16, 16:-16]
    assert interior.min() >= 0.99


def test_coherence_uniform_noise_is_low():
    rng = np.random.default_rng(7)
    coh = coherence_image(GrayImage(rng.random((64, 64))))
    assert coh.values[8:-8, 8:-8].mean() < 0.3


def test_coherence_values_within_unit_interval():
    rng = np.random.default_rng(21)
    for _ in range(5):
        img = GrayImage(rng.random((48, 48)))
        coh = coherence_image(img)
        assert coh.values.min() >= 0.0
        assert coh.values.max() <= 1.0


def test_coherence_rejects_small_images():
    with pytest.raises(ImageTooSmall):
        coherence_image(GrayImage(np.full((12, 12), 0.5)))


# ---------------------------------------------------------------------------
# segmentation

def half_ridge_image(size=256, period=8):
    pixels = np.full((size, size), 0.5)
    x = np.arange(size // 2, dtype=np.float64)
    pixels[:, : size // 2] = 0.5 + 0.45 * np.cos(2.0 * math.pi * x / period)
    return GrayImage(pixels)


def test_segment_splits_ridge_and_flat_halves():
    img = half_ridge_image()
    mask = segment(img)
    half = img.width // 2
    ridge_cover = mask.bits[:, :half].mean()
    flat_cover = mask.bits[:, half:].mean()
    assert ridge_cover >= 0.90
    assert flat_cover <= 0.10


def test_segment_covers_fully_ridged_image():
    mask = segment(ridge_image(256, 8, angle=math.pi / 6))
    interior = mask.bits[16:-16, 16:-16]
    assert interior.mean() >= 0.95


def test_segment_border_is_zero_off_the_mask_and_positive_on_it():
    img = half_ridge_image()
    mask = segment(img)
    assert mask.bits.any() and not mask.bits.all()
    ys, xs = np.indices(mask.bits.shape).reshape(2, -1)
    border = fingerprint._border_distance(mask, xs, ys)
    assert np.all(border[~mask.bits[ys, xs]] == 0.0)
    assert np.all(border[mask.bits[ys, xs]] >= 1.0)


def test_segment_mask_invariant_under_affine_rescale():
    rng = np.random.default_rng(3)
    fixtures = [GrayImage(rng.random((64, 64))) for _ in range(3)]
    fixtures.append(half_ridge_image(128))
    for img in fixtures:
        mask = segment(img)
        rescaled = GrayImage(0.5 * img.pixels + 0.25)
        mask2 = segment(rescaled)
        assert np.array_equal(mask.bits, mask2.bits)


# ---------------------------------------------------------------------------
# orientation

def test_orientation_vertical_ridges():
    field = estimate_orientation(ridge_image(128, 8))
    interior = field.values[1:-1, 1:-1]
    assert all(circ_diff_pi(v, math.pi / 2) <= 0.05 for v in interior.ravel())


def test_orientation_rotated_thirty_degrees():
    field = estimate_orientation(ridge_image(128, 8, angle=math.pi / 6))
    target = (math.pi / 2 + math.pi / 6) % math.pi
    interior = field.values[1:-1, 1:-1]
    assert all(circ_diff_pi(v, target) <= 0.07 for v in interior.ravel())


def test_orientation_constant_image_is_zero():
    field = estimate_orientation(GrayImage(np.full((64, 64), 0.3)))
    assert np.all(field.values == 0.0)


def test_orientation_rejects_bad_blocks():
    with pytest.raises(BlockTooSmall):
        estimate_orientation(GrayImage(np.full((15, 32), 0.5)))


# ---------------------------------------------------------------------------
# frequency

def test_frequency_period_eight():
    img = ridge_image(128, 8)
    field = estimate_frequency(img, estimate_orientation(img))
    interior = field.values[1:-1, 1:-1]
    assert np.all(np.abs(interior - 1.0 / 8.0) <= 0.01)


def test_frequency_period_twelve():
    img = ridge_image(144, 12)
    field = estimate_frequency(img, estimate_orientation(img))
    interior = field.values[1:-1, 1:-1]
    assert np.all(np.abs(interior - 1.0 / 12.0) <= 0.01)


def test_frequency_constant_image_falls_back():
    img = GrayImage(np.full((64, 64), 0.6))
    orientation = estimate_orientation(img)
    first_pass = fingerprint._block_frequencies(img, orientation)
    assert np.isnan(first_pass).all()
    assert np.array_equal(first_pass, frequency_oracle(img, orientation), equal_nan=True)
    field = estimate_frequency(img, orientation)
    assert np.all(field.values == FREQ_FALLBACK)


def propagation_oracle(freq):
    """The block-by-block median propagation: simultaneous rounds in which
    every empty block takes np.median of its known 8-neighbours."""
    freq = freq.copy()
    bh, bw = freq.shape
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
                vals = [freq[bi + dy, bj + dx] for dx, dy in NEIGH
                        if 0 <= bi + dy < bh and 0 <= bj + dx < bw and known[bi + dy, bj + dx]]
                if vals:
                    updated[bi, bj] = float(np.median(vals))
                    progress = True
        if not progress:
            updated[np.isnan(updated)] = FREQ_FALLBACK
        freq = updated
    return freq


def assert_propagation_matches_oracle(img, orientation, first_pass):
    with mock.patch.object(fingerprint, "_block_frequencies", lambda *_: first_pass.copy()):
        got = estimate_frequency(img, orientation).values
    assert np.array_equal(got.view(np.int64), propagation_oracle(first_pass).view(np.int64))
    return got


_BAND = st.sampled_from([fingerprint.FREQ_MIN, 0.1, math.nextafter(0.1, 1.0), 1.0 / 9.0,
                         fingerprint.FREQ_MAX]) | st.floats(fingerprint.FREQ_MIN,
                                                            fingerprint.FREQ_MAX)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_frequency_propagation_equals_the_block_loop(data):
    bh, bw = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    img = GrayImage(np.full((bh * 16, bw * 16), 0.5))
    orientation = FloatField(np.zeros((bh, bw)), kind="orientation")
    values = data.draw(st.lists(_BAND, min_size=bh * bw, max_size=bh * bw))
    empty = data.draw(st.lists(st.booleans(), min_size=bh * bw, max_size=bh * bw))
    first_pass = np.where(empty, np.nan, values).reshape(bh, bw)
    assert_propagation_matches_oracle(img, orientation, first_pass)


def test_frequency_propagation_equals_the_block_loop_on_a_probe():
    img, _ = synthgen.plant_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=3)
    orientation = estimate_orientation(img)
    first_pass = fingerprint._block_frequencies(img, orientation)
    assert 10 < np.isnan(first_pass).sum() < first_pass.size
    got = assert_propagation_matches_oracle(img, orientation, first_pass)
    assert np.array_equal(got, estimate_frequency(img, orientation).values)


def test_frequency_rejects_grids_off_the_block_grid():
    # A 12x12 grid on a 128x128 image would sample blocks 8-11 outside it.
    img = ridge_image(128, 8)
    frequency = FloatField(np.full((8, 8), 1.0 / 8.0), kind="frequency")
    for blocks in (12, 4):
        orientation = FloatField(np.zeros((blocks, blocks)), kind="orientation")
        with pytest.raises(ValueError) as freq_error:
            estimate_frequency(img, orientation)
        with pytest.raises(ValueError) as gabor_error:
            gabor_enhance(img, orientation, frequency)
        assert str(freq_error.value) == str(gabor_error.value)


def signature_oracle(pixels, theta, cx, cy):
    """The signature of one block: samples across the ridge flow through its
    centre, averaged over three lines 3 px apart along the flow."""
    t = np.arange(-16, 17, dtype=np.float64)
    nx, ny = math.cos(theta + 0.5 * math.pi), math.sin(theta + 0.5 * math.pi)
    rx, ry = math.cos(theta), math.sin(theta)
    offsets = (-3.0, 0.0, 3.0)
    sig = np.zeros_like(t)
    for o in offsets:
        sx = cx + o * rx + t * nx
        sy = cy + o * ry + t * ny
        sig += _bilinear(pixels, sx, sy)
    sig /= len(offsets)
    return sig


def signature_peaks(sig):
    return [i for i in range(1, len(sig) - 1) if sig[i] > sig[i - 1] and sig[i] >= sig[i + 1]]


def block_signatures(img, orientation):
    bh, bw = orientation.values.shape
    for bi in range(bh):
        for bj in range(bw):
            yield bi, bj, signature_oracle(img.pixels, orientation.values[bi, bj],
                                           bj * 16 + 16 / 2.0, bi * 16 + 16 / 2.0)


def frequency_oracle(img, orientation):
    """The first frequency pass, block by block: 1/mean peak gap clamped to
    the band, NaN where the signature has fewer than two peaks."""
    freq = np.full(orientation.values.shape, np.nan)
    for bi, bj, sig in block_signatures(img, orientation):
        peaks = signature_peaks(sig)
        if len(peaks) >= 2:
            f = 1.0 / float(np.diff(peaks).mean())
            freq[bi, bj] = min(max(f, fingerprint.FREQ_MIN), fingerprint.FREQ_MAX)
    return freq


def assert_frequency_matches_oracle(img, orientation):
    got = fingerprint._block_frequencies(img, orientation)
    assert np.array_equal(got, frequency_oracle(img, orientation), equal_nan=True)
    return got


def test_frequency_equals_oracle_on_zero_one_and_two_peak_blocks():
    # Vertical ridges of long periods leave 0 or 1 peaks in a 33-sample
    # signature; rounding the profile adds plateaus for the >/>= rule.
    seen = set()
    for period, phase in ((96, 0.0), (40, 0.3), (40, 2.0), (20, 1.0), (18, 0.0)):
        coords = np.arange(96, dtype=np.float64)
        profile = 0.5 + 0.4 * np.cos(2.0 * math.pi * coords / period + phase)
        for pixels in (profile, np.round(profile * 8.0) / 8.0):
            img = GrayImage(np.tile(pixels, (80, 1)))
            for orientation in (estimate_orientation(img),
                                FloatField(np.full((5, 6), math.pi / 2), kind="orientation")):
                assert_frequency_matches_oracle(img, orientation)
                seen.update(min(len(signature_peaks(sig)), 2)
                            for *_, sig in block_signatures(img, orientation))
    assert seen == {0, 1, 2}


_THETAS = st.one_of(
    st.sampled_from([0.0, math.nextafter(0.0, 1.0), math.pi / 4, math.pi / 2,
                     math.nextafter(math.pi, 0.0), math.pi - 1e-9]),
    st.floats(0.0, math.pi, exclude_max=True))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_frequency_and_gabor_equal_oracles_on_drawn_fields(data, seed):
    # 90x70 px: 4x5 blocks whose last row and column take a remainder.
    rng = np.random.default_rng(seed)
    img = ridge_image(90, 9, angle=rng.uniform(0.0, math.pi))
    img = GrayImage(np.clip(img.pixels[:70] + rng.normal(0.0, 0.1, (70, 90)), 0.0, 1.0))
    theta = data.draw(st.lists(_THETAS, min_size=20, max_size=20))
    freq = data.draw(st.lists(st.floats(fingerprint.FREQ_MIN, fingerprint.FREQ_MAX),
                              min_size=20, max_size=20))
    orientation = FloatField(np.reshape(theta, (4, 5)), kind="orientation")
    frequency = FloatField(np.reshape(freq, (4, 5)), kind="frequency")
    assert_frequency_matches_oracle(img, orientation)
    assert_gabor_matches_oracle(img, orientation, frequency)


# ---------------------------------------------------------------------------
# gabor enhancement

def signal_crossings(signal):
    out = []
    for i in range(len(signal) - 1):
        a, b = signal[i], signal[i + 1]
        if a == 0.0:
            out.append(float(i))
        elif (a < 0.0) != (b < 0.0):
            out.append(i + a / (a - b))
    return out


def test_gabor_preserves_zero_crossings():
    img = ridge_image(128, 8)
    orientation = estimate_orientation(img)
    frequency = estimate_frequency(img, orientation)
    enhanced = gabor_enhance(img, orientation, frequency)
    for row in (40, 64, 88):
        got = [c + 20 for c in signal_crossings(enhanced[row, 20:108])]
        assert got, "enhanced row lost its oscillation"
        for c in got:
            nearest = 2.0 + 4.0 * round((c - 2.0) / 4.0)
            assert abs(c - nearest) <= 1.0


def test_gabor_improves_noisy_sinusoid():
    rng = np.random.default_rng(11)
    clean = ridge_image(128, 8, amp=0.2)
    noisy = GrayImage(clean.pixels + rng.uniform(-0.3, 0.3, clean.pixels.shape))
    orientation = FloatField(np.full((8, 8), math.pi / 2), kind="orientation")
    frequency = FloatField(np.full((8, 8), 1.0 / 8.0), kind="frequency")
    enhanced = gabor_enhance(noisy, orientation, frequency)
    sl = np.s_[16:-16, 16:-16]
    ref = clean.pixels[sl].ravel()
    corr_enhanced = np.corrcoef(enhanced[sl].ravel(), ref)[0, 1]
    corr_noisy = np.corrcoef(noisy.pixels[sl].ravel(), ref)[0, 1]
    assert corr_enhanced > corr_noisy


def test_gabor_constant_image_zero_response():
    img = GrayImage(np.full((64, 64), 0.55))
    orientation = estimate_orientation(img)
    frequency = estimate_frequency(img, orientation)
    enhanced = gabor_enhance(img, orientation, frequency)
    assert np.max(np.abs(enhanced)) < 1e-12


def kernel_oracle(theta, freq):
    """Even-symmetric Gabor tuned across the ridge flow, mean-compensated,
    built for one block."""
    half = fingerprint.GABOR_HALF
    v, u = np.mgrid[-half:half + 1, -half:half + 1].astype(np.float64)
    phi = theta + 0.5 * math.pi  # direction of intensity variation
    up = u * math.cos(phi) + v * math.sin(phi)
    g = (np.exp(-(u * u + v * v) / (2.0 * fingerprint.GABOR_SIGMA ** 2))
         * np.cos(2.0 * math.pi * freq * up))
    return g - g.mean()


def gabor_oracle(img, orientation, frequency):
    """Each pixel filtered with the kernel of the 16-px block it lies in,
    the last block row and column taking the remainder of the image."""
    half = fingerprint.GABOR_HALF
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(img.pixels, half, mode="edge"), (2 * half + 1, 2 * half + 1))
    bh, bw = orientation.values.shape
    row_block = np.minimum(np.arange(img.height) // 16, bh - 1)
    col_block = np.minimum(np.arange(img.width) // 16, bw - 1)
    out = np.full((img.height, img.width), np.nan)
    for bi in range(bh):
        rows = np.flatnonzero(row_block == bi)
        for bj in range(bw):
            cols = np.flatnonzero(col_block == bj)
            kernel = kernel_oracle(orientation.values[bi, bj], frequency.values[bi, bj])
            out[np.ix_(rows, cols)] = np.tensordot(windows[np.ix_(rows, cols)], kernel,
                                                   axes=([2, 3], [0, 1]))
    return out


# gabor_enhance filters by FFT, which moves the direct sums by round-off: the
# largest change seen, over 234 prints and drawn fields, was 2.1e-14.
GABOR_ROUNDOFF = 1e-12


def assert_gabor_matches_oracle(img, orientation, frequency):
    """gabor_enhance within GABOR_ROUNDOFF of the oracle, and binarized to the
    same pixels; returns the enhanced raster."""
    got = gabor_enhance(img, orientation, frequency)
    want = gabor_oracle(img, orientation, frequency)
    assert got.shape == want.shape and np.max(np.abs(got - want)) <= GABOR_ROUNDOFF
    assert np.array_equal(imaging.adaptive_threshold(got).bits,
                          imaging.adaptive_threshold(want).bits)
    return got


@pytest.mark.parametrize("size", [120, 255])
def test_gabor_tiles_follow_the_16px_block_grid(size):
    # 120 // 7 and 255 // 15 are 17: tiles sized by height // blocks would
    # drift away from the 16-px blocks the fields were estimated on.  Ridges
    # run out to the frame, so the remainder strips carry signal, and the
    # core bends them, so a neighbouring block's kernel filters them wrongly.
    img = synthgen.render_print([(size * 0.4, size * 0.55, 1.0)], beta=0.3, size=size,
                                margin=0)
    orientation = estimate_orientation(img)
    assert orientation.values.shape == (size // 16, size // 16)
    assert_frequency_matches_oracle(img, orientation)
    frequency = estimate_frequency(img, orientation)
    assert_gabor_matches_oracle(img, orientation, frequency)


def test_gabor_chunks_cover_every_tile_once():
    # The top 200 rows of a 255 px print: 12 x 15 blocks with a remainder row
    # and column, so 13 x 16 tiles, which no whole number of chunks covers.
    img = synthgen.render_print([(102.0, 140.0, 1.0)], beta=0.3, size=255)
    img = GrayImage(img.pixels[:200])
    orientation = estimate_orientation(img)
    assert orientation.values.shape == (12, 15)
    assert (13 * 16) % fingerprint._GABOR_CHUNK != 0
    frequency = estimate_frequency(img, orientation)
    got = assert_gabor_matches_oracle(img, orientation, frequency)
    assert gabor_enhance(img, orientation, frequency).tobytes() == got.tobytes()


def gabor_scipy_fft_oracle(img, orientation, frequency):
    """gabor_enhance as it stood on scipy.fft: each chunk's envelope and every
    cosine of its kernels computed afresh, and the kernels flipped."""
    from scipy import fft as sfft

    half, block = fingerprint.GABOR_HALF, fingerprint.DEFAULT_BLOCK
    tile = (block + 2 * half,) * 2
    (bh, bw), th, tw = orientation.values.shape, -(-img.height // block), -(-img.width // block)
    ti, tj = np.divmod(np.arange(th * tw), tw)
    owner = np.minimum(ti, bh - 1) * bw + np.minimum(tj, bw - 1)
    v, u = np.mgrid[-half:half + 1, -half:half + 1].astype(np.float64)
    cos_phi, sin_phi = (c[owner, None, None]
                        for c in fingerprint._cos_sin(orientation.values + 0.5 * math.pi))
    freq = frequency.values.reshape(-1, 1, 1)[owner]
    padded = np.pad(img.pixels, (half, half + block), mode="edge")
    tiles = np.lib.stride_tricks.sliding_window_view(padded, tile)[::block, ::block]
    out = np.empty((th, block, tw, block))
    chunk = fingerprint._GABOR_CHUNK
    for ks in np.split(np.arange(th * tw), range(chunk, th * tw, chunk)):
        g = (np.exp(-(u * u + v * v) / (2.0 * fingerprint.GABOR_SIGMA ** 2))
             * np.cos(2.0 * math.pi * freq[ks] * (u * cos_phi[ks] + v * sin_phi[ks])))
        kernels = g - g.mean(axis=(1, 2), keepdims=True)
        spectra = sfft.rfft2(tiles[ti[ks], tj[ks]]) * sfft.rfft2(kernels[:, ::-1, ::-1], s=tile)
        out[ti[ks], :, tj[ks]] = sfft.irfft2(spectra, s=tile)[:, 2 * half:, 2 * half:]
    return np.ascontiguousarray(out.reshape(th * block, tw * block)[:img.height, :img.width])


def test_gabor_equals_its_scipy_fft_form_bit_for_bit_on_the_pinned_prints():
    cut = synthgen.render_print([(102.0, 140.0, 1.0)], beta=0.3, size=255).pixels[:200]
    for img in [pinned_print(kind, seed) for kind, seed in PINNED_PRINT_DIGESTS] + [GrayImage(cut)]:
        orientation = estimate_orientation(img)
        frequency = estimate_frequency(img, orientation)
        assert (gabor_enhance(img, orientation, frequency).tobytes()
                == gabor_scipy_fft_oracle(img, orientation, frequency).tobytes())


def test_gabor_rejects_grids_off_the_block_grid():
    img = ridge_image(128, 8)
    orientation = FloatField(np.zeros((4, 4)), kind="orientation")
    frequency = FloatField(np.full((4, 4), 1.0 / 8.0), kind="frequency")
    with pytest.raises(ValueError):
        gabor_enhance(img, orientation, frequency)
    with pytest.raises(ValueError):
        gabor_enhance(img, estimate_orientation(img), frequency)


# ---------------------------------------------------------------------------
# crossing number and extraction

def test_crossing_number_oracle_all_256_neighborhoods():
    for pattern in range(256):
        bits = [(pattern >> i) & 1 for i in range(8)]
        transitions = sum(bits[i] == 0 and bits[(i + 1) % 8] == 1
                          for i in range(8))
        assert crossing_number(bits) == transitions


def test_crossing_number_validates_length():
    with pytest.raises(ValueError):
        crossing_number([1, 0, 1])


def cn_map_oracle(bits):
    """Crossing numbers of the skeleton pixels, 0 elsewhere, from padded
    neighbour planes."""
    p = np.pad(bits, 1, mode="constant", constant_values=False).astype(np.int8)
    h, w = bits.shape
    planes = [p[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] for dx, dy in NEIGH]
    cn = sum(np.abs(planes[i] - planes[i - 1]) for i in range(8)) // 2
    return np.where(bits, cn, 0)


def skeleton_neighbors_oracle(bits, x, y):
    """The set neighbours of (x, y) in NEIGH order, bounds-checked."""
    h, w = bits.shape
    return [(x + dx, y + dy) for dx, dy in NEIGH
            if 0 <= x + dx < w and 0 <= y + dy < h and bits[y + dy, x + dx]]


# the (dx, dy) offsets of the foreground neighbours of every neighbour code
_CODE_OFFSETS = tuple(tuple(off for i, off in enumerate(NEIGH) if code >> i & 1)
                      for code in range(256))


def skeleton_neighbors(codes, x, y):
    """The foreground neighbours of (x, y) that its code lists, in NEIGH order."""
    return [(x + dx, y + dy) for dx, dy in _CODE_OFFSETS[codes.item(y, x)]]


def walk_arm_oracle(codes, start, first, max_steps):
    """Follow a skeleton arm from `start` through `first`; return the farthest
    pixel reached within max_steps (stops early at junctions or arm ends)."""
    visited = {start, first}
    cur = first
    for _ in range(max_steps - 1):
        nxt = [q for q in skeleton_neighbors(codes, *cur) if q not in visited]
        if len(nxt) != 1:
            break
        cur = nxt[0]
        visited.add(cur)
    return cur


def lift_direction_oracle(theta_base, vx, vy):
    """Lift a [0,pi) ridge orientation to [0,2*pi) toward the vector (vx,vy)."""
    facing = vx * math.cos(theta_base) + vy * math.sin(theta_base) >= 0.0
    return (theta_base if facing else theta_base + math.pi) % (2.0 * math.pi)


def extract_oracle(thinned, orientation, mask):
    """extract_minutiae as one Python walk per arm of every minutia."""
    bits = thinned.bits
    bh, bw = orientation.values.shape
    codes = neighbour_codes(bits)
    cn = CROSSING_NUMBERS[codes]
    out = []
    ys, xs = np.nonzero(bits & mask.bits & ((cn == 1) | (cn == 3)))
    for y, x in zip(ys.tolist(), xs.tolist()):
        bi = min(y // fingerprint.DEFAULT_BLOCK, bh - 1)
        bj = min(x // fingerprint.DEFAULT_BLOCK, bw - 1)
        theta_base = orientation.values.item(bi, bj)
        neighbors = skeleton_neighbors(codes, x, y)
        if cn.item(y, x) == 1:
            kind = KIND_ENDING
            if neighbors:
                fx, fy = walk_arm_oracle(codes, (x, y), neighbors[0], fingerprint.TRACE_STEPS)
                vx, vy = fx - x, fy - y
            else:
                vx, vy = math.cos(theta_base), math.sin(theta_base)
        else:
            kind = KIND_BIFURCATION
            vx = vy = 0.0
            for nb in neighbors:
                fx, fy = walk_arm_oracle(codes, (x, y), nb, fingerprint.TRACE_STEPS)
                norm = math.hypot(fx - x, fy - y)
                if norm > 0:
                    vx += (fx - x) / norm
                    vy += (fy - y) / norm
        still = abs(vx) < 1e-12 and abs(vy) < 1e-12
        theta = theta_base if still else lift_direction_oracle(theta_base, vx, vy)
        out.append(Minutia(float(x), float(y), theta, kind))
    return out


def trace_to_junction_oracle(codes, ending, max_steps):
    """Walk from an ending along its arm; return (junction pixel, steps) if a
    pixel of crossing number >= 3 is reached within max_steps, else
    (None, steps)."""
    visited = {ending}
    cur = ending
    steps = 0
    while steps < max_steps:
        nxt = [q for q in skeleton_neighbors(codes, *cur) if q not in visited]
        if not nxt:
            return None, steps
        # the junction pixel itself may sit among a fan-out of continuations
        for q in nxt:
            if CROSSING_NUMBERS[codes.item(q[1], q[0])] >= 3:
                return q, steps + 1
        if len(nxt) > 1:
            return None, steps
        cur = nxt[0]
        visited.add(cur)
        steps += 1
    return None, steps


def two_paths_oracle(codes, a, b, max_steps):
    """True when two skeleton paths no longer than max_steps join a and b: a
    FIFO breadth-first search's first path, then a search blocked by its
    inner pixels."""

    def shortest(blocked):
        prev = {}
        seen = {a}
        queue = collections.deque([(a, 0)])
        while queue:
            cur, d = queue.popleft()
            if cur == b:
                path = [cur]
                while path[-1] != a:
                    path.append(prev[path[-1]])
                return path
            if d == max_steps:
                continue
            for q in skeleton_neighbors(codes, *cur):
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


def angle_diff_oracle(a, b):
    """Absolute circular difference of two directions, in [0, pi]."""
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def test_neighbour_codes_equal_bounds_checked_scans_at_every_pixel():
    rng = np.random.default_rng(23)
    for shape in ((1, 1), (1, 7), (6, 1), (2, 2), (9, 13), (32, 32)):
        for density in (0.2, 0.5, 0.9):
            bits = rng.random(shape) < density
            codes = neighbour_codes(bits)
            cn = CROSSING_NUMBERS[codes]
            assert np.array_equal(np.where(bits, cn, 0), cn_map_oracle(bits))
            for y in range(shape[0]):
                for x in range(shape[1]):
                    assert (skeleton_neighbors(codes, x, y)
                            == skeleton_neighbors_oracle(bits, x, y)
                            == [(x + dx, y + dy) for (dx, dy), on
                                in zip(NEIGH, fingerprint._NEIGHBOURS[codes[y, x]]) if on])


def test_extract_segment_reports_two_endings():
    thinned = skeleton_image(hline(10, 19, 16), 32)
    mask = BinaryImage(np.ones((32, 32), dtype=bool))
    found = as_minutiae(extract_minutiae(thinned, zeros_field(2), mask))
    assert len(found) == 2
    assert all(m.kind == KIND_ENDING for m in found)
    assert {(m.x, m.y) for m in found} == {(10.0, 16.0), (19.0, 16.0)}


def test_extract_y_reports_bifurcation_and_three_endings():
    points = [(8, 8),
              (8, 9), (8, 10), (8, 11),          # south arm
              (9, 7), (10, 6), (11, 5),          # north-east arm
              (7, 7), (6, 6), (5, 5)]            # north-west arm
    thinned = skeleton_image(points, 16)
    mask = BinaryImage(np.ones((16, 16), dtype=bool))
    found = as_minutiae(extract_minutiae(thinned, zeros_field(1), mask))
    bifs = [m for m in found if m.kind == KIND_BIFURCATION]
    ends = [m for m in found if m.kind == KIND_ENDING]
    assert len(bifs) == 1 and (bifs[0].x, bifs[0].y) == (8.0, 8.0)
    assert {(m.x, m.y) for m in ends} == {(8.0, 11.0), (11.0, 5.0), (5.0, 5.0)}


def test_extract_skips_minutiae_outside_mask():
    thinned = skeleton_image(hline(10, 19, 16), 32)
    bits = np.ones((32, 32), dtype=bool)
    bits[:, 16:] = False
    found = as_minutiae(extract_minutiae(thinned, zeros_field(2), BinaryImage(bits)))
    assert len(found) == 1
    assert (found[0].x, found[0].y, found[0].kind) == (10.0, 16.0, KIND_ENDING)


def test_extract_orients_minutiae_by_16px_blocks():
    # 120 // 7 is 17, but row 16 is the first row of block row 1.
    thinned = skeleton_image(hline(40, 60, 16), 120)
    mask = BinaryImage(np.ones((120, 120), dtype=bool))
    rows = np.repeat(0.1 * np.arange(7)[:, None], 7, axis=1)
    found = as_minutiae(extract_minutiae(thinned, FloatField(rows, kind="orientation"), mask))
    # the ending at x = 60 departs leftward, against the block orientation
    right = next(m for m in found if m.x == 60.0)
    assert right.theta == pytest.approx(0.1 + math.pi)


def test_extract_adds_a_bifurcations_unit_vectors_in_neighbour_order():
    # Three arms from (12, 12), first pixels NE, SE and W.  Their unit vectors
    # summed W, SE, NE round to a vector whose sign against this orientation
    # (with glibc's cos and sin) differs from the NE, SE, W sum's.
    arms = [[(1, -1), (1, -2), (1, -3), (1, -4), (1, -5), (2, -6), (3, -7), (4, -8)],
            [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 2)],
            [(-1, 0), (-2, 1), (-3, 2), (-4, 3), (-3, 4), (-2, 5), (-1, 6)]]
    thinned = skeleton_image([(12, 12)] + [(12 + dx, 12 + dy) for arm in arms for dx, dy in arm],
                             24)
    orientation = FloatField(np.full((1, 1), 1.8908615464098646), kind="orientation")
    mask = BinaryImage(np.ones((24, 24), dtype=bool))
    found = as_minutiae(extract_minutiae(thinned, orientation, mask))
    assert [(m.x, m.y) for m in found if m.kind == KIND_BIFURCATION] == [(12.0, 12.0)]
    assert found == extract_oracle(thinned, orientation, mask)


def test_extract_reports_only_cn_one_or_three():
    rng = np.random.default_rng(17)
    for _ in range(3):
        blobs = rng.random((64, 64)) < 0.55
        thinned = thin(BinaryImage(blobs))
        mask = BinaryImage(np.ones((64, 64), dtype=bool))
        found = as_minutiae(extract_minutiae(thinned, zeros_field(4), mask))
        padded = np.pad(thinned.bits, 1)
        for m in found:
            x, y = int(m.x), int(m.y)
            hood = [padded[1 + y + dy, 1 + x + dx] for dx, dy in NEIGH]
            assert crossing_number(hood) in (1, 3)
            assert 0.0 <= m.theta < 2.0 * math.pi


# ---------------------------------------------------------------------------
# false-minutiae filtering

def extract_all(thinned, size):
    """The raw rows of a skeleton under a full mask, and the mask."""
    mask = BinaryImage(np.ones((size, size), dtype=bool))
    return extract_minutiae(thinned, zeros_field(max(1, size // 16)), mask), mask


def test_filter_break_rule_removes_facing_pair():
    thinned = skeleton_image(hline(12, 22, 24) + hline(26, 36, 24), 48)
    raw, mask = extract_all(thinned, 48)
    assert len(raw) == 4
    kept = as_minutiae(filter_false_minutiae(raw, thinned, mask, 9.0))
    assert {(m.x, m.y) for m in kept} == {(12.0, 24.0), (36.0, 24.0)}
    assert all(m.kind == KIND_ENDING for m in kept)


def test_filter_spur_rule_removes_ending_and_junction():
    spur = [(24, 23), (24, 22), (24, 21), (24, 20)]
    thinned = skeleton_image(hline(10, 38, 24) + spur, 48)
    raw, mask = extract_all(thinned, 48)
    assert sum(m.kind == KIND_BIFURCATION for m in as_minutiae(raw)) == 1
    kept = as_minutiae(filter_false_minutiae(raw, thinned, mask, 9.0))
    assert {(m.x, m.y) for m in kept} == {(10.0, 24.0), (38.0, 24.0)}
    assert all(m.kind == KIND_ENDING for m in kept)


def test_filter_clean_segment_unchanged():
    thinned = skeleton_image(hline(12, 27, 20), 40)
    raw, mask = extract_all(thinned, 40)
    kept = filter_false_minutiae(raw, thinned, mask, 9.0)
    assert np.array_equal(kept, raw)


def test_filter_border_rule_drops_edge_minutiae():
    thinned = skeleton_image(hline(4, 30, 20), 40)
    raw, mask = extract_all(thinned, 40)
    kept = as_minutiae(filter_false_minutiae(raw, thinned, mask, 9.0))
    assert [(m.x, m.y) for m in kept] == [(30.0, 20.0)]


@pytest.mark.parametrize("gap", [0.0, -9.0])
def test_filter_refuses_a_ridge_gap_that_is_not_positive(gap):
    thinned = skeleton_image(hline(12, 27, 20), 40)
    raw, mask = extract_all(thinned, 40)
    with pytest.raises(ValueError, match="avg_ridge_gap must be positive"):
        filter_false_minutiae(raw, thinned, mask, gap)


def test_filter_output_subset_and_idempotent():
    fixtures = [skeleton_image(hline(12, 22, 24) + hline(26, 36, 24), 48),
                skeleton_image(hline(10, 38, 24)
                               + [(24, 23), (24, 22), (24, 21), (24, 20)], 48)]
    for thinned in fixtures:
        raw, mask = extract_all(thinned, 48)
        once = filter_false_minutiae(raw, thinned, mask, 9.0)
        assert set(as_minutiae(once)) <= set(as_minutiae(raw))
        assert np.array_equal(filter_false_minutiae(once, thinned, mask, 9.0), once)


def test_filter_idempotent_on_synthetic_print():
    img, _ = synthgen.plant_print([KIND_ENDING, KIND_BIFURCATION, KIND_ENDING],
                                  seed=42)
    _, art = build_template(img, keep_artifacts=True)
    gap = 1.0 / float(np.median(art.frequency.values))
    once = filter_false_minutiae(art.raw_minutiae, art.thinned, art.mask, gap)
    assert set(as_minutiae(once)) <= set(as_minutiae(art.raw_minutiae))
    assert np.array_equal(filter_false_minutiae(once, art.thinned, art.mask, gap), once)


def border_oracle(mask):
    """The border distance raster: ``distance_transform_edt`` of the mask in a
    frame of one false pixel."""
    return ndimage.distance_transform_edt(np.pad(mask.bits, 1))[1:-1, 1:-1]


def filter_oracle(minutiae, thinned, mask, avg_ridge_gap):
    """The filter as four hand-written loops: every pair of minutiae is
    enumerated for the break, hole and bridge rules, and the neighbour codes
    are rebuilt for every traced ending and every hole candidate."""
    bits = thinned.bits
    border = border_oracle(mask)
    gap = avg_ridge_gap
    steps = max(1, int(math.ceil(gap)))
    angle_diff = angle_diff_oracle

    current = [m for m in minutiae
               if border[int(round(m.y)), int(round(m.x))] >= gap]

    drop = set()
    endings = [(i, m) for i, m in enumerate(current) if m.kind == KIND_ENDING]
    for ai in range(len(endings)):
        for bi in range(ai + 1, len(endings)):
            i, ma = endings[ai]
            j, mb = endings[bi]
            if math.hypot(ma.x - mb.x, ma.y - mb.y) >= gap:
                continue
            if abs(angle_diff(ma.theta, mb.theta) - math.pi) < math.radians(30.0):
                drop.add(i)
                drop.add(j)
    current = [m for i, m in enumerate(current) if i not in drop]

    drop = set()
    bif_at = {(int(round(m.x)), int(round(m.y))): i
              for i, m in enumerate(current) if m.kind == KIND_BIFURCATION}
    for i, m in enumerate(current):
        if m.kind != KIND_ENDING:
            continue
        junction, n_steps = trace_to_junction_oracle(
            neighbour_codes(bits), (int(round(m.x)), int(round(m.y))), steps)
        if junction is not None and n_steps < gap:
            drop.add(i)
            if junction in bif_at:
                drop.add(bif_at[junction])
    current = [m for i, m in enumerate(current) if i not in drop]

    drop = set()
    bifs = [(i, m) for i, m in enumerate(current) if m.kind == KIND_BIFURCATION]
    for ai in range(len(bifs)):
        for bi in range(ai + 1, len(bifs)):
            i, ma = bifs[ai]
            j, mb = bifs[bi]
            if math.hypot(ma.x - mb.x, ma.y - mb.y) >= gap:
                continue
            pa = (int(round(ma.x)), int(round(ma.y)))
            pb = (int(round(mb.x)), int(round(mb.y)))
            if two_paths_oracle(neighbour_codes(bits), pa, pb, 2 * steps):
                drop.add(i)
                drop.add(j)
    current = [m for i, m in enumerate(current) if i not in drop]

    drop = set()
    for ai in range(len(current)):
        for bi in range(ai + 1, len(current)):
            ma, mb = current[ai], current[bi]
            if ma.kind == KIND_ENDING and mb.kind == KIND_ENDING:
                continue
            if math.hypot(ma.x - mb.x, ma.y - mb.y) >= gap:
                continue
            fold = angle_diff(ma.theta, mb.theta) % math.pi
            fold = min(fold, math.pi - fold)
            if fold >= math.radians(60.0):
                drop.add(ai)
                drop.add(bi)
    return [m for i, m in enumerate(current) if i not in drop]


def assert_filter_matches_oracle(minutiae, thinned, mask, gap):
    """The filter on the rows of a Minutia list equals the oracle; returns
    the kept minutiae."""
    kept = as_minutiae(filter_false_minutiae(as_rows(minutiae), thinned, mask, gap))
    assert kept == filter_oracle(minutiae, thinned, mask, gap)
    return kept


def art_gap(art):
    return 1.0 / float(np.median(art.frequency.values))


@functools.lru_cache(maxsize=None)
def clean_print_artifacts():
    img, _ = synthgen.plant_print([KIND_ENDING, KIND_BIFURCATION, KIND_ENDING],
                                  seed=42)
    return build_template(img, keep_artifacts=True)[1]


def test_filter_hole_rule_removes_loop_bifurcations():
    # A ridge that splits at (20, 24) around a small loop and rejoins at
    # (26, 24): two bifurcations 6 px apart, joined by two 6-step paths.
    upper = [(21, 23), (22, 22), (23, 22), (24, 22), (25, 23)]
    lower = [(x, 48 - y) for x, y in upper]
    thinned = skeleton_image(hline(10, 20, 24) + upper + lower + hline(26, 44, 24), 56)
    raw, mask = extract_all(thinned, 56)
    raw = as_minutiae(raw)
    assert sorted((m.x, m.y, m.kind) for m in raw if m.kind == KIND_BIFURCATION) == [
        (20.0, 24.0, KIND_BIFURCATION), (26.0, 24.0, KIND_BIFURCATION)]
    kept = assert_filter_matches_oracle(raw, thinned, mask, 9.0)
    assert {(m.x, m.y) for m in kept} == {(10.0, 24.0), (44.0, 24.0)}
    assert all(m.kind == KIND_ENDING for m in kept)
    # the same bifurcations around a tall loop, whose 24-step paths exceed
    # twice the gap, stay
    upper = ([(21, y) for y in range(23, 13, -1)] + hline(22, 24, 13)
             + [(25, y) for y in range(14, 24)])
    lower = [(x, 48 - y) for x, y in upper]
    tall = skeleton_image(hline(10, 20, 24) + upper + lower + hline(26, 44, 24), 56)
    raw, mask = extract_all(tall, 56)
    kept = assert_filter_matches_oracle(as_minutiae(raw), tall, mask, 9.0)
    assert sorted((m.x, m.y) for m in kept if m.kind == KIND_BIFURCATION) == [
        (20.0, 24.0), (26.0, 24.0)]


def test_filter_hole_rule_blocks_the_first_path_a_fifo_search_finds():
    # From a = (10, 10), W (9, 10) and NW (9, 9) both reach c = (8, 10).  A FIFO
    # search scanning NEIGHBOUR_OFFSETS meets W first, so its path to b = (6, 10)
    # runs a, W, c, (7, 10), b; blocking those inner pixels leaves the detour
    # through NW, so the pair is a hole.  A first path through NW would leave
    # none.
    detour = [(9, 9), (8, 8), (7, 8), (6, 9)]
    thinned = skeleton_image([(10, 10), (9, 10), (8, 10), (7, 10), (6, 10)] + detour, 24)
    full = BinaryImage(np.ones((24, 24), dtype=bool))
    twins = [Minutia(10.0, 10.0, 0.0, KIND_BIFURCATION), Minutia(6.0, 10.0, 0.0, KIND_BIFURCATION)]
    assert two_paths_oracle(neighbour_codes(thinned.bits), (10, 10), (6, 10), 10)
    assert assert_filter_matches_oracle(twins, thinned, full, 4.5) == []


def test_filter_bridge_rule_removes_crossing_pairs_with_a_bifurcation():
    # No skeleton pixels, so only the distance and direction rules can fire.
    thinned = BinaryImage(np.zeros((64, 64), dtype=bool))
    full = BinaryImage(np.ones((64, 64), dtype=bool))
    bridge = [Minutia(20.0, 20.0, 0.0, KIND_BIFURCATION),
              Minutia(24.0, 20.0, math.pi / 2, KIND_ENDING)]          # 90 degrees
    shallow = [Minutia(20.0, 40.0, 0.0, KIND_BIFURCATION),
               Minutia(24.0, 40.0, math.radians(50.0), KIND_BIFURCATION)]
    far = [Minutia(44.0, 20.0, 0.0, KIND_BIFURCATION),
           Minutia(44.0, 29.0, math.pi / 2, KIND_BIFURCATION)]       # exactly the gap
    endings = [Minutia(44.0, 44.0, 0.0, KIND_ENDING),
               Minutia(48.0, 44.0, math.pi / 2, KIND_ENDING)]
    # directions 100 degrees apart are ridges 80 degrees apart; 150 are 30
    steep = [Minutia(30.0, 52.0, 0.2, KIND_ENDING),
             Minutia(33.0, 52.0, 0.2 + math.radians(100.0), KIND_BIFURCATION)]
    opposed = [Minutia(10.0, 10.0, 0.2, KIND_BIFURCATION),
               Minutia(10.0, 13.0, 0.2 + math.radians(150.0), KIND_BIFURCATION)]
    raw = bridge + shallow + far + endings + steep + opposed
    kept = assert_filter_matches_oracle(raw, thinned, full, 9.0)
    assert kept == shallow + far + endings + opposed


def test_filter_builds_one_crossing_number_map_per_call(monkeypatch):
    calls = []
    real = imaging.neighbour_codes

    def counting(bits):
        calls.append(bits.shape)
        return real(bits)

    monkeypatch.setattr(imaging, "neighbour_codes", counting)
    thinned = skeleton_image(hline(10, 38, 24) + [(24, 23), (24, 22), (24, 21), (24, 20)]
                             + hline(10, 38, 34), 48)
    raw, mask = extract_all(thinned, 48)
    assert sum(m.kind == KIND_ENDING for m in as_minutiae(raw)) >= 4
    # a skeleton nothing has read yet: its rules share one map
    fresh = BinaryImage(thinned.bits)
    calls.clear()
    kept = filter_false_minutiae(raw, fresh, mask, 9.0)
    assert calls == [(48, 48)]
    # and a skeleton keeps its map: extraction's, or the first filter's
    assert np.array_equal(filter_false_minutiae(raw, fresh, mask, 9.0), kept)
    assert np.array_equal(filter_false_minutiae(raw, thinned, mask, 9.0), kept)
    assert calls == [(48, 48)]
    art = clean_print_artifacts()
    calls.clear()
    filter_false_minutiae(art.raw_minutiae, BinaryImage(art.thinned.bits), art.mask, art_gap(art))
    assert len(calls) == 1


def degraded_print(kinds, seed):
    """A planted print as the enroll workload degrades it: 2x np.kron
    upsampling plus N(0, 0.15) noise."""
    img, _ = synthgen.plant_print(kinds, seed=seed)
    up = np.kron(img.pixels, np.ones((2, 2)))
    noise = np.random.default_rng(seed).normal(0.0, 0.15, size=up.shape)
    return GrayImage(np.clip(up + noise, 0.0, 1.0))


def test_frequency_and_gabor_equal_oracles_on_a_degraded_print():
    img = degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=7)
    assert img.pixels.shape == (512, 512)
    orientation = estimate_orientation(img)
    assert_frequency_matches_oracle(img, orientation)
    frequency = estimate_frequency(img, orientation)
    assert_gabor_matches_oracle(img, orientation, frequency)


def test_gabor_scratch_memory_stays_under_the_direct_pass():
    # The per-block tensordot pass peaked at 9.2 MiB on this print, the FFT
    # pass in chunks at 6.7 MiB, and one unchunked FFT batch at 33.8 MiB.
    img = degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=7)
    orientation = estimate_orientation(img)
    frequency = estimate_frequency(img, orientation)
    tracemalloc.start()
    try:
        gabor_enhance(img, orientation, frequency)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.2 * 2**20


def test_build_template_takes_the_mask_without_the_masked_image():
    img = synthgen.render_print([(100.0, 140.0, 1.0)], beta=0.3)
    mask = segment(img)
    assert isinstance(mask, BinaryImage)
    _, art = build_template(img, keep_artifacts=True)
    assert np.array_equal(art.mask.bits, mask.bits)


def full_tap_gradients(pixels):
    """The Sobel pair as array passes over all nine taps, zero taps included."""
    from test_imaging import SOBEL_X  # not at the top: test_imaging imports this module

    def correlate(arr):
        padded = np.pad(arr, 1, mode="edge")
        h, w = arr.shape
        out = np.zeros((h, w))
        for i in range(3):
            for j in range(3):
                out += SOBEL_X[i, j] * padded[i:i + h, j:j + w]
        return out
    return correlate(pixels), correlate(pixels.T).T


def coherence_oracle(pixels):
    """coherence_image on its own Sobel pass, operation for operation."""
    gx, gy = full_tap_gradients(pixels)
    gxx, gyy, gxy = gx * gx, gy * gy, gx * gy

    def wsum(a):
        return ndimage.uniform_filter(a, size=fingerprint.DEFAULT_COHERENCE_WINDOW,
                                      mode="nearest")

    sx, sxy, denom = wsum(gxx - gyy), wsum(2.0 * gxy), wsum(gxx + gyy)
    num = np.sqrt(sx * sx + sxy * sxy)
    live = denom > 1e-12
    return np.clip(np.where(live, num / np.where(live, denom, 1.0), 0.0), 0.0, 1.0)


def orientation_oracle(pixels):
    """estimate_orientation on its own Sobel pass, operation for operation."""
    block = fingerprint.DEFAULT_BLOCK
    bh, bw = pixels.shape[0] // block, pixels.shape[1] // block
    gx, gy = full_tap_gradients(pixels)

    def block_sum(a):
        return a[:bh * block, :bw * block].reshape(bh, block, bw, block).sum(axis=(1, 3))

    sx, sxy = block_sum(gx * gx - gy * gy), block_sum(2.0 * gx * gy)
    theta = np.mod(0.5 * np.arctan2(sxy, sx) + 0.5 * math.pi, math.pi)
    energy = (sx != 0.0) | (sxy != 0.0)
    c_bar = ndimage.uniform_filter(np.where(energy, np.cos(2.0 * theta), 0.0), size=3,
                                   mode="nearest")
    s_bar = ndimage.uniform_filter(np.where(energy, np.sin(2.0 * theta), 0.0), size=3,
                                   mode="nearest")
    smooth = np.mod(0.5 * np.arctan2(s_bar, c_bar) + math.pi, math.pi)
    degenerate = (np.abs(c_bar) < 1e-12) & (np.abs(s_bar) < 1e-12)
    out = np.where(degenerate, 0.0, smooth)
    return np.where(out >= math.pi, 0.0, out)


def test_coherence_and_orientation_alone_equal_their_own_sobel_pass():
    pixels = degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=7).pixels
    assert pixels.shape == (512, 512)
    for stage, oracle in ((coherence_image, coherence_oracle),
                          (estimate_orientation, orientation_oracle)):
        got = stage(GrayImage(pixels.copy())).values
        assert np.array_equal(got.view(np.int64), oracle(pixels).view(np.int64))


def test_build_template_runs_one_sobel_pass_per_print(monkeypatch):
    from test_imaging import count_sobel_passes  # not at the top, as in full_tap_gradients

    img = degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=5)
    calls = count_sobel_passes(monkeypatch)
    template, art = build_template(img, keep_artifacts=True)
    assert calls == [(512, 512)]
    # the pair dies with the call; the two stages called alone share their own
    assert np.array_equal(art.mask.bits, segment(img).bits)
    assert np.array_equal(art.orientation.values, estimate_orientation(img).values)
    assert len(calls) == 2
    # and a later build reads the pair the image now holds
    assert encode_template(build_template(img)) == encode_template(template)
    assert len(calls) == 2


# sha256 of encode_template(build_template(img)) and of segment(img).bits,
# per print; a change to either is a behaviour change and says so.
PINNED_PRINT_DIGESTS = {
    ("planted", 1): ("a5e61494ba25f57b7658711059afa9967cecda44800ff20a03bfe0104d342ba9",
                     "50dbdf839a5e10814c065ad9bd7f9406ceafd13659775d3fa106ec589d5bf350"),
    ("planted", 2): ("74bec59f04f3bc8603cb1c0cd1c264fe3059eefa4c6bc9fc0ae4391f4e9da2fb",
                     "a9b8c5c194b36ae0fbeda176692fa9f96ca3963fc6f9ae127c7284dce3c25329"),
    ("planted", 3): ("89df705920084ba8c04a2ce3199d94c0cb7b662c73a6c755c8b7d34575149892",
                     "e1ce35423363edb590e391ae18877dbe810b905e5034c90987f96f56d0ed2603"),
    ("degraded", 5): ("33093602ea4ac37bb11883e0d9ad44c9ad69c166089a9ec5b27e13b6e2e85069",
                      "2e87d3fa9110e9521a6648dffc76b266136b908388b67be2198dc3458739d4a7"),
    ("degraded", 6): ("a1a3fd97623a211fc9a46f2133d7f16621e9b05792482849fead77863f40c869",
                      "97a1105361cd7a5b660be418f30d46e1c9e6aff198fa96f71794dc23f1478658"),
    ("degraded", 7): ("1c81ac559d0bd8ace38893721cd9ce1f23582bde794ef75ef3a185bcd98c43fe",
                      "eeb3c826d6643fdd980b7635b3612000586a0fd7dfc4da93ccc5d6dd8ff513d8"),
}


def pinned_print(kind, seed):
    """A 256x256 planted print, or a 512x512 one as the enroll workload degrades it."""
    kinds = [KIND_ENDING, KIND_BIFURCATION]
    if kind == "planted":
        return synthgen.plant_print(kinds * 2, seed=seed)[0]
    return degraded_print(kinds * 4, seed=seed)


def test_template_and_mask_bytes_match_pinned_digests():
    for (kind, seed), digests in PINNED_PRINT_DIGESTS.items():
        img = pinned_print(kind, seed)
        got = (encode_template(build_template(img)), segment(img).bits.tobytes())
        assert tuple(hashlib.sha256(b).hexdigest() for b in got) == digests, (kind, seed)


@functools.lru_cache(maxsize=None)
def pinned_artifacts(kind, seed):
    return build_template(pinned_print(kind, seed), keep_artifacts=True)[1]


def test_border_distance_equals_the_transform_at_the_pinned_prints_minutiae():
    for kind, seed in PINNED_PRINT_DIGESTS:
        art = pinned_artifacts(kind, seed)
        x, y = np.rint(art.raw_minutiae[:, :2]).astype(np.int64).T
        assert len(x) > 0
        got = fingerprint._border_distance(art.mask, x, y)
        assert got.dtype == np.float64
        assert np.array_equal(got, border_oracle(art.mask)[y, x]), (kind, seed)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from([(1, 1), (1, 40), (40, 1), (1, 7), (9, 1)])
       | st.tuples(st.integers(1, 40), st.integers(1, 40)),
       density=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_border_distance_equals_the_transform_at_every_pixel(shape, density, seed):
    # density 0 draws an all-false mask and density 1 an all-true one; the
    # pixels are asked for in a random order
    rng = np.random.default_rng(seed)
    mask = BinaryImage(rng.random(shape) < density)
    y, x = rng.permutation(np.indices(shape).reshape(2, -1), axis=1)
    assert np.array_equal(fingerprint._border_distance(mask, x, y), border_oracle(mask)[y, x])


def count_column_passes(monkeypatch, calls):
    """Append "column_depth" to ``calls`` whenever a mask computes its
    ``BinaryImage.column_depth``; a mask computes it once and keeps it."""
    prop = BinaryImage.__dict__["column_depth"]
    monkeypatch.setattr(prop, "func", lambda mask, _f=prop.func: calls.append("column_depth")
                        or _f(mask))


def test_build_template_runs_each_public_stage_once(monkeypatch):
    img = synthgen.render_print([(100.0, 140.0, 1.0)], beta=0.3)
    calls = []
    for name in ("segment", "filter_false_minutiae", "_border_distance"):
        real = getattr(fingerprint, name)
        monkeypatch.setattr(fingerprint, name,
                            lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    count_column_passes(monkeypatch, calls)
    build_template(img)
    assert calls == ["segment", "filter_false_minutiae", "_border_distance", "column_depth"]


@functools.lru_cache(maxsize=None)
def degraded_artifacts(n, seed):
    kinds = [KIND_ENDING if j % 2 == 0 else KIND_BIFURCATION for j in range(n)]
    return build_template(degraded_print(kinds, seed), keep_artifacts=True)[1]


def test_extract_equals_oracle_on_degraded_prints():
    for n, seed in ((8, 5), (11, 9)):
        art = degraded_artifacts(n, seed)
        assert art.thinned.bits.shape == (512, 512)
        assert len(art.raw_minutiae) > 1000
        assert as_minutiae(art.raw_minutiae) == extract_oracle(art.thinned, art.orientation,
                                                               art.mask)


def test_filter_equals_oracle_on_degraded_prints():
    for n, seed in ((8, 5), (11, 9)):
        art = degraded_artifacts(n, seed)
        assert art.thinned.bits.shape == (512, 512)
        assert len(art.raw_minutiae) > 1000
        kept = assert_filter_matches_oracle(as_minutiae(art.raw_minutiae), art.thinned,
                                            art.mask, art_gap(art))
        assert 0 < len(kept) < len(art.raw_minutiae)


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([8, 17, 32, 40]), density=st.sampled_from([0.3, 0.5, 0.6, 0.8]),
       masked=st.booleans(), gap=st.sampled_from([1.5, 3.0, 4.5, 9.0]),
       seed=st.integers(0, 2**32 - 1))
def test_extract_and_filter_equal_oracles_on_random_skeletons(size, density, masked, gap, seed):
    # Thinned noise: short arms, junction clusters, loops and isolated pixels.
    rng = np.random.default_rng(seed)
    thinned = thin(BinaryImage(rng.random((size, size)) < density))
    blocks = max(1, size // 16)
    orientation = FloatField(rng.random((blocks, blocks)) * math.pi, kind="orientation")
    mask = BinaryImage(rng.random((size, size)) < 0.8 if masked else np.ones((size, size)))
    raw = as_minutiae(extract_minutiae(thinned, orientation, mask))
    assert raw == extract_oracle(thinned, orientation, mask)
    assert_filter_matches_oracle(raw, thinned, BinaryImage(np.ones((size, size))), gap)


def test_build_template_builds_one_neighbour_code_raster_per_print(monkeypatch):
    img, _ = synthgen.plant_print([KIND_ENDING, KIND_BIFURCATION, KIND_ENDING], seed=42)
    calls = []
    real = imaging.neighbour_codes
    monkeypatch.setattr(imaging, "neighbour_codes",
                        lambda bits: calls.append(bits.shape) or real(bits))
    _, art = build_template(img, keep_artifacts=True)
    # one for thin's input, and one the skeleton keeps for extract and filter
    assert calls == [img.pixels.shape] * 2
    codes = art.thinned.codes
    assert np.array_equal(extract_minutiae(art.thinned, art.orientation, art.mask),
                          art.raw_minutiae)
    assert art.thinned.codes is codes and len(calls) == 2
    assert np.array_equal(codes, real(art.thinned.bits)) and not codes.flags.writeable


def test_build_template_runs_one_border_distance_per_print(monkeypatch):
    # one column pass of the mask and one border distance call per print: the
    # cap ranks by the distances the filter's border rule took
    calls = []
    count_column_passes(monkeypatch, calls)
    real = fingerprint._border_distance
    monkeypatch.setattr(fingerprint, "_border_distance",
                        lambda *a: calls.append("_border_distance") or real(*a))
    build_template(pinned_print("planted", 1))
    assert calls == ["_border_distance", "column_depth"]
    img = degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=5)
    template, art = build_template(img, keep_artifacts=True)
    assert calls == ["_border_distance", "column_depth"] * 2
    # The filter, then the cap ranked by the transform's border distance.
    border = border_oracle(art.mask)
    kept = as_minutiae(filter_false_minutiae(art.raw_minutiae, art.thinned, art.mask,
                                             art_gap(art)))
    assert len(kept) > fingerprint.MAX_MINUTIAE
    assert calls[4:] == ["_border_distance"]  # the mask kept its column pass
    ranked = sorted(range(len(kept)),
                    key=lambda i: (-border[int(round(kept[i].y)), int(round(kept[i].x))], i))
    capped = tuple(kept[i] for i in sorted(ranked[:fingerprint.MAX_MINUTIAE]))
    expected = FingerprintTemplate(capped, img.width, img.height)
    assert encode_template(template) == encode_template(expected)


def test_build_template_builds_and_reads_no_minutia(monkeypatch):
    img = degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=7)
    assert img.pixels.shape == (512, 512)
    expected = build_template(img)

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline built a Minutia")

    monkeypatch.setattr(fingerprint, "Minutia", refuse)
    template, art = build_template(img, keep_artifacts=True)
    assert template == expected and encode_template(template) == encode_template(expected)
    assert art.raw_minutiae.dtype == np.float64 and art.raw_minutiae.shape[1] == 4
    assert len(art.raw_minutiae) > len(template) == fingerprint.MAX_MINUTIAE


_TWO_PI = 2.0 * math.pi
_KINDS = st.sampled_from([KIND_ENDING, KIND_BIFURCATION])


def _edge(v):
    """v and its two neighbouring floats."""
    return st.sampled_from([v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)])


def _partner(draw, m, gap):
    """A point at exactly `gap` from m, one ulp either side of that, at the
    same x, or elsewhere close by."""
    dx, dy = draw(st.sampled_from([
        (gap, 0.0), (0.0, gap), (-gap, 0.0), (0.0, -gap), (0.6 * gap, 0.8 * gap),
        (3.0, 4.0), (-3.0, 4.0), (0.0, 1.0), (0.0, -2.0), (0.0, 0.0)]))
    x = draw(_edge(m.x + dx)) if dx else m.x
    y = draw(_edge(m.y + dy)) if dy else m.y
    return x, y


@st.composite
def near_pairs(draw):
    """Minutiae on the clean print's skeleton: some of its own raw minutiae
    with redrawn kinds and directions, plus partners near the gap in every
    kind mix, in any order."""
    art = clean_print_artifacts()
    size = art.thinned.bits.shape[0]
    gap = draw(st.sampled_from([art_gap(art), 5.0, 9.0]))
    direction = (st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
                 | st.floats(0.0, _TWO_PI, exclude_max=True))
    turn = (st.sampled_from([0.0, math.pi, math.radians(150.0), math.radians(60.0)])
            .flatmap(_edge) | st.floats(0.0, _TWO_PI))
    anchors = draw(st.lists(st.sampled_from(as_minutiae(art.raw_minutiae)), min_size=1,
                            max_size=10))
    out = []
    for m in anchors:
        out.append(Minutia(m.x, m.y, draw(direction), draw(_KINDS)) if draw(st.booleans())
                   else m)
    for m in draw(st.lists(st.sampled_from(out), max_size=12)):
        x, y = _partner(draw, m, gap)
        theta = (m.theta + draw(turn)) % _TWO_PI  # may round up to 2 pi
        if 0.0 <= x <= size - 1 and 0.0 <= y <= size - 1 and theta < _TWO_PI:
            out.append(Minutia(x, y, theta, draw(_KINDS)))
    return draw(st.permutations(out)), gap


@settings(max_examples=150, deadline=None)
@given(case=near_pairs())
def test_filter_equals_oracle_on_pairs_at_the_gap(case):
    minutiae, gap = case
    art = clean_print_artifacts()
    assert_filter_matches_oracle(minutiae, art.thinned, art.mask, gap)


def close_pairs(minutiae, gap):
    """fingerprint._close_pairs over the minutiae's positions, as (a, b) tuples."""
    pairs = fingerprint._close_pairs(np.array([m.x for m in minutiae]),
                                     np.array([m.y for m in minutiae]), gap)
    return [tuple(p) for p in pairs.tolist()]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_close_pairs_equal_every_pair_under_the_gap(data):
    # Small coordinates put partners exactly one ulp of the gap away.
    gap = data.draw(st.sampled_from([1.0, 3.5, 5.0, 9.0, 1.0 / 0.28]))
    coord = st.sampled_from([0.0, 0.5, 1.0, 3.0, 100.0]) | st.floats(0.0, 300.0)
    minutiae = data.draw(st.lists(st.builds(Minutia, coord, coord, st.just(0.0), _KINDS),
                                  min_size=1, max_size=8))
    for m in data.draw(st.lists(st.sampled_from(minutiae), max_size=10)):
        minutiae.append(Minutia(*_partner(data.draw, m, gap), 0.0, KIND_ENDING))
    minutiae = data.draw(st.permutations(minutiae))
    expected = [(a, b) for a in range(len(minutiae)) for b in range(a + 1, len(minutiae))
                if math.hypot(minutiae[a].x - minutiae[b].x,
                              minutiae[a].y - minutiae[b].y) < gap]
    assert sorted(close_pairs(minutiae, gap)) == expected


def test_close_pairs_decide_on_math_hypot_where_numpy_rounds_apart():
    # On glibc, np.hypot reads these offsets one ulp above and below math.hypot.
    for dx, dy, gap in ((13.627489236680702, 16.16820461340427, 21.14519575025863),
                        (18.641193732267563, 4.256847192294828, 19.121057810238426)):
        minutiae = [Minutia(dx, dy, 0.0, KIND_ENDING), Minutia(0.0, 0.0, 0.0, KIND_ENDING)]
        expected = [(0, 1)] if math.hypot(dx, dy) < gap else []
        assert close_pairs(minutiae, gap) == expected


# ---------------------------------------------------------------------------
# registration

def ten_point_template(seed=5):
    rng = np.random.default_rng(seed)
    coords = []
    while len(coords) < 10:
        x = int(rng.integers(48, 208))
        y = int(rng.integers(48, 208))
        if all(math.hypot(x - a, y - b) >= 24 for a, b, _, _ in coords):
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            kind = KIND_ENDING if len(coords) % 2 == 0 else KIND_BIFURCATION
            coords.append((x, y, theta, kind))
    return make_template(coords)


def hough_oracle(template, probe):
    """The pairwise Hough registration, one vote per (template, probe) minutia
    pair in a dict accumulator of the module's bin sizes; the peak bin has the
    most votes, then the smallest |dtheta|, then the smallest |dx|+|dy|, then
    the first key in sorted order.  Bin means are summed left to right in vote
    order."""
    if len(template) == 0 or len(probe) == 0:
        raise EmptyTemplate("registration needs non-empty minutiae sets")
    cx = template.image_width / 2.0
    cy = template.image_height / 2.0
    votes = {}
    for mt in as_minutiae(template.rows):
        for mp in as_minutiae(probe.rows):
            d = (mp.theta - mt.theta + math.pi) % (2.0 * math.pi) - math.pi
            if d == -math.pi:
                d = math.pi
            ca, sa = math.cos(d), math.sin(d)
            ox, oy = mt.x - cx, mt.y - cy
            dx = mp.x - (cx + ca * ox - sa * oy)
            dy = mp.y - (cy + sa * ox + ca * oy)
            key = (int(round(d / fingerprint.DEFAULT_ANGLE_BIN)),
                   int(round(dx / fingerprint.DEFAULT_XY_BIN)),
                   int(round(dy / fingerprint.DEFAULT_XY_BIN)))
            votes.setdefault(key, []).append((d, dx, dy))
    best = None
    for key in sorted(votes):
        raw = votes[key]
        means = []
        for j in range(3):
            acc = 0.0
            for v in raw:
                acc += v[j]
            means.append(acc / len(raw))
        dtheta, dx, dy = means
        rank = (-len(raw), abs(dtheta), abs(dx) + abs(dy))
        if best is None or rank < best[0]:
            best = (rank, RegistrationTransform(dx, dy, dtheta, len(raw)))
    return best[1]


def match_oracle(template, probe):
    """The pairwise matcher: register, map the probe back into the template
    frame, then pair greedily over candidates sorted by (dist, ti, pi)
    within the module's thresholds."""
    if len(template) == 0 or len(probe) == 0:
        return 0.0
    reg = hough_oracle(template, probe)
    cx = template.image_width / 2.0
    cy = template.image_height / 2.0
    c, s = math.cos(-reg.dtheta), math.sin(-reg.dtheta)
    aligned = []
    for m in as_minutiae(probe.rows):
        ox, oy = (m.x - reg.dx) - cx, (m.y - reg.dy) - cy
        aligned.append((cx + c * ox - s * oy, cy + s * ox + c * oy,
                        (m.theta - reg.dtheta) % (2.0 * math.pi), m.kind))
    candidates = []
    for ti, mt in enumerate(as_minutiae(template.rows)):
        for pi, (x, y, theta, kind) in enumerate(aligned):
            if kind != mt.kind:
                continue
            dist = math.hypot(mt.x - x, mt.y - y)
            turn = (mt.theta - theta) % (2.0 * math.pi)
            if (dist > fingerprint.DEFAULT_THETA0
                    or min(turn, 2.0 * math.pi - turn) > fingerprint.DEFAULT_THETA1):
                continue
            candidates.append((dist, ti, pi))
    candidates.sort()
    used_t, used_p, matched = set(), set(), 0
    for _, ti, pi in candidates:
        if ti not in used_t and pi not in used_p:
            used_t.add(ti)
            used_p.add(pi)
            matched += 1
    return matched / max(len(template), len(probe))


def test_register_identity_is_exact():
    tpl = ten_point_template()
    reg = register_minutiae(tpl, tpl)
    assert (reg.dx, reg.dy, reg.dtheta) == (0.0, 0.0, 0.0)
    assert reg.support >= len(tpl)


def test_register_translation_within_half_bin():
    tpl = ten_point_template()
    probe = rigid_template(tpl, 5.0, 3.0, 0.0)
    reg = register_minutiae(tpl, probe)
    assert abs(reg.dx - 5.0) <= 4.0
    assert abs(reg.dy - 3.0) <= 4.0
    assert abs(reg.dtheta) <= math.radians(5.0)


def test_register_rotation_matches_accumulator_oracle():
    tpl = ten_point_template()
    probe = rigid_template(tpl, 0.0, 0.0, math.radians(15.0))
    reg = register_minutiae(tpl, probe)
    assert abs(reg.dtheta - math.radians(15.0)) <= fingerprint.DEFAULT_ANGLE_BIN / 2.0
    assert reg == hough_oracle(tpl, probe)


def test_register_empty_template_raises():
    empty = FingerprintTemplate((), 256, 256)
    tpl = ten_point_template()
    with pytest.raises(EmptyTemplate):
        register_minutiae(empty, tpl)
    with pytest.raises(EmptyTemplate):
        register_minutiae(tpl, empty)


def test_register_recovers_random_rigid_transforms():
    rng = np.random.default_rng(29)
    tpl = ten_point_template(seed=8)
    for _ in range(10):
        dx = float(rng.uniform(-20.0, 20.0))
        dy = float(rng.uniform(-20.0, 20.0))
        dtheta = float(rng.uniform(-math.radians(20.0), math.radians(20.0)))
        probe = rigid_template(tpl, dx, dy, dtheta)
        reg = register_minutiae(tpl, probe)
        assert abs(reg.dx - dx) <= fingerprint.DEFAULT_XY_BIN / 2.0
        assert abs(reg.dy - dy) <= fingerprint.DEFAULT_XY_BIN / 2.0
        assert abs(reg.dtheta - dtheta) <= fingerprint.DEFAULT_ANGLE_BIN / 2.0
        assert reg.support >= len(tpl)


# ---------------------------------------------------------------------------
# matching

def test_match_self_is_exactly_one():
    assert match_minutiae(ten_point_template(), ten_point_template()) == 1.0
    img, _ = synthgen.plant_print([KIND_ENDING, KIND_BIFURCATION], seed=6)
    tpl = build_template(img)
    assert len(tpl) > 0
    assert match_minutiae(tpl, tpl) == 1.0


def test_match_half_displaced_scores_half():
    kept_ys = (40, 66, 98, 136, 180)
    moved_ys = (52, 81, 117, 150, 188)
    coords = [(60, y, 1.0, KIND_ENDING) for y in kept_ys]
    coords += [(160, y, 1.0, KIND_BIFURCATION) for y in moved_ys]
    tpl = make_template(coords)
    shifts = ((41, 7), (53, -11), (47, 23), (59, 5), (43, -17))
    probe_coords = coords[:5] + [
        (x + sx, y + sy, theta, kind)
        for (x, y, theta, kind), (sx, sy) in zip(coords[5:], shifts)]
    probe = make_template(probe_coords)
    assert match_minutiae(tpl, probe) == 0.5


def test_match_rigid_copy_scores_high():
    tpl = ten_point_template(seed=12)
    probe = rigid_template(tpl, 20.0, -20.0, math.radians(20.0))
    assert match_minutiae(tpl, probe) >= 0.9
    img, _ = synthgen.plant_print(
        [KIND_ENDING, KIND_BIFURCATION, KIND_ENDING, KIND_BIFURCATION], seed=9)
    built = build_template(img)
    moved = rigid_template(built, 12.0, -8.0, math.radians(15.0))
    assert match_minutiae(built, moved) >= 0.9


def test_match_empty_sets_score_zero():
    empty = FingerprintTemplate((), 256, 256)
    tpl = ten_point_template()
    assert match_minutiae(empty, tpl) == 0.0
    assert match_minutiae(tpl, empty) == 0.0
    assert match_minutiae(empty, empty) == 0.0


def test_match_invariant_under_common_rigid_transform():
    rng = np.random.default_rng(31)
    base = ten_point_template(seed=14)
    for _ in range(8):
        jittered = []
        for m in as_minutiae(base.rows):
            jittered.append(Minutia(
                m.x + float(rng.uniform(-4.0, 4.0)),
                m.y + float(rng.uniform(-4.0, 4.0)),
                (m.theta + float(rng.uniform(-0.08, 0.08))) % (2.0 * math.pi),
                m.kind))
        probe = FingerprintTemplate(tuple(jittered), 256, 256)
        score = match_minutiae(base, probe)
        dx = float(rng.uniform(-15.0, 15.0))
        dy = float(rng.uniform(-15.0, 15.0))
        dtheta = float(rng.uniform(-math.radians(15.0), math.radians(15.0)))
        moved_score = match_minutiae(rigid_template(base, dx, dy, dtheta),
                                     rigid_template(probe, dx, dy, dtheta))
        assert moved_score == score


# ---------------------------------------------------------------------------
# the batched kernel against the pairwise loops (exact equality)

def assert_kernel_matches_oracle(gallery, probe):
    assert match_minutiae_many(gallery, probe) == [match_oracle(t, probe) for t in gallery]
    for t in gallery:
        assert match_minutiae(t, probe) == match_oracle(t, probe)
        if len(t) and len(probe):
            assert register_minutiae(t, probe) == hough_oracle(t, probe)


def jittered(tpl, rng, sigma=2.0, size=None):
    width, height = size or (tpl.image_width, tpl.image_height)
    return FingerprintTemplate(tuple(
        Minutia(m.x + float(rng.normal(0.0, sigma)), m.y + float(rng.normal(0.0, sigma)),
                (m.theta + float(rng.normal(0.0, 0.05))) % (2.0 * math.pi), m.kind)
        for m in as_minutiae(tpl.rows)), width, height)


def random_template(rng, n, width=256, height=256):
    return FingerprintTemplate(tuple(
        Minutia(float(rng.uniform(0, width)), float(rng.uniform(0, height)),
                float(rng.uniform(0.0, 2.0 * math.pi)) % (2.0 * math.pi),
                (KIND_ENDING, KIND_BIFURCATION)[int(rng.integers(2))])
        for _ in range(n)), width, height)


def _minutiae(width, height):
    return st.builds(
        Minutia,
        st.floats(0.0, float(width)), st.floats(0.0, float(height)),
        st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        | st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        st.sampled_from([KIND_ENDING, KIND_BIFURCATION]))


@st.composite
def templates(draw, max_size=14):
    width = draw(st.sampled_from([64, 200, 256, 301]))
    height = draw(st.sampled_from([64, 200, 256, 333]))
    minutiae = draw(st.lists(_minutiae(width, height), max_size=max_size))
    return FingerprintTemplate(tuple(minutiae), width, height)


@settings(max_examples=60, deadline=None)
@given(gallery=st.lists(templates(), min_size=1, max_size=6), probe=templates(),
       xy_bin=st.sampled_from([8.0, 3.0, 0.5, 1e-6]),
       angle_bin=st.sampled_from([math.radians(10.0), 0.05, math.pi]))
def test_kernel_equals_pairwise_loops_on_random_templates(gallery, probe, xy_bin, angle_bin):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fingerprint, "DEFAULT_XY_BIN", xy_bin)
        mp.setattr(fingerprint, "DEFAULT_ANGLE_BIN", angle_bin)
        assert_kernel_matches_oracle(gallery + [gallery[0], probe], probe)


def test_kernel_equals_pairwise_loops_on_near_copies():
    rng = np.random.default_rng(41)
    for _ in range(20):
        probe = random_template(rng, int(rng.integers(1, 30)))
        gallery = [random_template(rng, int(rng.integers(0, 30))) for _ in range(8)]
        gallery += [jittered(probe, rng), rigid_template(jittered(probe, rng), 9.0, -5.0, 0.2)]
        assert_kernel_matches_oracle(gallery, probe)


def test_kernel_wraps_angle_differences_of_exactly_pi():
    for t_theta, p_theta in ((0.0, math.pi), (math.pi, 0.0), (math.pi / 2, 3 * math.pi / 2)):
        tpl = make_template([(100, 120, t_theta, KIND_ENDING)])
        probe = make_template([(140, 90, p_theta, KIND_ENDING), (60, 40, p_theta, KIND_ENDING)])
        assert register_minutiae(tpl, probe).dtheta == math.pi
        assert_kernel_matches_oracle([tpl, make_template([(60, 40, 1.0, KIND_ENDING)])], probe)
    for p_theta in (0.0, math.pi, math.nextafter(2.0 * math.pi, 0.0)):
        tpl = ten_point_template(seed=3)
        probe = FingerprintTemplate(tuple(Minutia(m.x, m.y, p_theta, m.kind)
                                          for m in as_minutiae(tpl.rows)), 256, 256)
        assert_kernel_matches_oracle([tpl, probe], probe)


def test_kernel_breaks_equal_support_ties_like_the_sorted_accumulator():
    # Two single-vote bins with equal |dtheta| and |dx|+|dy|: the smaller key wins.
    tpl = make_template([(128, 128, 0.0, KIND_ENDING)])
    probe = make_template([(144, 128, 0.0, KIND_ENDING), (112, 128, 0.0, KIND_ENDING)])
    reg = register_minutiae(tpl, probe)
    assert (reg.dx, reg.dy, reg.support) == (-16.0, 0.0, 1)
    assert_kernel_matches_oracle([tpl], probe)
    # Equal support, different |dtheta|: the smaller wins over the key order.
    probe = make_template([(128, 128, 0.3, KIND_ENDING), (160, 160, 0.1, KIND_ENDING)])
    assert register_minutiae(tpl, probe).dtheta == pytest.approx(0.1, abs=1e-12)
    assert_kernel_matches_oracle([tpl], probe)
    # A grid of repeated displacements yields many tied two-vote bins.
    coords = [(x, y, 0.5, KIND_ENDING) for x in (80, 120, 160) for y in (80, 120, 160)]
    grid = make_template(coords)
    assert_kernel_matches_oracle([grid, make_template(coords[:4])], grid)


def test_kernel_decides_the_distance_threshold_on_the_exact_distance(monkeypatch):
    # Five anchors register the pair at the identity; A and B sit one bin
    # apart at a distance where np.hypot and math.hypot differ in the last
    # bit, and theta0 is set to the smaller of the two.
    anchors = [(40.0 + 45.0 * i, 200.0 - 30.0 * i, 1.0, KIND_ENDING) for i in range(5)]
    for i in range(2000):
        u, v = 6.0 + i / 337.0, 7.0 - i / 613.0
        ex, ey = 100.0 - (100.0 + u), 100.0 - (100.0 + v)
        if float(np.hypot(ex, ey)) != math.hypot(ex, ey):
            break
    tpl = make_template(anchors + [(100.0, 100.0, 1.0, KIND_BIFURCATION)])
    probe = make_template(anchors + [(100.0 + u, 100.0 + v, 1.0, KIND_BIFURCATION)])
    theta0 = min(float(np.hypot(ex, ey)), math.hypot(ex, ey))
    monkeypatch.setattr(fingerprint, "DEFAULT_THETA0", theta0)
    assert register_minutiae(tpl, probe) == RegistrationTransform(0.0, 0.0, 0.0, 5)
    expected = 1.0 if theta0 == math.hypot(ex, ey) else 5 / 6
    assert match_oracle(tpl, probe) == expected
    assert_kernel_matches_oracle([tpl], probe)


def test_kernel_keeps_bins_apart_whose_keys_differ_by_two_to_the_sixteen(monkeypatch):
    monkeypatch.setattr(fingerprint, "DEFAULT_XY_BIN", 1e-3)
    tpl = make_template([(128, 128, 0.0, KIND_ENDING)])
    probe = make_template([(128, 128, 0.0, KIND_ENDING), (193.536, 128, 0.0, KIND_ENDING)])
    assert register_minutiae(tpl, probe) == RegistrationTransform(0.0, 0.0, 0.0, 1)
    assert_kernel_matches_oracle([tpl], probe)


def test_kernel_mixes_templates_of_different_image_sizes():
    rng = np.random.default_rng(43)
    probe = random_template(rng, 12, 300, 200)
    gallery = [random_template(rng, 10, w, h) for w, h in ((300, 200), (256, 256), (512, 384))]
    gallery += [jittered(probe, rng, size=size) for size in ((300, 200), (512, 384), (64, 64))]
    assert_kernel_matches_oracle(gallery, probe)


def test_kernel_matches_a_full_256_by_256_pair():
    rng = np.random.default_rng(47)
    tpl = random_template(rng, 256)
    probe = rigid_template(jittered(tpl, rng), 6.0, -4.0, math.radians(7.0))
    assert len(tpl) == len(probe) == 256
    reg = register_minutiae(tpl, probe)
    assert reg == hough_oracle(tpl, probe)
    score = match_minutiae(tpl, probe)
    assert score == match_oracle(tpl, probe)
    assert score > 0.5
    other = random_template(rng, 256)
    assert match_minutiae_many([other, tpl], probe) == [match_oracle(other, probe), score]


def test_kernel_scores_empty_templates_and_probes_zero():
    empty = FingerprintTemplate((), 256, 256)
    tpl = ten_point_template()
    assert match_minutiae_many([empty, tpl, empty], tpl) == [0.0, 1.0, 0.0]
    assert match_minutiae_many([tpl, empty], empty) == [0.0, 0.0]
    assert match_minutiae_many([], tpl) == []
    with pytest.raises(EmptyTemplate):
        register_minutiae(empty, empty)


@pytest.mark.parametrize("x, y", [(math.nan, 100.0), (100.0, math.inf), (-math.inf, 100.0)])
def test_kernel_rejects_non_finite_positions(x, y):
    # No template holds one, so the kernel never sees one: building it fails.
    with pytest.raises(ValueError, match="must be finite"):
        make_template([(x, y, 1.0, KIND_ENDING)])


@pytest.mark.parametrize("block_votes", [1, 7, 150, 1 << 14])
def test_kernel_is_independent_of_block_boundaries(monkeypatch, block_votes):
    rng = np.random.default_rng(53)
    probe = random_template(rng, 11)
    gallery = [random_template(rng, int(rng.integers(0, 20))) for _ in range(40)]
    gallery[5::9] = [jittered(probe, rng) for _ in gallery[5::9]]
    expected = [match_oracle(t, probe) for t in gallery]
    monkeypatch.setattr(fingerprint, "_BLOCK_VOTES", block_votes)
    assert match_minutiae_many(gallery, probe) == expected


# ---------------------------------------------------------------------------
# template objects and binary format

def test_minutia_validation():
    with pytest.raises(ValueError):
        Minutia(1.0, 1.0, 2.0 * math.pi, KIND_ENDING)
    with pytest.raises(ValueError):
        Minutia(1.0, 1.0, -0.1, KIND_ENDING)
    with pytest.raises(ValueError):
        Minutia(1.0, 1.0, 0.5, "ridge")


def test_template_caps_at_256_minutiae():
    many = tuple(Minutia(float(i % 256), float(i // 256), 0.0, KIND_ENDING)
                 for i in range(257))
    with pytest.raises(ValueError):
        FingerprintTemplate(many, 256, 256)
    FingerprintTemplate(many[:256], 256, 256)


def test_template_binary_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(10):
        count = int(rng.integers(0, 21))
        minutiae = tuple(
            Minutia(float(rng.uniform(0, 256)), float(rng.uniform(0, 256)),
                    float(rng.uniform(0, 2.0 * math.pi)),
                    KIND_ENDING if rng.random() < 0.5 else KIND_BIFURCATION)
            for _ in range(count))
        tpl = FingerprintTemplate(minutiae, 256, 290)
        back = decode_template(encode_template(tpl))
        assert len(back) == count
        assert (back.image_width, back.image_height) == (256, 290)
        for orig, got in zip(as_minutiae(tpl.rows), as_minutiae(back.rows)):
            assert got.x == float(np.float32(orig.x))
            assert got.y == float(np.float32(orig.y))
            assert got.kind == orig.kind
            assert math.isclose(got.theta, orig.theta, abs_tol=1e-6)


def test_template_roundtrip_clamps_theta_precision():
    near_two_pi = math.nextafter(2.0 * math.pi, 0.0)
    tpl = make_template([(1.0, 2.0, near_two_pi, KIND_ENDING)])
    back = decode_template(encode_template(tpl))
    assert 0.0 <= as_minutiae(back.rows)[0].theta < 2.0 * math.pi


def test_template_decode_rejects_bad_data():
    good = encode_template(ten_point_template())
    with pytest.raises(BadMagic):
        decode_template(b"XPT1" + good[4:])
    with pytest.raises(TruncatedData):
        decode_template(good[:8])
    with pytest.raises(TruncatedData):
        decode_template(good[:-4])
    bad_kind = bytearray(good)
    bad_kind[10 + 12] = 7
    with pytest.raises(TruncatedData):
        decode_template(bytes(bad_kind))


@pytest.mark.parametrize("field", [0, 1, 2])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_template_decode_rejects_non_finite_fields(field, value):
    data = bytearray(encode_template(ten_point_template()))
    struct.pack_into("<f", data, 10 + 16 * 3 + 4 * field, value)
    with pytest.raises(TruncatedData):
        decode_template(bytes(data))


def test_template_decode_rejects_counts_above_the_cap():
    cap = fingerprint.MAX_MINUTIAE
    record = struct.pack("<fffB3x", 1.0, 2.0, 0.0, 0)

    def blob(count):
        return fingerprint.TEMPLATE_MAGIC + struct.pack("<HHH", count, 256, 256) + record * count

    assert len(decode_template(blob(cap))) == cap
    with pytest.raises(TruncatedData):
        decode_template(blob(cap + 1))


# ---------------------------------------------------------------------------
# full pipeline

def test_build_template_recovers_planted_minutiae():
    kinds = [KIND_ENDING, KIND_BIFURCATION, KIND_ENDING]
    img, truth = synthgen.plant_print(kinds, seed=77, beta=math.radians(-10))
    tpl = build_template(img)
    used = set()
    for tx, ty, kind in truth:
        best = None
        for i, m in enumerate(as_minutiae(tpl.rows)):
            if i in used or m.kind != kind:
                continue
            d = math.hypot(m.x - tx, m.y - ty)
            if d <= 6.0 and (best is None or d < best[0]):
                best = (d, i)
        assert best is not None, f"planted {kind} at ({tx:.1f},{ty:.1f}) lost"
        used.add(best[1])
    assert len(tpl) - len(used) <= 2
