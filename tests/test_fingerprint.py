"""Tests for the fingerprint pipeline: segmentation, field estimation,
enhancement, minutiae extraction/filtering, registration, and matching."""
import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synthgen
from biolock.errors import (
    BadMagic,
    BlockTooSmall,
    EmptyTemplate,
    ImageTooSmall,
    TruncatedData,
)
from biolock import fingerprint
from biolock.fingerprint import (
    FREQ_FALLBACK,
    KIND_BIFURCATION,
    KIND_ENDING,
    FingerprintTemplate,
    MatchParams,
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


def make_template(coords, size=256):
    minutiae = tuple(Minutia(float(x), float(y), theta, kind)
                     for x, y, theta, kind in coords)
    return FingerprintTemplate(minutiae, size, size)


def rigid_template(tpl, dx, dy, dtheta):
    cx = tpl.image_width / 2.0
    cy = tpl.image_height / 2.0
    ca, sa = math.cos(dtheta), math.sin(dtheta)
    moved = []
    for m in tpl.minutiae:
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
    mask, _ = segment(img)
    half = img.width // 2
    ridge_cover = mask.bits[:, :half].mean()
    flat_cover = mask.bits[:, half:].mean()
    assert ridge_cover >= 0.90
    assert flat_cover <= 0.10


def test_segment_covers_fully_ridged_image():
    mask, _ = segment(ridge_image(256, 8, angle=math.pi / 6))
    interior = mask.bits[16:-16, 16:-16]
    assert interior.mean() >= 0.95


def test_segment_zeroes_masked_pixels():
    img = half_ridge_image()
    mask, segmented = segment(img)
    assert np.all(segmented.pixels[~mask.bits] == 0.0)
    assert np.all(segmented.pixels[mask.bits] == img.pixels[mask.bits])


def test_segment_mask_invariant_under_affine_rescale():
    rng = np.random.default_rng(3)
    fixtures = [GrayImage(rng.random((64, 64))) for _ in range(3)]
    fixtures.append(half_ridge_image(128))
    for img in fixtures:
        mask, _ = segment(img)
        rescaled = GrayImage(0.5 * img.pixels + 0.25)
        mask2, _ = segment(rescaled)
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
    assert np.array_equal(gabor_enhance(img, orientation, frequency),
                          gabor_oracle(img, orientation, frequency))


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


@pytest.mark.parametrize("size", [120, 255])
def test_gabor_tiles_follow_the_16px_block_grid(size):
    # 120 // 7 and 255 // 15 are 17: tiles sized by height // blocks would
    # drift away from the 16-px blocks the fields were estimated on.
    img = synthgen.render_print([(size * 0.4, size * 0.55, 1.0)], beta=0.3, size=size)
    orientation = estimate_orientation(img)
    assert orientation.values.shape == (size // 16, size // 16)
    assert_frequency_matches_oracle(img, orientation)
    frequency = estimate_frequency(img, orientation)
    assert np.array_equal(gabor_enhance(img, orientation, frequency),
                          gabor_oracle(img, orientation, frequency))


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
                    assert (fingerprint._skeleton_neighbors(codes, x, y)
                            == skeleton_neighbors_oracle(bits, x, y))


def test_extract_segment_reports_two_endings():
    thinned = skeleton_image(hline(10, 19, 16), 32)
    mask = BinaryImage(np.ones((32, 32), dtype=bool))
    found = extract_minutiae(thinned, zeros_field(2), mask)
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
    found = extract_minutiae(thinned, zeros_field(1), mask)
    bifs = [m for m in found if m.kind == KIND_BIFURCATION]
    ends = [m for m in found if m.kind == KIND_ENDING]
    assert len(bifs) == 1 and (bifs[0].x, bifs[0].y) == (8.0, 8.0)
    assert {(m.x, m.y) for m in ends} == {(8.0, 11.0), (11.0, 5.0), (5.0, 5.0)}


def test_extract_skips_minutiae_outside_mask():
    thinned = skeleton_image(hline(10, 19, 16), 32)
    bits = np.ones((32, 32), dtype=bool)
    bits[:, 16:] = False
    found = extract_minutiae(thinned, zeros_field(2), BinaryImage(bits))
    assert len(found) == 1
    assert (found[0].x, found[0].y, found[0].kind) == (10.0, 16.0, KIND_ENDING)


def test_extract_orients_minutiae_by_16px_blocks():
    # 120 // 7 is 17, but row 16 is the first row of block row 1.
    thinned = skeleton_image(hline(40, 60, 16), 120)
    mask = BinaryImage(np.ones((120, 120), dtype=bool))
    rows = np.repeat(0.1 * np.arange(7)[:, None], 7, axis=1)
    found = extract_minutiae(thinned, FloatField(rows, kind="orientation"), mask)
    # the ending at x = 60 departs leftward, against the block orientation
    right = next(m for m in found if m.x == 60.0)
    assert right.theta == pytest.approx(0.1 + math.pi)


def test_extract_reports_only_cn_one_or_three():
    rng = np.random.default_rng(17)
    for _ in range(3):
        blobs = rng.random((64, 64)) < 0.55
        thinned = thin(BinaryImage(blobs))
        mask = BinaryImage(np.ones((64, 64), dtype=bool))
        found = extract_minutiae(thinned, zeros_field(4), mask)
        padded = np.pad(thinned.bits, 1)
        for m in found:
            x, y = int(m.x), int(m.y)
            hood = [padded[1 + y + dy, 1 + x + dx] for dx, dy in NEIGH]
            assert crossing_number(hood) in (1, 3)
            assert 0.0 <= m.theta < 2.0 * math.pi


# ---------------------------------------------------------------------------
# false-minutiae filtering

def extract_all(thinned, size):
    mask = BinaryImage(np.ones((size, size), dtype=bool))
    return extract_minutiae(thinned, zeros_field(max(1, size // 16)), mask), mask


def test_filter_break_rule_removes_facing_pair():
    thinned = skeleton_image(hline(12, 22, 24) + hline(26, 36, 24), 48)
    raw, mask = extract_all(thinned, 48)
    assert len(raw) == 4
    kept = filter_false_minutiae(raw, thinned, mask, 9.0)
    assert {(m.x, m.y) for m in kept} == {(12.0, 24.0), (36.0, 24.0)}
    assert all(m.kind == KIND_ENDING for m in kept)


def test_filter_spur_rule_removes_ending_and_junction():
    spur = [(24, 23), (24, 22), (24, 21), (24, 20)]
    thinned = skeleton_image(hline(10, 38, 24) + spur, 48)
    raw, mask = extract_all(thinned, 48)
    assert sum(m.kind == KIND_BIFURCATION for m in raw) == 1
    kept = filter_false_minutiae(raw, thinned, mask, 9.0)
    assert {(m.x, m.y) for m in kept} == {(10.0, 24.0), (38.0, 24.0)}
    assert all(m.kind == KIND_ENDING for m in kept)


def test_filter_clean_segment_unchanged():
    thinned = skeleton_image(hline(12, 27, 20), 40)
    raw, mask = extract_all(thinned, 40)
    kept = filter_false_minutiae(raw, thinned, mask, 9.0)
    assert kept == raw


def test_filter_border_rule_drops_edge_minutiae():
    thinned = skeleton_image(hline(4, 30, 20), 40)
    raw, mask = extract_all(thinned, 40)
    kept = filter_false_minutiae(raw, thinned, mask, 9.0)
    assert [(m.x, m.y) for m in kept] == [(30.0, 20.0)]


def test_filter_output_subset_and_idempotent():
    fixtures = [skeleton_image(hline(12, 22, 24) + hline(26, 36, 24), 48),
                skeleton_image(hline(10, 38, 24)
                               + [(24, 23), (24, 22), (24, 21), (24, 20)], 48)]
    for thinned in fixtures:
        raw, mask = extract_all(thinned, 48)
        once = filter_false_minutiae(raw, thinned, mask, 9.0)
        assert set(once) <= set(raw)
        assert filter_false_minutiae(once, thinned, mask, 9.0) == once


def test_filter_idempotent_on_synthetic_print():
    img, _ = synthgen.plant_print([KIND_ENDING, KIND_BIFURCATION, KIND_ENDING],
                                  seed=42)
    _, art = build_template(img, keep_artifacts=True)
    gap = 1.0 / float(np.median(art.frequency.values))
    once = filter_false_minutiae(art.raw_minutiae, art.thinned, art.mask, gap)
    assert set(once) <= set(art.raw_minutiae)
    assert filter_false_minutiae(once, art.thinned, art.mask, gap) == once


def filter_oracle(minutiae, thinned, mask, avg_ridge_gap):
    """The filter as four hand-written loops: every pair of minutiae is
    enumerated for the break, hole and bridge rules, and the neighbour codes
    are rebuilt for every traced ending and every hole candidate."""
    bits = thinned.bits
    border = fingerprint._border_distance(mask)
    gap = avg_ridge_gap
    steps = max(1, int(math.ceil(gap)))
    angle_diff = fingerprint._angle_diff

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
        junction, n_steps = fingerprint._trace_to_junction(
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
            if fingerprint._two_paths(neighbour_codes(bits), pa, pb, 2 * steps):
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
    kept = filter_false_minutiae(minutiae, thinned, mask, gap)
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
    kept = assert_filter_matches_oracle(raw, tall, mask, 9.0)
    assert sorted((m.x, m.y) for m in kept if m.kind == KIND_BIFURCATION) == [
        (20.0, 24.0), (26.0, 24.0)]


def test_filter_bridge_rule_removes_crossing_pairs_with_a_bifurcation():
    # No skeleton pixels, so only the distance and direction rules can fire.
    thinned = BinaryImage(np.zeros((64, 64), dtype=bool))
    mask = BinaryImage(np.ones((64, 64), dtype=bool))
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
    kept = assert_filter_matches_oracle(raw, thinned, mask, 9.0)
    assert kept == shallow + far + endings + opposed


def test_filter_builds_one_crossing_number_map_per_call(monkeypatch):
    calls = []
    real = fingerprint.neighbour_codes

    def counting(bits):
        calls.append(bits.shape)
        return real(bits)

    monkeypatch.setattr(fingerprint, "neighbour_codes", counting)
    thinned = skeleton_image(hline(10, 38, 24) + [(24, 23), (24, 22), (24, 21), (24, 20)]
                             + hline(10, 38, 34), 48)
    raw, mask = extract_all(thinned, 48)
    assert sum(m.kind == KIND_ENDING for m in raw) >= 4
    calls.clear()
    filter_false_minutiae(raw, thinned, mask, 9.0)
    assert calls == [(48, 48)]
    art = clean_print_artifacts()
    calls.clear()
    filter_false_minutiae(art.raw_minutiae, art.thinned, art.mask, art_gap(art))
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
    assert np.array_equal(gabor_enhance(img, orientation, frequency),
                          gabor_oracle(img, orientation, frequency))


def test_build_template_takes_the_mask_without_the_masked_image(monkeypatch):
    img = synthgen.render_print([(100.0, 140.0, 1.0)], beta=0.3)
    mask, _ = segment(img)

    def masked_image(*args):
        raise AssertionError("build_template built the masked image")

    monkeypatch.setattr(fingerprint, "segment", masked_image)
    _, art = build_template(img, keep_artifacts=True)
    assert np.array_equal(art.mask.bits, mask.bits)


def test_filter_equals_oracle_on_degraded_prints():
    for n, seed in ((8, 5), (11, 9)):
        kinds = [KIND_ENDING if j % 2 == 0 else KIND_BIFURCATION for j in range(n)]
        _, art = build_template(degraded_print(kinds, seed), keep_artifacts=True)
        assert art.thinned.bits.shape == (512, 512)
        assert len(art.raw_minutiae) > 1000
        kept = assert_filter_matches_oracle(art.raw_minutiae, art.thinned, art.mask,
                                            art_gap(art))
        assert 0 < len(kept) < len(art.raw_minutiae)


def test_build_template_runs_one_border_distance_per_print(monkeypatch):
    img = degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=5)
    calls = []
    real = fingerprint._border_distance
    monkeypatch.setattr(fingerprint, "_border_distance",
                        lambda mask: calls.append(mask.bits.shape) or real(mask))
    template, art = build_template(img, keep_artifacts=True)
    assert calls == [(512, 512)]
    # The public filter, then the cap ranked by a second distance transform,
    # as the pipeline did before filter and cap shared one.
    kept = filter_false_minutiae(art.raw_minutiae, art.thinned, art.mask, art_gap(art))
    assert len(kept) > fingerprint.MAX_MINUTIAE
    border = real(art.mask)
    ranked = sorted(range(len(kept)),
                    key=lambda i: (-border[int(round(kept[i].y)), int(round(kept[i].x))], i))
    capped = tuple(kept[i] for i in sorted(ranked[:fingerprint.MAX_MINUTIAE]))
    expected = FingerprintTemplate(capped, img.width, img.height)
    assert encode_template(template) == encode_template(expected)


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
    anchors = draw(st.lists(st.sampled_from(art.raw_minutiae), min_size=1, max_size=10))
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
    assert sorted(fingerprint._close_pairs(minutiae, gap)) == expected


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


def hough_oracle(template, probe, params=MatchParams()):
    """The pairwise Hough registration, one vote per (template, probe) minutia
    pair in a dict accumulator; the peak bin has the most votes, then the
    smallest |dtheta|, then the smallest |dx|+|dy|, then the first key in
    sorted order.  Bin means are summed left to right in vote order."""
    if len(template) == 0 or len(probe) == 0:
        raise EmptyTemplate("registration needs non-empty minutiae sets")
    cx = template.image_width / 2.0
    cy = template.image_height / 2.0
    votes = {}
    for mt in template.minutiae:
        for mp in probe.minutiae:
            d = (mp.theta - mt.theta + math.pi) % (2.0 * math.pi) - math.pi
            if d == -math.pi:
                d = math.pi
            ca, sa = math.cos(d), math.sin(d)
            ox, oy = mt.x - cx, mt.y - cy
            dx = mp.x - (cx + ca * ox - sa * oy)
            dy = mp.y - (cy + sa * ox + ca * oy)
            key = (int(round(d / params.hough_angle_bin)),
                   int(round(dx / params.hough_xy_bin)),
                   int(round(dy / params.hough_xy_bin)))
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


def match_oracle(template, probe, params=MatchParams()):
    """The pairwise matcher: register, map the probe back into the template
    frame, then pair greedily over candidates sorted by (dist, ti, pi)."""
    if len(template) == 0 or len(probe) == 0:
        return 0.0
    reg = hough_oracle(template, probe, params)
    cx = template.image_width / 2.0
    cy = template.image_height / 2.0
    c, s = math.cos(-reg.dtheta), math.sin(-reg.dtheta)
    aligned = []
    for m in probe.minutiae:
        ox, oy = (m.x - reg.dx) - cx, (m.y - reg.dy) - cy
        aligned.append((cx + c * ox - s * oy, cy + s * ox + c * oy,
                        (m.theta - reg.dtheta) % (2.0 * math.pi), m.kind))
    candidates = []
    for ti, mt in enumerate(template.minutiae):
        for pi, (x, y, theta, kind) in enumerate(aligned):
            if kind != mt.kind:
                continue
            dist = math.hypot(mt.x - x, mt.y - y)
            turn = (mt.theta - theta) % (2.0 * math.pi)
            if dist > params.theta0 or min(turn, 2.0 * math.pi - turn) > params.theta1:
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
    params = MatchParams()
    tpl = ten_point_template()
    probe = rigid_template(tpl, 0.0, 0.0, math.radians(15.0))
    reg = register_minutiae(tpl, probe, params)
    assert abs(reg.dtheta - math.radians(15.0)) <= params.hough_angle_bin / 2.0
    assert reg == hough_oracle(tpl, probe, params)


def test_register_empty_template_raises():
    empty = FingerprintTemplate((), 256, 256)
    tpl = ten_point_template()
    with pytest.raises(EmptyTemplate):
        register_minutiae(empty, tpl)
    with pytest.raises(EmptyTemplate):
        register_minutiae(tpl, empty)


def test_register_recovers_random_rigid_transforms():
    params = MatchParams()
    rng = np.random.default_rng(29)
    tpl = ten_point_template(seed=8)
    for _ in range(10):
        dx = float(rng.uniform(-20.0, 20.0))
        dy = float(rng.uniform(-20.0, 20.0))
        dtheta = float(rng.uniform(-math.radians(20.0), math.radians(20.0)))
        probe = rigid_template(tpl, dx, dy, dtheta)
        reg = register_minutiae(tpl, probe, params)
        assert abs(reg.dx - dx) <= params.hough_xy_bin / 2.0
        assert abs(reg.dy - dy) <= params.hough_xy_bin / 2.0
        assert abs(reg.dtheta - dtheta) <= params.hough_angle_bin / 2.0
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
        for m in base.minutiae:
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

def assert_kernel_matches_oracle(gallery, probe, params=MatchParams()):
    assert match_minutiae_many(gallery, probe, params) == [
        match_oracle(t, probe, params) for t in gallery]
    for t in gallery:
        assert match_minutiae(t, probe, params) == match_oracle(t, probe, params)
        if len(t) and len(probe):
            assert register_minutiae(t, probe, params) == hough_oracle(t, probe, params)


def jittered(tpl, rng, sigma=2.0, size=None):
    width, height = size or (tpl.image_width, tpl.image_height)
    return FingerprintTemplate(tuple(
        Minutia(m.x + float(rng.normal(0.0, sigma)), m.y + float(rng.normal(0.0, sigma)),
                (m.theta + float(rng.normal(0.0, 0.05))) % (2.0 * math.pi), m.kind)
        for m in tpl.minutiae), width, height)


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
    params = MatchParams(hough_xy_bin=xy_bin, hough_angle_bin=angle_bin)
    assert_kernel_matches_oracle(gallery + [gallery[0], probe], probe, params)


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
                                          for m in tpl.minutiae), 256, 256)
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


def test_kernel_decides_the_distance_threshold_on_the_exact_distance():
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
    params = MatchParams(theta0=min(float(np.hypot(ex, ey)), math.hypot(ex, ey)))
    assert register_minutiae(tpl, probe, params) == RegistrationTransform(0.0, 0.0, 0.0, 5)
    expected = 1.0 if params.theta0 == math.hypot(ex, ey) else 5 / 6
    assert match_oracle(tpl, probe, params) == expected
    assert_kernel_matches_oracle([tpl], probe, params)


def test_kernel_keeps_bins_apart_whose_keys_differ_by_two_to_the_sixteen():
    params = MatchParams(hough_xy_bin=1e-3)
    tpl = make_template([(128, 128, 0.0, KIND_ENDING)])
    probe = make_template([(128, 128, 0.0, KIND_ENDING), (193.536, 128, 0.0, KIND_ENDING)])
    assert register_minutiae(tpl, probe, params) == RegistrationTransform(0.0, 0.0, 0.0, 1)
    assert_kernel_matches_oracle([tpl], probe, params)


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
    # A decoded template file can hold any f32 value, NaN and inf included.
    tpl = ten_point_template()
    bad = make_template([(x, y, 1.0, KIND_ENDING)])
    for gallery, probe in (([tpl, bad], tpl), ([tpl], bad)):
        with pytest.raises(ValueError):
            match_minutiae_many(gallery, probe)
    with pytest.raises(ValueError):
        register_minutiae(bad, tpl)


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
        for orig, got in zip(tpl.minutiae, back.minutiae):
            assert got.x == float(np.float32(orig.x))
            assert got.y == float(np.float32(orig.y))
            assert got.kind == orig.kind
            assert math.isclose(got.theta, orig.theta, abs_tol=1e-6)


def test_template_roundtrip_clamps_theta_precision():
    near_two_pi = math.nextafter(2.0 * math.pi, 0.0)
    tpl = make_template([(1.0, 2.0, near_two_pi, KIND_ENDING)])
    back = decode_template(encode_template(tpl))
    assert 0.0 <= back.minutiae[0].theta < 2.0 * math.pi


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
        for i, m in enumerate(tpl.minutiae):
            if i in used or m.kind != kind:
                continue
            d = math.hypot(m.x - tx, m.y - ty)
            if d <= 6.0 and (best is None or d < best[0]):
                best = (d, i)
        assert best is not None, f"planted {kind} at ({tx:.1f},{ty:.1f}) lost"
        used.add(best[1])
    assert len(tpl) - len(used) <= 2
