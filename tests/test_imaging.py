import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from test_fingerprint import PINNED_PRINT_DIGESTS, degraded_print, pinned_artifacts
from biolock import imaging
from biolock.errors import MalformedHeader, NotRegularFile, TruncatedData, UnsupportedMaxval
from biolock.fingerprint import KIND_BIFURCATION, KIND_ENDING, build_template, coherence_image
from biolock.imaging import (
    BINARIZE_WINDOW,
    MORPH_RADIUS,
    BinaryImage,
    FloatField,
    GrayImage,
    adaptive_threshold,
    box_mean,
    decode_pgm,
    encode_pgm,
    morph_close_open,
    thin,
)


def make_pgm(width, height, pixels, maxval=255, magic=b"P5"):
    header = magic + f"\n{width} {height}\n{maxval}\n".encode()
    return header + bytes(pixels)


# ---------------------------------------------------------------------------
# PGM decode / encode

def test_decode_pgm_maps_v_over_255():
    data = make_pgm(2, 2, [0, 255, 128, 64])
    img = decode_pgm(data)
    assert img.width == 2 and img.height == 2
    expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
    assert np.array_equal(img.pixels, expected)


def test_decode_pgm_truncated_payload():
    data = make_pgm(4, 4, range(8))
    with pytest.raises(TruncatedData):
        decode_pgm(data)


def test_decode_pgm_refuses_a_raster_over_the_cap_before_reading_it():
    # 10^10 pixels would be an 80 GB float64 raster; the short payload is never read
    with pytest.raises(MalformedHeader, match=f"{imaging.MAX_PGM_PIXELS}-pixel PGM cap"):
        decode_pgm(make_pgm(100000, 100000, range(16)))
    side = int(imaging.MAX_PGM_PIXELS ** 0.5)
    with pytest.raises(TruncatedData):  # at the cap, the payload length decides
        decode_pgm(make_pgm(side, side, range(16)))


def test_decode_pgm_rejects_color():
    data = make_pgm(2, 2, [0, 1, 2, 3], magic=b"P6")
    with pytest.raises(MalformedHeader):
        decode_pgm(data)


def test_decode_pgm_rejects_wrong_maxval():
    data = make_pgm(2, 2, [0, 1, 2, 3], maxval=65535)
    with pytest.raises(UnsupportedMaxval):
        decode_pgm(data)


@pytest.mark.parametrize("header", [
    b"P5 abc 2 255\n", b"P5 2 2 2.5\n", b"P5 1_0 1 255\n", b"P5 +2 2 255\n",
    b"P5 2 -2 255\n", b"P5 2 2 0x1\n", b"P5 \xd9\xa2 2 255\n", b"P52 2 255\n",
])
def test_decode_pgm_rejects_non_numeric_header_fields(header):
    with pytest.raises(MalformedHeader):
        decode_pgm(header + bytes(64))


@pytest.mark.parametrize("header", [
    b"P5\n" + b"9" * 5000 + b" 1\n255\n",  # over int()'s own 4 300-digit limit
    b"P5\n1 " + b"0" * 10 + b"1\n255\n",  # eleven digits of value 1
    b"P5\n2 2\n" + b"0" * 8 + b"255\n",
], ids=["5000_digits", "eleven_digit_height", "eleven_digit_maxval"])
def test_decode_pgm_refuses_a_header_field_over_ten_digits(header):
    with pytest.raises(MalformedHeader, match="more than 10 digits"):
        decode_pgm(header + bytes(4))
    # ten digits still parse
    assert decode_pgm(b"P5\n" + b"0" * 9 + b"2 2\n255\n" + bytes(4)).pixels.shape == (2, 2)


def test_decode_pgm_skips_comments():
    data = b"P5\n# a comment\n2 2\n255\n" + bytes([10, 20, 30, 40])
    img = decode_pgm(data)
    assert img.pixels[1, 1] == 40 / 255


def test_pgm_round_trip_payload_identical():
    rng = np.random.default_rng(7)
    payload = rng.integers(0, 256, size=24 * 16, dtype=np.uint8)
    data = make_pgm(24, 16, payload)
    again = encode_pgm(decode_pgm(data))
    assert again[-len(payload):] == payload.tobytes()
    assert decode_pgm(again).pixels.shape == (16, 24)


def test_read_regular_file_reads_up_to_its_cap_and_only_regular_files(tmp_path):
    path = tmp_path / "data"
    path.write_bytes(b"abcd")
    assert imaging.read_regular_file(path, 4) == b"abcd"
    assert imaging.read_regular_file(path, 1 << 30) == b"abcd"
    with pytest.raises(TruncatedData, match=f"{path}: longer than the 3-byte cap"):
        imaging.read_regular_file(path, 3)
    (tmp_path / "empty").write_bytes(b"")
    assert imaging.read_regular_file(tmp_path / "empty", 0) == b""
    os.mkfifo(tmp_path / "fifo")  # opened without blocking, so no writer is awaited
    for special in (tmp_path, tmp_path / "fifo"):
        with pytest.raises(NotRegularFile, match=f"{special}: not a regular file"):
            imaging.read_regular_file(special, 4)
    with pytest.raises(FileNotFoundError):
        imaging.read_regular_file(tmp_path / "absent", 4)


# ---------------------------------------------------------------------------
# Float fields

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", sorted(imaging.FIELD_KINDS))
def test_float_field_rejects_non_finite_values(kind, bad):
    # NaN fails every range comparison, and a frequency has no upper bound.
    with pytest.raises(ValueError, match="finite"):
        FloatField(np.array([[0.1, bad]]), kind=kind)
    FloatField(np.array([[0.1, 0.2]]), kind=kind)


@pytest.mark.parametrize("make, message", [
    (lambda: GrayImage(np.zeros(4)), "non-empty 2-D"),
    (lambda: GrayImage(np.zeros((2, 0))), "non-empty 2-D"),
    (lambda: GrayImage(np.array([[0.5, np.nan]])), "finite"),
    (lambda: GrayImage(np.array([[0.5, 1.5]])), r"\[0, 1\]"),
    (lambda: GrayImage(np.array([[-0.1, 0.5]])), r"\[0, 1\]"),
    (lambda: BinaryImage(np.ones((2, 2, 2), bool)), "non-empty 2-D"),
    (lambda: FloatField(np.zeros(3), "frequency"), "non-empty 2-D"),
    (lambda: FloatField(np.zeros((2, 2)), "phase"), "unknown field kind"),
    (lambda: FloatField(np.array([[0.0, np.pi]]), "orientation"), r"\[0, pi\)"),
    (lambda: FloatField(np.array([[-0.1, 1.0]]), "orientation"), r"\[0, pi\)"),
    (lambda: FloatField(np.array([[-0.1, 0.2]]), "frequency"), ">= 0"),
    (lambda: FloatField(np.array([[0.5, 1.1]]), "coherence"), r"\[0, 1\]"),
    (lambda: FloatField(np.array([[-0.1, 0.5]]), "coherence"), r"\[0, 1\]"),
], ids=["gray-1d", "gray-empty", "gray-nan", "gray-above-1", "gray-below-0", "binary-3d",
        "field-1d", "field-kind", "orientation-pi", "orientation-negative",
        "frequency-negative", "coherence-above-1", "coherence-negative"])
def test_raster_constructors_refuse_bad_values(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# ---------------------------------------------------------------------------
# Gradients

def test_gradients_constant_image_zero():
    img = GrayImage(np.full((12, 12), 0.37))
    gx, gy = img.gradients
    assert np.all(gx == 0.0)
    assert np.all(gy == 0.0)


def test_gradients_linear_ramp():
    w, h = 16, 12
    xs = np.arange(w) / w
    img = GrayImage(np.tile(xs, (h, 1)))
    gx, gy = img.gradients
    assert np.all(gx[1:-1, 1:-1] > 0)
    assert np.allclose(gy[1:-1, 1:-1], 0.0)


SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])


def naive_correlate(arr, kernel):
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    padded = np.pad(arr, ((ry, ry), (rx, rx)), mode="edge")
    out = np.zeros_like(arr)
    h, w = arr.shape
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    acc += kernel[i, j] * padded[y + i, x + j]
            out[y, x] = acc
    return out


def test_gradients_cosine_matches_direct_convolution():
    w, h = 32, 16
    xs = np.arange(w)
    img = GrayImage(np.tile(0.5 + 0.5 * np.cos(2 * np.pi * xs / 8), (h, 1)))
    gx, _ = img.gradients
    oracle = naive_correlate(img.pixels, SOBEL_X)
    assert np.array_equal(gx, oracle)


def same_bits(a, b):
    """Equal float arrays down to the sign of zero and the NaN positions."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def runs_of_levels(draw):
    """An image of k/255 levels laid out in constant runs, row by row or
    column by column, so that Sobel taps cancel exactly and give signed zeros."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    level = st.sampled_from([0, 1, 2, 127, 128, 254, 255]) | st.integers(0, 255)
    runs = draw(st.lists(st.tuples(level, st.integers(1, 2 * max(h, w))), min_size=1))
    flat = np.repeat([k for k, _ in runs], [n for _, n in runs])
    flat = np.resize(flat, h * w) / 255.0
    return flat.reshape(h, w) if draw(st.booleans()) else flat.reshape(w, h).T


@settings(max_examples=200, deadline=None)
@given(pixels=runs_of_levels())
def test_gradients_equal_the_full_nine_tap_loop_bit_for_bit(pixels):
    gx, gy = GrayImage(pixels).gradients
    assert same_bits(gx, naive_correlate(pixels, SOBEL_X))
    assert same_bits(gy, naive_correlate(np.ascontiguousarray(pixels.T), SOBEL_X).T)


def count_sobel_passes(monkeypatch):
    """Record the shape of each raster that GrayImage.gradients pads: one Sobel pass
    pads its image once, by one pixel of replicated edge."""
    calls = []
    real = np.pad

    def spy(array, pad_width, mode="constant", **kwargs):
        if mode == "edge" and pad_width == 1:
            calls.append(np.shape(array))
        return real(array, pad_width, mode=mode, **kwargs)
    monkeypatch.setattr(np, "pad", spy)
    return calls


def test_gradients_are_computed_once_per_image_and_read_only(monkeypatch):
    calls = count_sobel_passes(monkeypatch)
    img = GrayImage(np.linspace(0.0, 1.0, 80).reshape(8, 10))
    gx, gy = img.gradients
    assert img.gradients[0] is gx and img.gradients[1] is gy
    assert calls == [(8, 10)]
    for g in (gx, gy):
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 1.0
    # an equal image built afresh computes its own pair
    GrayImage(img.pixels).gradients
    assert calls == [(8, 10), (8, 10)]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 9), (64, 48)])
def test_gradients_are_c_contiguous_and_read_only(shape):
    pixels = np.random.default_rng(sum(shape)).random(shape)
    for g in GrayImage(pixels).gradients:
        assert g.shape == shape and g.dtype == np.float64
        assert g.flags.c_contiguous and not g.flags.writeable


# ---------------------------------------------------------------------------
# Morphology

def test_morph_all_true_fixed_point():
    mask = BinaryImage(np.ones((16, 16), dtype=bool))
    out = morph_close_open(mask)
    assert np.all(out.bits)


def test_morph_closes_single_hole():
    bits = np.ones((32, 32), dtype=bool)
    bits[13, 17] = False
    out = morph_close_open(BinaryImage(bits))
    assert np.all(out.bits)


def test_morph_removes_speck():
    bits = np.zeros((32, 32), dtype=bool)
    bits[10, 10] = True
    out = morph_close_open(BinaryImage(bits))
    assert not out.bits.any()


def test_morph_monotone_between_stages():
    rng = np.random.default_rng(5)
    bits = rng.random((40, 40)) > 0.4
    size = 2 * MORPH_RADIUS + 1
    closed = ndimage.minimum_filter(
        ndimage.maximum_filter(bits, size=size, mode="constant", cval=False),
        size=size, mode="constant", cval=True)
    final = morph_close_open(BinaryImage(bits)).bits
    assert np.all(bits <= closed)
    assert np.all(final <= closed)


def morph_oracle(bits):
    """Closing then opening as ndimage's square max/min filters."""
    size = 2 * MORPH_RADIUS + 1

    def dilate(b):
        return ndimage.maximum_filter(b, size=size, mode="constant", cval=False)

    def erode(b):
        return ndimage.minimum_filter(b, size=size, mode="constant", cval=True)
    return dilate(erode(erode(dilate(bits))))


@st.composite
def masks(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.5, 0.95]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((h, w)) < density


@settings(max_examples=300, deadline=None)
@given(bits=masks())
def test_morph_equals_the_ndimage_max_min_filters(bits):
    # the element is 5 px wide, wider than the thinnest drawn masks
    got = morph_close_open(BinaryImage(bits)).bits
    assert got.dtype == bool and np.array_equal(got, morph_oracle(bits))


def test_morph_equals_the_ndimage_max_min_filters_on_a_degraded_print():
    coh = coherence_image(degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=7)).values
    bits = coh >= coh.mean()
    got = morph_close_open(BinaryImage(bits)).bits
    assert np.array_equal(got, morph_oracle(bits))


# ---------------------------------------------------------------------------
# Adaptive threshold

@st.composite
def box_mean_inputs(draw):
    """A raster from 1 x N up to 70 x 70, often smaller than the window, at a
    scale from 1e-6 to 1e5, with signed zeros among its values."""
    size = draw(st.sampled_from([3, 11, 16]))
    shape = (draw(st.integers(1, 70)), draw(st.integers(1, 70)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-6.0, 5.0))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * scale
    a[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = -0.0
    return a, size


@settings(max_examples=300, deadline=None)
@given(box_mean_inputs())
def test_box_mean_equals_uniform_filter_bit_for_bit(case):
    a, size = case
    expect = ndimage.uniform_filter(a, size=size, mode="nearest")
    got = box_mean(a, size)
    assert got.shape == expect.shape and got.dtype == np.float64
    assert got.tobytes() == expect.tobytes()


def test_box_mean_equals_uniform_filter_on_rasters_past_one_block():
    """Rows past the first block of box_mean's scratch, at each program window."""
    rng = np.random.default_rng(3)
    for shape, size in (((512, 512), 16), ((300, 512), 11), ((2000, 40), 3), ((5000, 4), 16)):
        a = rng.random(shape)
        assert box_mean(a, size).tobytes() == ndimage.uniform_filter(
            a, size=size, mode="nearest").tobytes(), (shape, size)


def test_adaptive_threshold_constant_all_false():
    out = adaptive_threshold(np.full((16, 16), 0.3))
    assert not out.bits.any()


def test_adaptive_threshold_square_wave():
    w, h, period = 64, 16, 8
    xs = np.arange(w)
    wave = (xs % period < period // 2).astype(float)
    img = np.tile(wave, (h, 1))
    out = adaptive_threshold(img)
    # oracle: local mean over replicated-edge window
    mean = ndimage.uniform_filter(img, size=BINARIZE_WINDOW, mode="nearest")
    expect = img > mean + 1e-12
    assert np.array_equal(out.bits, expect)
    # interior of the high half is above the local mean
    assert out.bits[8, 33] or out.bits[8, 32]


def test_adaptive_threshold_checkerboard():
    n = 24
    yy, xx = np.mgrid[0:n, 0:n]
    board = ((xx + yy) % 2).astype(float)
    out = adaptive_threshold(board)
    # interior: every window holds both values, so its mean lies strictly
    # between 0 and 1 and only the 1 cells exceed it
    half = BINARIZE_WINDOW // 2
    inner = out.bits[half:-half, half:-half]
    expect = board[half:-half, half:-half] == 1.0
    assert inner.any() and np.array_equal(inner, expect)


def test_adaptive_threshold_affine_invariant():
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, size=(32, 32)).astype(float) / 255.0
    base = adaptive_threshold(img).bits
    scaled = adaptive_threshold(img * 0.4 + 0.2).bits
    assert np.array_equal(base, scaled)


# ---------------------------------------------------------------------------
# Neighbour codes and thinning

def oracle_deletions(bits, phase):
    """One subiteration's deletion mask, computed plane by plane over the
    padded 8-neighbourhood P2..P9 (N, NE, E, SE, S, SW, W, NW)."""
    p = np.pad(bits, 1, mode="constant", constant_values=False).astype(np.uint8)
    h, w = bits.shape
    offs = [(-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1)]
    n = [p[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] for dy, dx in offs]
    p2, p3, p4, p5, p6, p7, p8, p9 = n
    b = sum(plane.astype(np.int32) for plane in n)
    seq = n + [n[0]]
    a = sum(((seq[i] == 0) & (seq[i + 1] == 1)).astype(np.int32) for i in range(8))
    adj_pairs = sum((seq[i] & seq[i + 1]).astype(np.int32) for i in range(8))
    cond = bits & (b >= 2) & (b <= 6) & (a == 1)
    cond &= ~((b == 2) & (adj_pairs >= 1))
    if phase == 0:
        cond &= (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    else:
        cond &= (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return cond


def thin_oracle(bits, trace=None):
    """Thinning by the plane formulas, until a whole pass deletes nothing;
    ``trace`` collects the deletion count of every subiteration."""
    bits = np.array(bits, dtype=bool)
    while True:
        changed = False
        for phase in (0, 1):
            cond = oracle_deletions(bits, phase)
            if trace is not None:
                trace.append(int(cond.sum()))
            if cond.any():
                bits[cond] = False
                changed = True
        if not changed:
            return bits


def thin_checked(bits):
    """thin(), asserted equal to the plane-formula oracle."""
    out = thin(BinaryImage(bits))
    assert np.array_equal(out.bits, thin_oracle(bits))
    return out


def code_window(code):
    """A 3x3 window whose centre is set and whose neighbour i is bit i of code."""
    win = np.zeros((3, 3), dtype=bool)
    win[1, 1] = True
    for i, (dx, dy) in enumerate(imaging.NEIGHBOUR_OFFSETS):
        win[1 + dy, 1 + dx] = bool(code >> i & 1)
    return win


def test_neighbour_codes_read_every_window_and_clip_at_the_border():
    for code in range(256):
        win = code_window(code)
        codes = imaging.neighbour_codes(win)
        assert codes.dtype == np.uint8 and codes[1, 1] == code
        assert imaging.CROSSING_NUMBERS[code] == imaging.crossing_number(
            [win[1 + dy, 1 + dx] for dx, dy in imaging.NEIGHBOUR_OFFSETS])
    # the only set pixel is each of its neighbours' only neighbour
    codes = imaging.neighbour_codes(np.eye(1, 3, 1, dtype=bool))
    assert codes.tolist() == [[4, 0, 64]]


def test_deletion_tables_equal_the_plane_formula_on_all_codes():
    for phase, table in enumerate(imaging._THIN_DELETE):
        assert table.shape == (256,)
        for code in range(256):
            assert table[code] == oracle_deletions(code_window(code), phase)[1, 1]


@st.composite
def blobs(draw):
    shape = draw(st.sampled_from([(1, 1), (1, 9), (9, 1), (2, 17)])
                 | st.tuples(st.integers(1, 24), st.integers(1, 24)))
    bits = draw(arrays(bool, shape))
    from scipy import ndimage

    return ndimage.binary_dilation(bits) if draw(st.booleans()) else bits


@settings(max_examples=300, deadline=None)
@given(bits=blobs())
def test_thin_equals_plane_formula_on_drawn_blobs(bits):
    thin_checked(bits)


def thin_full_scan(bits):
    """thin by a full scan, the reference for the pixels thin skips: every
    subiteration reads every foreground pixel left."""
    bits = np.pad(bits, 1)
    codes = np.pad(imaging.neighbour_codes(bits[1:-1, 1:-1]), 1).ravel()
    live = np.flatnonzero(bits)
    steps = [(dy * bits.shape[1] + dx, np.uint8(0xFF ^ 1 << (i + 4) % 8))
             for i, (dx, dy) in enumerate(imaging.NEIGHBOUR_OFFSETS)]
    idle = phase = 0
    while idle < 2:
        gone = imaging._THIN_DELETE[phase][codes[live]]
        idle = 0 if gone.any() else idle + 1
        bits.flat[live[gone]] = False
        for step, keep in steps:
            codes[live[gone] + step] &= keep
        live = live[~gone]
        phase ^= 1
    return bits[1:-1, 1:-1]


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 64), st.integers(1, 64)), density=st.floats(0.3, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_thin_equals_the_full_scan_on_random_images(shape, density, seed):
    bits = np.random.default_rng(seed).random(shape) < density
    assert np.array_equal(thin(BinaryImage(bits)).bits, thin_full_scan(bits))


def test_thin_equals_the_full_scan_on_the_pinned_prints_ridges():
    for kind, seed in PINNED_PRINT_DIGESTS:
        art = pinned_artifacts(kind, seed)
        ridges = art.binarized.bits & art.mask.bits
        assert (ridges & (imaging.neighbour_codes(ridges) == 0xFF)).any()
        assert np.array_equal(art.thinned.bits, thin_full_scan(ridges)), (kind, seed)


def test_thin_equals_plane_formula_on_a_degraded_print():
    _, art = build_template(degraded_print([KIND_ENDING, KIND_BIFURCATION] * 4, seed=5),
                            keep_artifacts=True)
    ridges = art.binarized.bits & art.mask.bits
    assert ridges.shape == (512, 512)
    assert np.array_equal(thin_checked(ridges).bits, art.thinned.bits)

def last_deleting_phase(bits):
    trace = []
    thin_oracle(bits, trace)
    return [i % 2 for i, n in enumerate(trace) if n][-1], trace


def test_thin_stops_the_same_whichever_subiteration_deletes_last():
    second = np.zeros((7, 8), dtype=bool)
    second[1:6, 1:7] = True
    assert last_deleting_phase(second) == (1, [11, 8, 6, 3, 0, 0])
    thin_checked(second)
    first = np.zeros((6, 7), dtype=bool)
    first[1:5, 1:6] = True
    assert last_deleting_phase(first) == (0, [9, 6, 3, 0, 0, 0])
    thin_checked(first)


def test_thin_returns_an_undeletable_image_as_it_is():
    checkerboard = np.indices((9, 11)).sum(axis=0) % 2 == 0
    for case in (checkerboard, np.eye(6, dtype=bool), np.ones((1, 8), dtype=bool)):
        trace = []
        thin_oracle(case, trace)
        assert trace == [0, 0]
        assert np.array_equal(thin_checked(case).bits, case)


def test_thin_an_all_foreground_block_on_the_border():
    thin_checked(np.ones((7, 9), dtype=bool))
    corner = np.zeros((12, 10), dtype=bool)
    corner[:6, 4:] = True
    out = thin_checked(corner)
    assert out.bits[:6, 4:].any() and not out.bits[6:].any()


def test_thin_codes_the_neighbourhoods_once(monkeypatch):
    calls = []
    real = imaging.neighbour_codes
    monkeypatch.setattr(imaging, "neighbour_codes", lambda b: calls.append(b.shape) or real(b))
    bits = np.zeros((40, 40), dtype=bool)
    bits[5:20, 3:37] = True
    bits[20:36, 10:16] = True
    trace = []
    expected = thin_oracle(bits, trace)
    assert sum(n > 0 for n in trace) > 4
    assert np.array_equal(thin(BinaryImage(bits)).bits, expected)
    assert calls == [(40, 40)]


def test_binary_image_codes_are_computed_once_and_read_only(monkeypatch):
    calls = []
    real = imaging.neighbour_codes
    monkeypatch.setattr(imaging, "neighbour_codes", lambda b: calls.append(b.shape) or real(b))
    img = BinaryImage(np.eye(5, 7, dtype=bool))
    codes = img.codes
    assert img.codes is codes and calls == [(5, 7)]
    assert np.array_equal(codes, real(img.bits)) and not codes.flags.writeable


def test_thin_horizontal_bar_centerline():
    bits = np.zeros((12, 30), dtype=bool)
    bits[5:8, 4:24] = True
    out = thin_checked(bits)
    assert np.all(out.bits <= bits)
    assert out.bits.sum() >= 18
    # one-pixel wide: every column of the span holds at most one pixel
    assert np.all(out.bits[:, 5:23].sum(axis=0) <= 1)
    from scipy import ndimage

    _, n = ndimage.label(out.bits, structure=np.ones((3, 3)))
    assert n == 1


def test_thin_already_thin_diagonal_unchanged():
    bits = np.zeros((16, 16), dtype=bool)
    for i in range(3, 13):
        bits[i, i] = True
    out = thin_checked(bits)
    assert np.array_equal(out.bits, bits)


def test_thin_empty_image():
    bits = np.zeros((10, 10), dtype=bool)
    out = thin_checked(bits)
    assert not out.bits.any()


def test_thin_idempotent_and_subset():
    rng = np.random.default_rng(3)
    blob = rng.random((48, 48)) > 0.55
    from scipy import ndimage

    blob = ndimage.binary_dilation(blob, iterations=1)
    once = thin_checked(blob)
    twice = thin_checked(once.bits)
    assert np.array_equal(once.bits, twice.bits)
    assert np.all(once.bits <= blob)


def test_thin_preserves_component_count_on_bars():
    bits = np.zeros((40, 40), dtype=bool)
    bits[5:8, 2:38] = True
    bits[20:23, 2:38] = True
    bits[30:36, 10:14] = True
    from scipy import ndimage

    out = thin_checked(bits)
    s = np.ones((3, 3))
    _, n_in = ndimage.label(bits, structure=s)
    _, n_out = ndimage.label(out.bits, structure=s)
    assert n_in == n_out == 3
