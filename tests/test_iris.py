"""Tests for the iris pipeline: pupil/iris localization, polar normalization,
eyelid screening, the two iris-code schemes, and masked Hamming matching."""
import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import synthgen
from biolock.errors import (
    BadDimensions,
    BadMagic,
    BoundaryNotFound,
    IncomparableCodes,
    NoPupilFound,
    PipelineFailure,
    SchemeMismatch,
    TruncatedData,
)
from biolock import cli, iris, registry
from biolock.imaging import GrayImage, encode_pgm
from biolock.iris import (
    DEFAULT_ANGULAR,
    DEFAULT_MAX_SHIFT,
    DEFAULT_RADIAL,
    MIN_COMPARABLE_BITS,
    SCHEME_HAAR,
    SCHEME_MELLIN,
    IrisCode,
    IrisGeometry,
    NormalizedStrip,
    build_codes,
    decode_code,
    detect_eyelids,
    encode_code,
    haar_code,
    haar_decompose,
    haar_reconstruct,
    hamming_distance,
    hamming_distances,
    locate_iris_boundary,
    locate_pupil,
    mellin_code,
    normalize,
)

# Calibrated fixture subjects: every cross pair keeps both schemes' distance
# >= 0.42 and each subject's small-rotation re-render stays well genuine.
SUBJECT_SEEDS = (511, 519, 521, 526, 531)
SUBJECT_ROTATIONS_DEG = (0.3, -0.6, 0.9, -1.2, 0.7)

# Upper/lower eyelid sector column spans of a 512-column strip.
UPPER_COLS = range(86, 171)
LOWER_COLS = range(342, 427)


def disk_image(width, height, cx, cy, r, fg=0.05, bg=0.8):
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    img = np.full((height, width), bg)
    img[np.hypot(xx - cx, yy - cy) <= r] = fg
    return GrayImage(img)


def ring_image(zones, size=256, center=128.0):
    """Concentric zones: zones = [(radius, value), ...] outermost first."""
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    r = np.hypot(xx - center, yy - center)
    img = np.full((size, size), zones[0][1])
    for radius, value in zones[1:]:
        img[r <= radius] = value
    return GrayImage(img)


def full_strip(values):
    return NormalizedStrip(values, np.ones_like(values, dtype=bool))


def random_code(rng, scheme):
    n = 512 if scheme == SCHEME_HAAR else 1536
    return IrisCode(rng.integers(0, 2, n).astype(bool), np.ones(n, bool), scheme)


def roll_rows(values, scheme, shift):
    """Independently rebuilt per-row rotation of one value per code bit."""
    shapes = [(4, 32)] * 3 + [(2, 16)] * 4 if scheme == SCHEME_HAAR else [(24, 64)]
    out, pos = [], 0
    for rows, width in shapes:
        n = rows * width
        out.append(np.roll(values[pos:pos + n].reshape(rows, width), shift, axis=1).ravel())
        pos += n
    return np.concatenate(out)


def roll_code_rows(code, shift):
    """Independently rebuilt per-row rotation of a code's bits and mask."""
    return IrisCode(roll_rows(code.bits, code.scheme, shift),
                    roll_rows(code.mask, code.scheme, shift), code.scheme)


def hamming_oracle(a, b):
    """The pairwise shift loop the batched kernel replaced: b is rotated by
    each shift up to iris.DEFAULT_MAX_SHIFT, and the least disagreeing
    fraction of at least MIN_COMPARABLE_BITS jointly valid bits wins."""
    if a.scheme != b.scheme or len(a) != len(b):
        raise SchemeMismatch(
            f"cannot compare {a.scheme}/{len(a)} against {b.scheme}/{len(b)}")
    best = None
    for shift in range(-iris.DEFAULT_MAX_SHIFT, iris.DEFAULT_MAX_SHIFT + 1):
        rolled = roll_code_rows(b, shift)
        joint = a.mask & rolled.mask
        valid_count = int(joint.sum())
        if valid_count < MIN_COMPARABLE_BITS:
            continue
        hd = float(((a.bits ^ rolled.bits) & joint).sum()) / valid_count
        if best is None or hd < best:
            best = hd
    if best is None:
        raise IncomparableCodes(
            f"fewer than {MIN_COMPARABLE_BITS} jointly valid bits at every shift")
    return best


def perimeter_mean_oracle(img, cx, cy, r, samples=256):
    """Independent mean perimeter intensity via scipy's bilinear sampler."""
    phi = 2.0 * math.pi * np.arange(samples) / samples
    coords = np.vstack([cy + r * np.sin(phi), cx + r * np.cos(phi)])
    return float(ndimage.map_coordinates(img.pixels, coords, order=1).mean())


# --- localization -----------------------------------------------------------

def test_locate_pupil_centered_disk():
    cx, cy, r = locate_pupil(disk_image(240, 200, 120.0, 80.0, 30.0))
    assert abs(cx - 120.0) <= 1.0
    assert abs(cy - 80.0) <= 1.0
    assert abs(r - 30.0) <= 1.0


def test_locate_pupil_all_bright():
    with pytest.raises(NoPupilFound):
        locate_pupil(GrayImage(np.full((64, 64), 0.8)))


def test_locate_pupil_refuses_a_dark_blob_that_fills_the_eye():
    with pytest.raises(NoPupilFound, match="fills the whole image"):
        locate_pupil(GrayImage(np.full((64, 64), 0.1)))


def test_locate_pupil_ignores_speck():
    img = np.full((64, 64), 0.8)
    img[30, 30:32] = 0.0
    with pytest.raises(NoPupilFound):
        locate_pupil(GrayImage(img))


def test_locate_pupil_picks_largest_component():
    img = np.array(disk_image(240, 200, 120.0, 80.0, 30.0).pixels)
    img[5, 5:9] = 0.0  # 4-px distractor far from the pupil
    cx, cy, r = locate_pupil(GrayImage(img))
    assert abs(cx - 120.0) <= 1.0 and abs(cy - 80.0) <= 1.0


def pupil_oracle(img):
    """locate_pupil on ``ndimage.label`` with a search of every pixel outside
    the component, as the pipeline computed it before it labelled runs."""
    dark = img.pixels < iris.PUPIL_THRESHOLD
    labels, count = ndimage.label(dark, structure=np.ones((3, 3), dtype=bool))
    if count == 0:
        raise NoPupilFound("no pixels below the pupil threshold")
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    best = int(sizes.argmax())
    if sizes[best] < iris.MIN_PUPIL_AREA:
        raise NoPupilFound(
            f"largest dark component has {sizes[best]} px, needs {iris.MIN_PUPIL_AREA}")
    component = labels == best
    ys, xs = np.nonzero(component)
    cx, cy = float(xs.mean()), float(ys.mean())
    out_ys, out_xs = np.nonzero(~component)
    if out_ys.size == 0:
        raise NoPupilFound("dark component fills the whole image")
    pupil_r = float(np.hypot(out_xs - cx, out_ys - cy).min())
    if pupil_r < iris.MIN_PUPIL_RADIUS:
        raise NoPupilFound(f"pupil radius {pupil_r:g} px, needs {iris.MIN_PUPIL_RADIUS:g}")
    return cx, cy, pupil_r


def pupil_outcome(locate, img):
    """What ``locate`` returns for ``img``, or the text of its NoPupilFound."""
    try:
        return locate(img)
    except NoPupilFound as exc:
        return str(exc)


def run_labels(bits):
    """The label image of ``iris._runs_and_components``: each component's runs
    numbered 1, 2, ... in the order of their roots."""
    rows, starts, ends, root = iris._runs_and_components(bits)
    number = np.searchsorted(np.unique(root), root) + 1
    labels = np.zeros(bits.shape, dtype=np.int32)
    for row, start, end, n in zip(rows, starts, ends, number):
        labels[row, start:end] = n
    return labels


@st.composite
def dark_masks(draw):
    """Random masks up to 60 x 60 at any density, some in 4-px blocks, so that
    components often touch at corners and tie in size."""
    shape = (draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.random(shape) < draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        bits = np.kron(bits, np.ones((4, 4), dtype=bool))[:shape[0], :shape[1]]
    return bits


@settings(max_examples=300, deadline=None)
@given(dark_masks())
def test_run_labels_equal_ndimage_label_and_the_pupil_its_oracle(bits):
    expect, _ = ndimage.label(bits, structure=np.ones((3, 3), dtype=bool))
    assert np.array_equal(run_labels(bits), expect)
    img = GrayImage(np.where(bits, 0.1, 0.9))
    assert pupil_outcome(locate_pupil, img) == pupil_outcome(pupil_oracle, img)


def test_run_labels_and_the_pupil_equal_their_oracles_on_rendered_eyes():
    for seed in range(1, 41):
        eye = synthgen.render_eye(seed)
        bits = eye.pixels < iris.PUPIL_THRESHOLD
        expect, _ = ndimage.label(bits, structure=np.ones((3, 3), dtype=bool))
        assert np.array_equal(run_labels(bits), expect), seed
        assert locate_pupil(eye) == pupil_oracle(eye), seed


def test_locate_pupil_breaks_a_size_tie_by_the_first_pixel_in_raster_order():
    img = np.full((64, 64), 0.8)
    img[40:49, 2:11] = 0.1  # leftmost, but its first pixel comes second
    img[5:14, 40:49] = 0.1
    cx, cy, r = locate_pupil(GrayImage(img))
    assert (cx, cy) == (44.0, 9.0)
    assert (cx, cy, r) == pupil_oracle(GrayImage(img))


def test_locate_pupil_searches_the_whole_image_when_the_first_run_fills_its_row():
    img = np.full((40, 40), 0.8)
    img[0] = 0.1  # no pixel beside the component's first run
    img[:12, 14:26] = 0.1
    assert locate_pupil(GrayImage(img)) == pupil_oracle(GrayImage(img))


def test_a_pupil_under_the_radius_floor_is_no_pupil_for_enroll_and_inspect(tmp_path, capsys):
    # a 5 x 5 blob passes the 16-px area floor, but its radius is 3 px
    img = np.full((128, 128), 0.6)
    img[60:65, 60:65] = 0.1
    eye = GrayImage(img)
    with pytest.raises(NoPupilFound, match="needs 4$"):
        locate_pupil(eye)
    with pytest.raises(PipelineFailure) as exc:
        registry.enroll(registry.load_db(tmp_path / "db"), "carol", [], [eye])
    assert exc.value.stage == "pupil-localization"
    path = tmp_path / "eye.pgm"
    path.write_bytes(encode_pgm(eye))
    assert cli.main(["inspect", "--iris", str(path), "--out", str(tmp_path / "dump")]) == 2
    assert "error: stage 'pupil-localization' failed: pupil radius 3 px" in capsys.readouterr().err


def test_locate_iris_boundary_annulus():
    img = ring_image([(None, 0.9), (60.0, 0.45), (30.0, 0.05)])
    cx, cy, pr = locate_pupil(img)
    assert abs(pr - 30.0) <= 1.0
    assert abs(locate_iris_boundary(img, cx, cy, pr) - 60.0) <= 1.0


def test_locate_iris_boundary_prefers_strongest_step():
    # Outer step (0.75 -> 0.9) is weaker than the inner one (0.40 -> 0.75).
    img = ring_image([(None, 0.9), (60.0, 0.75), (45.0, 0.40), (30.0, 0.05)])
    found = locate_iris_boundary(img, 128.0, 128.0, 30.0)
    # Independent oracle: recompute the perimeter-mean ladder and its argmax.
    radii = 34.0 + np.arange(int(127.0 - 34.0) + 1)
    means = np.array([perimeter_mean_oracle(img, 128.0, 128.0, r) for r in radii])
    expected = radii[int(np.abs(np.diff(means)).argmax()) + 1]
    assert found == pytest.approx(expected)
    assert abs(found - 45.0) <= 1.0


def test_locate_iris_boundary_flush_pupil():
    img = disk_image(100, 100, 50.0, 4.0, 40.0)
    with pytest.raises(BoundaryNotFound):
        locate_iris_boundary(img, 50.0, 4.0, 40.0)


def test_locate_geometry_on_rendered_eyes():
    # Iris radii end in .5 so the true edge sits halfway between the 1-px
    # boundary-search ladder points, keeping quantization error near 0.5 px.
    cases = [
        (1300, (128.0, 128.0), 28.0, 96.5),
        (1301, (120.0, 132.0), 24.0, 88.5),
        (1302, (134.0, 126.0), 32.0, 100.5),
        (1303, (128.0, 122.0), 26.0, 92.5),
        (1304, (124.0, 128.0), 30.0, 84.5),
    ]
    for seed, center, pupil_r, iris_r in cases:
        img = synthgen.render_eye(seed, center=center, pupil_r=pupil_r,
                                  iris_r=iris_r)
        cx, cy, pr = locate_pupil(img)
        ir = locate_iris_boundary(img, cx, cy, pr)
        assert abs(cx - center[0]) <= 1.0 and abs(cy - center[1]) <= 1.0
        assert abs(pr - pupil_r) <= 1.0
        assert abs(ir - iris_r) <= 1.0


# --- normalization ----------------------------------------------------------

def test_normalize_dimensions():
    strip = normalize(synthgen.render_eye(7), IrisGeometry(128, 128, 28, 96))
    assert strip.values.shape == (DEFAULT_RADIAL, DEFAULT_ANGULAR)
    assert strip.valid.all()


def test_normalize_radially_symmetric_rows_constant():
    # Constant annulus padded 2 px past both circles, so every sample's
    # bilinear support sits inside the constant zone.
    img = ring_image([(None, 0.9), (98.0, 0.45), (26.0, 0.05)])
    strip = normalize(img, IrisGeometry(128.0, 128.0, 28.0, 96.0))
    dev = np.abs(strip.values - strip.values.mean(axis=1, keepdims=True)).max()
    assert dev < 1e-6


def test_normalize_rotation_shifts_columns():
    k = 16
    geom = IrisGeometry(128.0, 128.0, 28.0, 96.0)
    base = normalize(synthgen.render_eye(7), geom)
    spun = normalize(
        synthgen.render_eye(7, rotation=2.0 * math.pi * k / DEFAULT_ANGULAR), geom)
    interior = slice(8, 56)
    diff = np.abs(spun.values[interior]
                  - np.roll(base.values, k, axis=1)[interior]).max()
    assert diff < 0.02


def test_normalize_rejects_out_of_bounds_geometry():
    with pytest.raises(ValueError):
        normalize(synthgen.render_eye(7), IrisGeometry(128.0, 128.0, 28.0, 140.0))


def test_strip_dimensions_divisible_by_32():
    with pytest.raises(BadDimensions):
        NormalizedStrip(np.zeros((60, 512)), np.ones((60, 512), bool))
    with pytest.raises(BadDimensions):
        NormalizedStrip(np.zeros((64, 520)), np.ones((64, 520), bool))


def test_strip_rejects_every_other_shape():
    # both divide by 32, and neither codes to the fixed 512/1536-bit layouts
    for shape in ((32, 256), (96, 512)):
        with pytest.raises(BadDimensions):
            NormalizedStrip(np.zeros(shape), np.ones(shape, bool))


def test_strip_validation():
    with pytest.raises(ValueError):
        NormalizedStrip(np.full((64, 512), 1.5), np.ones((64, 512), bool))
    with pytest.raises(ValueError):
        NormalizedStrip(np.zeros((64, 512)), np.ones((64, 256), bool))
    values = np.zeros((64, 512))
    values[3, 7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        NormalizedStrip(values, np.ones((64, 512), bool))


@pytest.mark.parametrize("fields, message", [
    ((128.0, math.inf, 28.0, 96.0), "center_y must be a finite number"),
    ((128.0, 128.0, "28", 96.0), "pupil_r must be a finite number"),
    ((128.0, 128.0, 3.5, 96.0), "pupil_r must be >= 4 pixels"),
    ((128.0, 128.0, 28.0, 28.0), "iris_r must exceed pupil_r"),
], ids=["not-finite", "not-a-number", "small-pupil", "iris-inside-pupil"])
def test_iris_geometry_refuses_bad_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        IrisGeometry(*fields)


# --- eyelid screening -------------------------------------------------------

def noise_strip(seed, block_cols=None, block_value=0.95):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.35, 0.45, (64, 512))
    if block_cols is not None:
        vals[32:, block_cols] = block_value
    return full_strip(vals)


def test_detect_eyelids_uniform_untouched():
    strip = noise_strip(3)
    out = detect_eyelids(strip)
    assert out.valid.all()
    assert np.array_equal(out.values, strip.values)


def test_detect_eyelids_flags_upper_sector_block():
    cols = np.arange(100, 143)  # inside the 86..170 upper sector
    out = detect_eyelids(noise_strip(4, block_cols=cols))
    flagged = ~out.valid
    assert flagged[32:, cols].all()
    assert not flagged[:32, :].any()
    untouched = np.setdiff1d(np.arange(512), cols)
    assert not flagged[:, untouched].any()


def test_detect_eyelids_ignores_nasal_block():
    out = detect_eyelids(noise_strip(5, block_cols=np.arange(0, 43)))
    assert out.valid.all()


def test_detect_eyelids_flags_lower_sector_block():
    cols = np.arange(380, 420)
    out = detect_eyelids(noise_strip(6, block_cols=cols))
    assert (~out.valid)[32:, cols].all()
    assert out.valid[:32, :].all()


def test_detect_eyelids_on_rendered_occlusion():
    img = synthgen.render_eye(511, occlusion=(math.radians(75), math.radians(105)))
    strip = detect_eyelids(normalize(img, IrisGeometry(128, 128, 28, 96)))
    flagged_cols = np.nonzero(~strip.valid[40])[0]
    assert flagged_cols.size > 20
    assert all(c in UPPER_COLS for c in flagged_cols)
    assert strip.valid[:32, :].all()


# --- haar scheme ------------------------------------------------------------

def test_haar_constant_strip_bits():
    code = haar_code(full_strip(np.full((64, 512), 0.37)))
    assert len(code) == 512
    assert not code.bits[:480].any()   # detail signs: ties quantize to 0
    assert code.bits[480:].all()       # approximation sums are positive
    assert code.mask.all()


def test_haar_pair_sum_difference_convention():
    rng = np.random.default_rng(11)
    v = rng.uniform(0, 1, (32, 32))
    coarse, details = haar_decompose(v)
    h, vd, d = details[0]
    # levels 2 and up invert back to the level-1 approximation
    approx = haar_reconstruct(coarse, details[1:])
    a, b, c, e = v[0, 0], v[0, 1], v[1, 0], v[1, 1]
    assert approx[0, 0] == pytest.approx(a + b + c + e)
    assert h[0, 0] == pytest.approx((a - b) + (c - e))
    assert vd[0, 0] == pytest.approx((a + b) - (c + e))
    assert d[0, 0] == pytest.approx((a - b) - (c - e))


def test_haar_decompose_shapes():
    approx, details = haar_decompose(np.zeros((64, 512)))
    assert approx.shape == (2, 16)
    assert [d[0].shape for d in details] == [
        (32, 256), (16, 128), (8, 64), (4, 32), (2, 16)]
    with pytest.raises(BadDimensions):
        haar_decompose(np.zeros((16, 512)))


def test_haar_roundtrip_random_strips():
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.uniform(0, 1, (64, 512))
        approx, details = haar_decompose(v)
        assert np.abs(haar_reconstruct(approx, details) - v).max() < 1e-9


def test_haar_code_scale_invariant():
    rng = np.random.default_rng(19)
    v = rng.uniform(0, 1, (64, 512))
    base = haar_code(full_strip(v))
    for a in (0.5, 0.25, 0.3, 0.9):
        scaled = haar_code(full_strip(v * a))
        assert np.array_equal(scaled.bits, base.bits)
        assert np.array_equal(scaled.mask, base.mask)


def test_haar_mask_support():
    rng = np.random.default_rng(23)
    valid = np.ones((64, 512), bool)
    valid[0, 0] = False
    code = haar_code(NormalizedStrip(rng.uniform(0, 1, (64, 512)), valid))
    # Cell (0, 0) sits in coefficient (0, 0) of every subband: the three
    # level-4 bands start at 0/128/256, level-5 at 384/416/448, approx at 480.
    dead = {0, 128, 256, 384, 416, 448, 480}
    assert set(np.nonzero(~code.mask)[0]) == dead


# --- mellin scheme ----------------------------------------------------------

def test_mellin_code_length_and_zero_strip():
    code = mellin_code(full_strip(np.zeros((64, 512))))
    assert len(code) == 1536
    assert not code.bits.any()
    assert code.mask.all()


def test_mellin_stride_shift_equivariance():
    rng = np.random.default_rng(31)
    v = rng.uniform(0.3, 0.7, (64, 512))
    base = mellin_code(full_strip(v))
    shifted = mellin_code(full_strip(np.roll(v, 8, axis=1)))
    rolled = np.roll(base.bits.reshape(24, 64), 1, axis=1).ravel()
    assert (shifted.bits == rolled).mean() >= 0.95


def test_mellin_scale_invariance():
    rng = np.random.default_rng(37)
    v = rng.uniform(0, 1, (64, 512))
    assert np.array_equal(mellin_code(full_strip(v)).bits,
                          mellin_code(full_strip(v * 0.5)).bits)


def test_mellin_mask_majority_invalid_rule():
    rng = np.random.default_rng(41)
    v = rng.uniform(0.3, 0.7, (64, 512))
    # 34 of 64 window columns invalid (53%) in the first radial window.
    valid = np.ones((64, 512), bool)
    valid[0:16, 0:34] = False
    code = mellin_code(NormalizedStrip(v, valid))
    mask = code.mask.reshape(3, 8, 64)
    assert not mask[:, 0, 0].any()       # anchor at column 0: > 50% invalid
    assert mask[:, 0, 32].all()          # anchor far away: untouched
    assert mask[:, 1:, :].all()          # other radial windows: untouched
    # Exactly 50% invalid keeps the bit valid (strictly-more-than rule).
    valid = np.ones((64, 512), bool)
    valid[0:16, 0:32] = False
    assert mellin_code(NormalizedStrip(v, valid)).mask.all()


def mellin_oracle_tops():
    """Each radial anchor's window top: anchors at even fractions of the strip
    height, windows clamped inside it."""
    r_count, rows = iris.MELLIN_RADIAL_ANCHORS, iris.MELLIN_WINDOW_ROWS
    centers = (np.arange(r_count) + 0.5) * DEFAULT_RADIAL / r_count
    return np.clip(np.round(centers - rows / 2).astype(int), 0, DEFAULT_RADIAL - rows)


def mellin_oracle_kernels():
    """The complex operators taper * exp(i * phase), one per (window top,
    setting), built one at a time."""
    rows, cols_n = iris.MELLIN_WINDOW_ROWS, iris.MELLIN_WINDOW_COLS
    taper = np.outer(np.hanning(rows), np.hanning(cols_n))
    cols = np.arange(cols_n, dtype=np.float64)
    kernels = {}
    for top in np.unique(mellin_oracle_tops()).tolist():
        row_pos = top + np.arange(rows, dtype=np.float64) + 1.0
        s = np.log(row_pos / row_pos[0]) / math.log(row_pos[-1] / row_pos[0])
        for idx, (p, q) in enumerate(iris.MELLIN_SETTINGS):
            phase = p * 2.0 * math.pi * cols[None, :] / cols_n + q * 2.0 * math.pi * s[:, None]
            kernels[(top, idx)] = taper * np.exp(1j * phase)
    return kernels


def mellin_oracle_responses(strip):
    """The per-anchor loop the array coder replaced: complex operators keyed by
    (window top, setting), windows stacked from slices.  Returns the complex
    responses and the windows' validity, each (setting, radial anchor,
    angular anchor)."""
    r_count, a_count = iris.MELLIN_RADIAL_ANCHORS, iris.MELLIN_ANGULAR_ANCHORS
    rows, cols_n = iris.MELLIN_WINDOW_ROWS, iris.MELLIN_WINDOW_COLS
    kernels = mellin_oracle_kernels()
    vals = np.concatenate([strip.values, strip.values[:, :cols_n]], axis=1)
    invalid = ~strip.valid
    inv = np.concatenate([invalid, invalid[:, :cols_n]], axis=1)
    resp = np.zeros((len(iris.MELLIN_SETTINGS), r_count, a_count), dtype=complex)
    ok = np.zeros(resp.shape, dtype=bool)
    starts = np.arange(a_count) * (DEFAULT_ANGULAR // a_count)
    for r_idx, top in enumerate(mellin_oracle_tops().tolist()):
        windows = np.stack([vals[top:top + rows, s:s + cols_n] for s in starts])
        bad_frac = np.stack([inv[top:top + rows, s:s + cols_n] for s in starts]).mean(axis=(1, 2))
        for s_idx in range(len(iris.MELLIN_SETTINGS)):
            resp[s_idx, r_idx] = np.einsum("wij,ij->w", windows, kernels[(top, s_idx)])
            ok[s_idx, r_idx] = bad_frac <= iris.MELLIN_MAX_INVALID
    return resp, ok


def mellin_oracle(strip):
    """A bit per response whose phase lies in (0, pi], bits ordered by
    setting, radial anchor and angular anchor."""
    resp, ok = mellin_oracle_responses(strip)
    return IrisCode((np.arctan2(resp.imag, resp.real) > 0.0).ravel(), ok.ravel(), SCHEME_MELLIN)


UPPER_LID = (math.radians(75), math.radians(105))
LOWER_LID = (math.radians(255), math.radians(285))


def test_mellin_code_matches_the_per_anchor_oracle():
    strips = [build_codes(synthgen.render_eye(seed, occlusion=occlusion))[1]
              for seed, occlusion in ((511, None), (519, None), (3, UPPER_LID), (8, LOWER_LID))]
    rng = np.random.default_rng(43)
    for _ in range(6):
        strips.append(NormalizedStrip(rng.uniform(0, 1, (64, 512)),
                                      rng.random((64, 512)) < rng.uniform(0.3, 1.0)))
    # Windows of the first radial anchor at columns 0 and 256: one exactly
    # 50% invalid (valid), one a column past it (masked).
    valid = np.ones((64, 512), bool)
    valid[0:16, 0:32] = False
    valid[0:16, 256:290] = False
    strips.append(NormalizedStrip(rng.uniform(0, 1, (64, 512)), valid))
    for strip in strips:
        assert encode_code(mellin_code(strip)) == encode_code(mellin_oracle(strip))
    masks = mellin_code(strips[-1]).mask.reshape(3, 8, 64)
    assert masks[:, 0, 0].all() and not masks[:, 0, 32].any()


def test_mellin_bank_is_fixed_and_read_only():
    bank = iris._MELLIN_KERNELS
    assert bank.shape == (8, 6, 16, 64) and bank.dtype == np.float64
    assert not bank.flags.writeable
    with pytest.raises(ValueError):
        bank[0, 0, 0, 0] = 0
    # the three settings' cosine parts, then their sine parts, per radial anchor
    kernels = mellin_oracle_kernels()
    oracle = np.array([[kernels[(top, idx)] for idx in range(len(iris.MELLIN_SETTINGS))]
                       for top in mellin_oracle_tops().tolist()])
    assert np.array_equal(bank[:, :3], oracle.real) and np.array_equal(bank[:, 3:], oracle.imag)


def test_mellin_sine_responses_keep_a_margin_round_off_cannot_cross():
    """A Mellin bit is 1 when arctan2(sine, cosine) > 0, so the sign of the
    sine response decides it unless that response is exactly zero.  Summing
    the same products in another order moves a response by about 1e-14, so a
    margin far above that leaves every valid bit where it is, on the pinned
    eyes with and without a lid and on door-style re-renders."""
    eyes = [synthgen.render_eye(seed, occlusion=lid)
            for seed in PINNED_CODE_DIGESTS for lid in (None, UPPER_LID, LOWER_LID)]
    eyes += [synthgen.render_eye(seed, rotation=math.radians(deg), noise=0.02,
                                 noise_seed=9000 + seed)
             for seed, deg in zip(SUBJECT_SEEDS, SUBJECT_ROTATIONS_DEG)]
    margins = []
    for eye in eyes:
        resp, ok = mellin_oracle_responses(build_codes(eye)[1])
        margins.append(np.abs(resp.imag[ok]).min())
    assert min(margins) >= 1e-9


def test_mellin_rejects_narrow_strip():
    with pytest.raises(BadDimensions):
        mellin_code(full_strip(np.zeros((32, 32))))


# --- hamming distance -------------------------------------------------------

def test_hamming_identity_zero():
    rng = np.random.default_rng(51)
    for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
        code = random_code(rng, scheme)
        assert hamming_distance(code, code) == 0.0


def test_hamming_complement_at_shift_zero(iris_max_shift):
    iris_max_shift(0)
    rng = np.random.default_rng(52)
    code = random_code(rng, SCHEME_HAAR)
    flipped = IrisCode(~code.bits, code.mask, SCHEME_HAAR)
    assert hamming_distance(code, flipped) == 1.0


def test_hamming_random_pairs_near_half(iris_max_shift):
    iris_max_shift(0)
    rng = np.random.default_rng(34)
    for _ in range(100):
        a = random_code(rng, SCHEME_HAAR)
        b = random_code(rng, SCHEME_HAAR)
        assert abs(hamming_distance(a, b) - 0.5) <= 0.07


def test_hamming_symmetric_at_shift_zero(iris_max_shift):
    iris_max_shift(0)
    rng = np.random.default_rng(53)
    for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
        for _ in range(10):
            a = random_code(rng, scheme)
            b = random_code(rng, scheme)
            masked_a = IrisCode(a.bits, rng.integers(0, 2, len(a)).astype(bool),
                                scheme)
            assert hamming_distance(masked_a, b) == hamming_distance(b, masked_a)


def test_hamming_recovers_row_rotations():
    rng = np.random.default_rng(54)
    for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
        code = random_code(rng, scheme)
        for shift in range(-8, 9):
            assert hamming_distance(code, roll_code_rows(code, shift)) == 0.0


def test_hamming_min_over_shifts_bounded_by_shift_zero():
    rng = np.random.default_rng(55)
    for _ in range(25):
        a = random_code(rng, SCHEME_MELLIN)
        b = random_code(rng, SCHEME_MELLIN)
        zero_shift = ((a.bits ^ b.bits).sum()) / len(a)
        assert hamming_distance(a, b) <= zero_shift + 1e-12


def test_hamming_masked_bits_never_matter():
    rng = np.random.default_rng(56)
    for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
        n = 512 if scheme == SCHEME_HAAR else 1536
        a = IrisCode(rng.integers(0, 2, n).astype(bool),
                     rng.integers(0, 2, n).astype(bool), scheme)
        b = IrisCode(rng.integers(0, 2, n).astype(bool),
                     rng.integers(0, 2, n).astype(bool), scheme)
        base = hamming_distance(a, b)
        for _ in range(500):
            side, other = (a, b) if rng.integers(2) else (b, a)
            dead = np.nonzero(~side.mask)[0]
            bits = side.bits.copy()
            bits[rng.choice(dead, size=min(25, dead.size), replace=False)] ^= True
            mutated = IrisCode(bits, side.mask, scheme)
            assert hamming_distance(mutated, other) == base
            assert hamming_distance(other, mutated) == base


def test_hamming_incomparable_raises():
    mask = np.zeros(512, bool)
    mask[:63] = True
    thin = IrisCode(np.zeros(512, bool), mask, SCHEME_HAAR)
    with pytest.raises(IncomparableCodes):
        hamming_distance(thin, thin)


def test_hamming_scheme_mismatch_raises():
    rng = np.random.default_rng(57)
    with pytest.raises(SchemeMismatch):
        hamming_distance(random_code(rng, SCHEME_HAAR),
                         random_code(rng, SCHEME_MELLIN))


def test_hamming_skips_shifts_below_quorum():
    # Half-width row masks leave 64 jointly valid bits only at shift 0; every
    # other shift must be excluded by the quorum rather than erroring out --
    # and must not contribute a distance (shift +1 would score ~0.484 here).
    mask = np.zeros(1536, bool)
    mask[0:32] = True    # anchor row 0, columns 0..31
    mask[64:96] = True   # anchor row 1, columns 0..31
    b_bits = np.zeros(1536, bool)
    b_bits[16:32] = True
    b_bits[80:96] = True
    a = IrisCode(np.zeros(1536, bool), mask, SCHEME_MELLIN)
    b = IrisCode(b_bits, mask, SCHEME_MELLIN)
    assert hamming_distance(a, b) == 0.5


# --- batched hamming distance -----------------------------------------------

def assert_matches_oracle(gallery, probe):
    batched = hamming_distances(gallery, probe)
    assert batched.dtype == np.float64 and batched.shape == (len(gallery),)
    for a, value in zip(gallery, batched.tolist()):
        expected = hamming_oracle(a, probe)
        assert value == expected
        assert hamming_distance(a, probe) == expected


def masked_random_code(rng, scheme, valid_fraction):
    n = 512 if scheme == SCHEME_HAAR else 1536
    return IrisCode(rng.integers(0, 2, n).astype(bool),
                    rng.random(n) < valid_fraction, scheme)


def test_hamming_distances_match_oracle_on_random_codes(iris_max_shift):
    rng = np.random.default_rng(71)
    for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
        gallery = [masked_random_code(rng, scheme, 0.8) for _ in range(30)]
        probe = masked_random_code(rng, scheme, 0.8)
        gallery.append(roll_code_rows(probe, 3))
        gallery.append(probe)
        for shift in (0, 1, 8):
            iris_max_shift(shift)
            assert_matches_oracle(gallery, probe)


def test_shift_tables_are_read_only_per_row_rolls():
    for scheme, bits in ((SCHEME_HAAR, 512), (SCHEME_MELLIN, 1536)):
        table = iris._SHIFT_TABLES[scheme]
        assert table.shape == (2 * DEFAULT_MAX_SHIFT + 1, bits)
        assert not table.flags.writeable
        shifts = range(-DEFAULT_MAX_SHIFT, DEFAULT_MAX_SHIFT + 1)
        for row, shift in zip(table, shifts, strict=True):
            assert np.array_equal(row, roll_rows(np.arange(bits), scheme, shift))


def test_hamming_distances_match_oracle_on_occluded_codes():
    # Sparse masks leave about 100 jointly valid bits per shift in both
    # schemes, so the valid count, the ratio's denominator, varies by shift.
    rng = np.random.default_rng(72)
    for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
        fraction = 0.45 if scheme == SCHEME_HAAR else 0.25
        gallery = [masked_random_code(rng, scheme, fraction) for _ in range(40)]
        assert_matches_oracle(gallery, masked_random_code(rng, scheme, fraction))


def test_hamming_distances_match_oracle_at_quorum_edge():
    mask = np.zeros(1536, bool)
    mask[0:32] = True
    mask[64:96] = True
    b_bits = np.zeros(1536, bool)
    b_bits[16:32] = True
    b_bits[80:96] = True
    a = IrisCode(np.zeros(1536, bool), mask, SCHEME_MELLIN)
    b = IrisCode(b_bits, mask, SCHEME_MELLIN)
    assert hamming_distances([a, b, a], b).tolist() == [0.5, 0.0, 0.5]
    assert hamming_distances([b, a], a).tolist() == [0.5, 0.0]
    assert_matches_oracle([a, b], b)


def test_hamming_distances_incomparable_gallery_code_raises():
    rng = np.random.default_rng(73)
    mask = np.zeros(512, bool)
    mask[:63] = True
    thin = IrisCode(np.zeros(512, bool), mask, SCHEME_HAAR)
    gallery = [random_code(rng, SCHEME_HAAR), thin, random_code(rng, SCHEME_HAAR)]
    with pytest.raises(IncomparableCodes):
        hamming_oracle(thin, gallery[0])
    with pytest.raises(IncomparableCodes):
        hamming_distance(thin, gallery[0])
    with pytest.raises(IncomparableCodes):
        hamming_distances(gallery, gallery[0])


def test_hamming_distances_scheme_mismatch_and_empty_gallery():
    rng = np.random.default_rng(74)
    haar = random_code(rng, SCHEME_HAAR)
    mellin = random_code(rng, SCHEME_MELLIN)
    with pytest.raises(SchemeMismatch):
        hamming_distances([haar, mellin], haar)
    assert hamming_distances([], haar).shape == (0,)


# --- serialization ----------------------------------------------------------

def test_code_roundtrip_both_schemes():
    rng = np.random.default_rng(61)
    for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
        n = 512 if scheme == SCHEME_HAAR else 1536
        code = IrisCode(rng.integers(0, 2, n).astype(bool),
                        rng.integers(0, 2, n).astype(bool), scheme)
        blob = encode_code(code)
        assert len(blob) == 9 + 2 * (n // 8)
        back = decode_code(blob)
        assert back.scheme == scheme
        assert np.array_equal(back.bits, code.bits)
        assert np.array_equal(back.mask, code.mask)


def test_codes_compare_and_hash_by_scheme_and_planes():
    rng = np.random.default_rng(67)
    bits, mask = rng.random(512) < 0.5, rng.random(512) < 0.9
    code = IrisCode(bits, mask, SCHEME_HAAR)
    same = IrisCode(bits.copy(), mask.copy(), SCHEME_HAAR)
    assert code == same and hash(code) == hash(same)
    assert decode_code(encode_code(code)) == code
    assert hash(decode_code(encode_code(code))) == hash(code)
    assert code != IrisCode(~bits, mask, SCHEME_HAAR)
    assert code != IrisCode(bits, ~mask, SCHEME_HAAR)
    triple = np.tile(bits, 3)
    assert IrisCode(triple, np.tile(mask, 3), SCHEME_MELLIN) != code
    assert code != (bits, mask, SCHEME_HAAR)
    assert len({code, same}) == 1


def test_code_bit_packing_is_lsb_first():
    bits = np.zeros(512, bool)
    bits[0] = True
    bits[15] = True
    blob = encode_code(IrisCode(bits, np.ones(512, bool), SCHEME_HAAR))
    payload = blob[9:]
    assert payload[0] == 0x01
    assert payload[1] == 0x80
    assert all(b == 0xFF for b in payload[64:128])  # full mask packs to ones


def test_code_words_hold_bit_i_at_bit_i_mod_64_of_word_i_div_64():
    for scheme, n in ((SCHEME_HAAR, 512), (SCHEME_MELLIN, 1536)):
        for i in range(n):
            one = np.arange(n) == i
            code = IrisCode(one, ~one, scheme)
            expect = np.zeros((2, n // 64), np.uint64)
            expect[0, i // 64] = 1 << (i % 64)
            expect[1] = ~expect[0]
            assert code.words.dtype == np.dtype("<u8") and not code.words.flags.writeable
            assert np.array_equal(code.words, expect)


def irc1_oracle(bits, mask, scheme):
    """IRC1 as it was first written: the header, then each plane packed
    bit-order little by np.packbits."""
    head = b"IRC1" + struct.pack("<BI", {SCHEME_HAAR: 0, SCHEME_MELLIN: 1}[scheme], bits.size)
    return (head + np.packbits(bits, bitorder="little").tobytes()
            + np.packbits(mask, bitorder="little").tobytes())


def test_encode_code_equals_the_packbits_oracle_for_both_schemes():
    rng = np.random.default_rng(64)
    for scheme, n in ((SCHEME_HAAR, 512), (SCHEME_MELLIN, 1536)):
        for _ in range(5):
            bits, mask = rng.random(n) < 0.5, rng.random(n) < 0.8
            blob = encode_code(IrisCode(bits, mask, scheme))
            assert blob == irc1_oracle(bits, mask, scheme)
            assert encode_code(decode_code(blob)) == blob


def test_a_code_holds_only_its_words_and_scheme(monkeypatch):
    assert [f.name for f in dataclasses.fields(IrisCode)] == ["words", "scheme"]
    code = random_code(np.random.default_rng(65), SCHEME_MELLIN)
    blob = encode_code(code)

    def unpack(*args, **kwargs):
        raise AssertionError("decode_code unpacked a plane")
    monkeypatch.setattr(np, "unpackbits", unpack)
    back = decode_code(blob)
    monkeypatch.undo()
    for c in (code, back):
        assert set(vars(c)) == {"words", "scheme"}
        assert c.words.shape == (2, 24) and not c.words.flags.writeable
    assert back == code


def test_a_code_decoded_from_a_bytearray_keeps_its_words_when_the_buffer_changes():
    code = random_code(np.random.default_rng(66), SCHEME_HAAR)
    buf = bytearray(encode_code(code))
    back = decode_code(buf)
    buf[9:] = bytes(len(buf) - 9)
    assert back == code and back.words.flags.aligned
    assert decode_code(buf) != code


class WordsOnlyCode(IrisCode):
    """A code whose unpacked planes cannot be read."""

    @property
    def bits(self):
        raise AssertionError("bits read")

    @property
    def mask(self):
        raise AssertionError("mask read")


def test_hamming_distances_read_the_gallery_only_through_its_words():
    rng = np.random.default_rng(68)
    for scheme in (SCHEME_HAAR, SCHEME_MELLIN):
        gallery = [masked_random_code(rng, scheme, 0.8) for _ in range(12)]
        probe = masked_random_code(rng, scheme, 0.8)
        sealed = []
        for a in gallery:
            sealed.append(object.__new__(WordsOnlyCode))
            sealed[-1].__dict__.update(vars(a))
        with pytest.raises(AssertionError):
            sealed[0].bits
        assert hamming_distances(sealed, probe).tolist() == [
            hamming_oracle(a, probe) for a in gallery]


def test_decode_code_errors():
    rng = np.random.default_rng(62)
    blob = encode_code(random_code(rng, SCHEME_HAAR))
    with pytest.raises(BadMagic):
        decode_code(b"XXXX" + blob[4:])
    with pytest.raises(TruncatedData):
        decode_code(blob[:6])
    with pytest.raises(TruncatedData):
        decode_code(blob[:-1])
    with pytest.raises(TruncatedData):
        decode_code(blob[:4] + bytes([9]) + blob[5:])
    # a header whose bit count is not its scheme's fixed length
    with pytest.raises(TruncatedData, match="^haar code must have 512 bits, got 8$"):
        decode_code(blob[:5] + struct.pack("<I", 8) + blob[9:])
    with pytest.raises(TruncatedData, match="^mellin code must have 1536 bits, got 512$"):
        decode_code(blob[:4] + bytes([1]) + blob[5:])


def test_iris_code_validation():
    with pytest.raises(ValueError):
        IrisCode(np.zeros(100, bool), np.zeros(100, bool), SCHEME_HAAR)
    with pytest.raises(ValueError):
        IrisCode(np.zeros(512, bool), np.zeros(511, bool), SCHEME_HAAR)
    with pytest.raises(ValueError):
        IrisCode(np.zeros(512, bool), np.zeros(512, bool), "gabor")
    assert len(random_code(np.random.default_rng(63), SCHEME_MELLIN)) == 1536


# --- end-to-end -------------------------------------------------------------

def test_build_codes_pipeline():
    geom, strip, haar, mellin = build_codes(synthgen.render_eye(511))
    assert abs(geom.center_x - 128.0) <= 1.0 and abs(geom.center_y - 128.0) <= 1.0
    assert abs(geom.pupil_r - 28.0) <= 1.0 and abs(geom.iris_r - 96.0) <= 1.0
    assert strip.values.shape == (64, 512)
    assert len(haar) == 512 and len(mellin) == 1536
    assert haar.scheme == SCHEME_HAAR and mellin.scheme == SCHEME_MELLIN


# sha256 of the IRC1 bytes of (haar, mellin) codes of render_eye(seed).  A
# change of host, CPU dispatch or numpy/scipy release that moves a code bit
# fails here; a deliberate change of either coder updates them and says so.
PINNED_CODE_DIGESTS = {
    1: ("97fb28ae4a3df9911910cc3f1f256460bcd7d395f2a8c93d08ba71236ca20b42",
        "ac821dd963b60c8f2808c6e98e78ce107e0fccc8c4fc86ed575d1391e14cf011"),
    2: ("358f771d3c710f2a343655fa5c0c51230403d2152c1063df70bbde5b0ed5ff7c",
        "e36cbf3e9fb7cd9c7e4d4a821f3538658264a98ffda4103f8c23743545aba613"),
    3: ("14ba5c3baa0902cca78c2cbe734699cd87a70dbee8af004f06eb25cc19749c33",
        "7e04f662876f3bfbf447a63621d7e16abd23c5d3ceae29d2e6c443ef78845926"),
    4: ("9fb609a941b0ef84cfdd911b7aff83e8a6c49aeccf34557e10401b0aa6d61b31",
        "da1a4abda7e5a382c818d467aca1459e7ac4b7517421531056b623e5e39e4124"),
    5: ("38604d195d26615652a627f0f7632927316ce32dc9f85cda56e37a882bac5ab9",
        "0a460dfb21937b357adde5b8e6cee1a75fb901b5ea5676ffbc7382bb8a75ea3d"),
    6: ("fbf1408230f1b72878f6d27f08b35664516e8e1b2a12f569309dc1a6edb03af7",
        "649c4cd8dcd7e8568bf6506fed8540f990aa5e0dabb5933b7b445c1f06ed8688"),
    7: ("a7021344ced6560d6595777c83caafe6973af9109e4c6cefbfb96e87ab2b61ba",
        "4a9f6a1a245ffca20c67387c20f6825bbe7e8cc6af41cbcfe8065ed4753da450"),
    8: ("3108d8955436f5a2ca2df413a5163f80b5347fae78f0eeda765c0792192c33d3",
        "d9ccbf37f1ea09425683a01b9bfba3f27759cef380c0117781ceb4af51be9546"),
}


def test_code_bytes_match_pinned_digests():
    for seed, digests in PINNED_CODE_DIGESTS.items():
        _, _, haar, mellin = build_codes(synthgen.render_eye(seed))
        assert tuple(hashlib.sha256(encode_code(c)).hexdigest() for c in (haar, mellin)) == digests, seed


def test_genuine_and_impostor_separation():
    _, _, haar_a, mellin_a = build_codes(synthgen.render_eye(511))
    probe = synthgen.render_eye(511, rotation=math.radians(0.9),
                                noise=0.02, noise_seed=9511)
    _, _, haar_g, mellin_g = build_codes(probe)
    assert hamming_distance(haar_a, haar_g) < 0.25
    assert hamming_distance(mellin_a, mellin_g) < 0.25

    _, _, haar_b, mellin_b = build_codes(synthgen.render_eye(519))
    assert hamming_distance(haar_a, haar_b) > 0.4
    assert hamming_distance(mellin_a, mellin_b) > 0.4
