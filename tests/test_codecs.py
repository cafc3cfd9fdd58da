"""Property tests for the three byte formats, binary PGM, fingerprint
templates (FPT1) and iris codes (IRC1), and for the fusion config file.

Each codec round-trips every field, and any damage to valid bytes (changed
bytes, a cut tail, or both) either still decodes or raises a BiolockError,
never another exception; a damaged config file may also raise ValueError.
FPT1 and IRC1 values must fill their bytes exactly: trailing bytes raise
TruncatedData.  The array decoder of FPT1 and its encoder are checked against
the per-minutia struct loops they replaced, and the batched decoders of FPT1
and IRC1 against the one-blob decoders they replaced, all kept here as
oracles."""
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from biolock.errors import BadMagic, BiolockError, TruncatedData
from biolock.fingerprint import (
    KIND_BIFURCATION,
    KIND_ENDING,
    MAX_MINUTIAE,
    TEMPLATE_MAGIC,
    FingerprintTemplate,
    Minutia,
    _KIND_CODE,
    _minutiae_rows,
    _template,
    decode_template,
    decode_templates,
    encode_template,
)
from biolock.fusion import CLASSIFIERS, FusionConfig, load_config, save_config
from biolock.imaging import GrayImage, _freeze, decode_pgm, encode_pgm
from biolock.iris import (
    CODE_MAGIC,
    SCHEME_HAAR,
    SCHEME_MELLIN,
    IrisCode,
    decode_code,
    decode_codes,
    encode_code,
)
from test_fingerprint import KINDS, as_minutiae

# Template fields are stored as float32, so values are drawn as float32; the
# largest float32 below 2*pi is the top of the direction range.
_FLOAT32 = dict(width=32, allow_nan=False, allow_infinity=False)
_THETA_MAX = float(np.nextafter(np.float32(2.0 * math.pi), np.float32(0.0)))
_CODE_BITS = {SCHEME_HAAR: 512, SCHEME_MELLIN: 1536}


def images():
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
    return arrays(np.uint8, shapes).map(lambda raw: GrayImage(raw / 255.0))


MINUTIAE = st.lists(st.builds(
    Minutia,
    st.floats(-1e4, 1e4, **_FLOAT32), st.floats(-1e4, 1e4, **_FLOAT32),
    st.floats(0.0, _THETA_MAX, **_FLOAT32),
    st.sampled_from([KIND_ENDING, KIND_BIFURCATION])), max_size=24)


@st.composite
def templates(draw):
    return FingerprintTemplate(tuple(draw(MINUTIAE)),
                               draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)))


@st.composite
def codes(draw):
    scheme = draw(st.sampled_from(sorted(_CODE_BITS)))
    n = _CODE_BITS[scheme]
    return IrisCode(draw(arrays(bool, n)), draw(arrays(bool, n)), scheme)


@settings(max_examples=100, deadline=None)
@given(img=images())
def test_pgm_round_trips_every_pixel(img):
    blob = encode_pgm(img)
    back = decode_pgm(blob)
    assert np.array_equal(back.pixels, img.pixels)
    assert encode_pgm(back) == blob


@settings(max_examples=100, deadline=None)
@given(template=templates())
def test_template_round_trips_every_field(template):
    blob = encode_template(template)
    back = decode_template(blob)
    assert back == template
    assert encode_template(back) == blob


@settings(max_examples=100, deadline=None)
@given(code=codes())
def test_code_round_trips_every_bit(code):
    blob = encode_code(code)
    back = decode_code(blob)
    assert back.scheme == code.scheme
    assert np.array_equal(back.bits, code.bits)
    assert np.array_equal(back.mask, code.mask)
    assert encode_code(back) == blob


def test_decoded_codes_are_read_only_and_constructed_codes_copy_their_input():
    rng = np.random.default_rng(11)
    bits, mask = rng.integers(0, 2, (2, _CODE_BITS[SCHEME_HAAR])).astype(bool)
    code = IrisCode(bits, mask, SCHEME_HAAR)
    assert bits.flags.writeable and mask.flags.writeable
    assert not np.shares_memory(code.bits, bits) and not np.shares_memory(code.mask, mask)
    # a caller may pass another code's read-only mask, as perfbench/gen.py does
    sharing = IrisCode(bits, code.mask, SCHEME_HAAR)
    assert not np.shares_memory(sharing.mask, code.mask)
    back = decode_code(encode_code(code))
    for plane, source in ((back.bits, bits), (back.mask, mask)):
        assert plane.dtype == bool and not plane.flags.writeable
        assert np.array_equal(plane, source)
    assert not np.shares_memory(back.bits, back.mask)


CODECS = {
    "pgm": (images(), encode_pgm, decode_pgm),
    "fpt1": (templates(), encode_template, decode_template),
    "irc1": (codes(), encode_code, decode_code),
}

_RNG = np.random.default_rng(5)
SAMPLES = {
    "pgm": [encode_pgm(GrayImage(_RNG.integers(0, 256, (10, 12)) / 255.0))],
    "fpt1": [encode_template(FingerprintTemplate(
        (Minutia(10.5, 20.25, 1.0, KIND_ENDING), Minutia(200.0, 3.0, 6.0, KIND_BIFURCATION)),
        256, 240))],
    "irc1": [encode_code(IrisCode(_RNG.integers(0, 2, n).astype(bool),
                                  _RNG.integers(0, 2, n).astype(bool), scheme))
             for scheme, n in sorted(_CODE_BITS.items())],
}


def decodes_or_raises_a_biolock_error(decode, blob):
    try:
        decode(blob)
    except BiolockError:
        pass


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_bytes_decode_or_raise_a_biolock_error(name, data):
    values, encode, decode = CODECS[name]
    blob = bytearray(encode(data.draw(values)))
    # Half the edits land in the first 16 bytes, where the headers are.
    index = st.integers(0, min(15, len(blob) - 1)) | st.integers(0, len(blob) - 1)
    for i, byte in data.draw(st.lists(st.tuples(index, st.integers(0, 255)), max_size=4)):
        blob[i] = byte
    decodes_or_raises_a_biolock_error(decode, bytes(blob[:data.draw(st.integers(0, len(blob)))]))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_every_header_byte_value_and_every_cut_decodes_or_raises_a_biolock_error(name):
    # Every value of each of the first 26 bytes (a header and its first
    # fields), then every truncation, of fixed valid samples.
    decode = CODECS[name][2]
    for blob in SAMPLES[name]:
        for i in range(26):
            for byte in range(256):
                decodes_or_raises_a_biolock_error(decode, blob[:i] + bytes([byte]) + blob[i + 1:])
        for cut in range(len(blob)):
            decodes_or_raises_a_biolock_error(decode, blob[:cut])


@pytest.mark.parametrize("name", ["fpt1", "irc1"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trailing_bytes_raise_truncated_data(name, data):
    values, encode, decode = CODECS[name]
    with pytest.raises(TruncatedData):
        decode(encode(data.draw(values)) + data.draw(st.binary(min_size=1)))


@st.composite
def configs(draw):
    weight = st.floats(min_value=-0.0, allow_nan=False, allow_infinity=False)
    alpha, beta, a, b = (draw(weight) for _ in range(4))
    assume(alpha + beta > 0.0 and a + b > 0.0)
    threshold = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return FusionConfig(alpha, beta, a, b, draw(threshold),
                        {name: draw(threshold) for name in CLASSIFIERS}, draw(st.booleans()))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "fusion.cfg"


@settings(max_examples=100, deadline=None)
@given(cfg=configs())
def test_config_round_trips_every_setting(config_path, cfg):
    save_config(cfg, config_path)
    back = load_config(config_path)
    assert back == cfg
    assert repr(back) == repr(cfg)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_config_loads_or_raises_a_value_or_biolock_error(config_path, data):
    save_config(data.draw(configs()), config_path)
    blob = bytearray(config_path.read_bytes())
    index = st.integers(0, len(blob) - 1)
    for i, byte in data.draw(st.lists(st.tuples(index, st.integers(0, 255)), max_size=4)):
        blob[i] = byte
    config_path.write_bytes(bytes(blob[:data.draw(st.integers(0, len(blob)))]))
    try:
        load_config(config_path)
    except (ValueError, BiolockError):
        pass


# ---------------------------------------------------------------------------
# FPT1 array codec against the struct loops it replaced

def decode_template_oracle(data: bytes) -> tuple:
    """The per-minutia struct decoder: (minutiae, width, height)."""
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
    minutiae = []
    for i in range(count):
        x, y, theta, code = struct.unpack_from("<fffB", data, 10 + 16 * i)
        if code >= len(KINDS):
            raise TruncatedData(f"unknown minutia kind code {code}")
        if not math.isfinite(x + y + theta):
            raise TruncatedData(f"minutia {i} has a non-finite field")
        theta = min(max(float(theta), 0.0), math.nextafter(2.0 * math.pi, 0.0))
        minutiae.append(Minutia(float(x), float(y), theta, KINDS[code]))
    return tuple(minutiae), width, height


def encode_template_oracle(template: FingerprintTemplate) -> bytes:
    parts = [TEMPLATE_MAGIC,
             struct.pack("<HHH", len(template), template.image_width, template.image_height)]
    for m in as_minutiae(template.rows):
        parts.append(struct.pack("<fffB3x", m.x, m.y, m.theta, KINDS.index(m.kind)))
    return b"".join(parts)


def test_encoding_a_field_past_the_float32_range_fails_as_struct_does():
    template = FingerprintTemplate((Minutia(1e39, 0.0, 0.0, KIND_ENDING),), 8, 8)
    for encode in (encode_template_oracle, encode_template):
        with pytest.raises(ArithmeticError):  # OverflowError, FloatingPointError
            encode(template)


def minutiae_rows_oracle(templates) -> np.ndarray:
    rows = [(m.x, m.y, m.theta, KINDS.index(m.kind))
            for t in templates for m in as_minutiae(t.rows)]
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


# Any finite float32 field, -0.0 and values outside [0, 2*pi) included, and
# any pad bytes: the decoders ignore the pad.
_ANY_FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def template_blobs(draw, max_count=24):
    count = draw(st.integers(0, max_count))
    fields = [struct.pack("<fffB", draw(_ANY_FLOAT32), draw(_ANY_FLOAT32), draw(_ANY_FLOAT32),
                          draw(st.integers(0, 1))) + draw(st.binary(min_size=3, max_size=3))
              for _ in range(count)]
    head = struct.pack("<HHH", count, draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)))
    return TEMPLATE_MAGIC + head + b"".join(fields)


def decoded_or_error(decode, blob):
    try:
        return decode(blob)
    except BiolockError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(blob=template_blobs())
def test_array_decode_equals_the_struct_oracle(blob):
    minutiae, width, height = decode_template_oracle(blob)
    expected = FingerprintTemplate(minutiae, width, height)
    got = decode_template(blob)
    assert as_minutiae(got.rows) == list(minutiae)
    assert np.array_equal(got.rows, expected.rows)
    assert got == expected and hash(got) == hash(expected)
    assert encode_template(got) == encode_template_oracle(got) == encode_template_oracle(expected)
    assert not got.rows.flags.writeable


def test_array_decode_equals_the_oracle_at_the_cap():
    rng = np.random.default_rng(3)
    fields = np.column_stack([rng.uniform(-10.0, 300.0, (MAX_MINUTIAE, 3)).astype("<f4"),
                              rng.integers(0, 2, MAX_MINUTIAE).astype("<f4")])
    fields.view(np.uint8)[:, 12:] = 0
    fields.view(np.uint8)[:, 12] = rng.integers(0, 2, MAX_MINUTIAE)
    blob = TEMPLATE_MAGIC + struct.pack("<HHH", MAX_MINUTIAE, 512, 512) + fields.tobytes()
    minutiae, width, height = decode_template_oracle(blob)
    assert decode_template(blob) == FingerprintTemplate(minutiae, width, height)
    assert as_minutiae(decode_template(blob).rows) == list(minutiae)


def _damage(blob: bytearray, how: str, draw) -> bytes:
    count = struct.unpack_from("<H", blob, 4)[0]
    record = 10 + 16 * draw(st.integers(0, count - 1))
    field = record + 4 * draw(st.integers(0, 2))
    if how == "kind":
        blob[record + 12] = draw(st.integers(2, 255))
    elif how == "non_finite":
        struct.pack_into("<f", blob, field, draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    elif how == "signalling_nan":
        struct.pack_into("<I", blob, field, 0x7F800001)
    elif how == "truncated":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif how == "over_cap":
        struct.pack_into("<H", blob, 4, MAX_MINUTIAE + 1)
        blob += bytes(16 * (MAX_MINUTIAE + 1 - count))
    return bytes(blob)


@pytest.mark.parametrize("how", ["kind", "non_finite", "signalling_nan", "truncated",
                                 "over_cap"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_damaged_blobs_raise_the_oracles_error_class(how, data):
    blob = data.draw(template_blobs(max_count=8).filter(lambda b: len(b) > 10))
    damaged = _damage(bytearray(blob), how, data.draw)
    expected = decoded_or_error(lambda b: decode_template_oracle(b) and None, damaged)
    assert expected is not None
    assert decoded_or_error(decode_template, damaged) is expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edited_blobs_decode_or_fail_as_the_oracle_does(data):
    blob = bytearray(data.draw(template_blobs(max_count=8)))
    for i, byte in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                st.integers(0, 255)), max_size=4)):
        blob[i] = byte
    blob = bytes(blob[:data.draw(st.integers(0, len(blob)))])
    expected = decoded_or_error(decode_template_oracle, blob)
    got = decoded_or_error(decode_template, blob)
    if isinstance(expected, tuple):
        assert got == FingerprintTemplate(*expected) and as_minutiae(got.rows) == list(expected[0])
    else:
        assert got is expected


@settings(max_examples=100, deadline=None)
@given(gallery=st.lists(templates(), max_size=5))
def test_minutiae_rows_concatenate_as_the_oracle_does(gallery):
    assert np.array_equal(_minutiae_rows(gallery), minutiae_rows_oracle(gallery))
    assert _minutiae_rows(gallery).shape == (sum(map(len, gallery)), 4)


def test_minutiae_rows_reject_a_non_finite_position_as_the_oracle_does():
    # no template reaches either with one: building it fails
    with pytest.raises(ValueError, match="must be finite"):
        FingerprintTemplate((Minutia(math.inf, 1.0, 0.5, KIND_ENDING),), 8, 8)


# ---------------------------------------------------------------------------
# FingerprintTemplate: array storage, equality, hash


@settings(max_examples=100, deadline=None)
@given(minutiae=MINUTIAE)
def test_template_minutiae_round_trip_through_the_rows(minutiae):
    template = FingerprintTemplate(minutiae, 64, 48)
    assert as_minutiae(template.rows) == minutiae
    assert template.rows.dtype == np.float64 and template.rows.shape == (len(minutiae), 4)
    assert np.array_equal(template.rows, [(m.x, m.y, m.theta, KINDS.index(m.kind))
                                          for m in minutiae] or np.empty((0, 4)))
    again = FingerprintTemplate(as_minutiae(template.rows), 64, 48)
    assert again == template and hash(again) == hash(template) and len(again) == len(minutiae)


def test_template_equality_and_hash_cover_dimensions_and_values():
    ms = (Minutia(1.0, 2.0, 0.0, KIND_ENDING), Minutia(3.0, 4.0, 1.0, KIND_BIFURCATION))
    t = FingerprintTemplate(ms, 32, 16)
    assert t == FingerprintTemplate(list(ms), 32, 16)
    assert hash(t) == hash(FingerprintTemplate(ms, 32, 16))
    assert len({t, FingerprintTemplate(ms, 32, 16)}) == 1
    assert t != FingerprintTemplate(ms, 16, 32)
    assert t != FingerprintTemplate(ms[:1], 32, 16)
    assert t != FingerprintTemplate((ms[0], dataclasses.replace(ms[1], kind=KIND_ENDING)), 32, 16)
    assert t != FingerprintTemplate((ms[0], dataclasses.replace(ms[1], x=3.5)), 32, 16)
    assert t != ms and t != "template"
    # -0.0 equals 0.0, so the two templates must hash alike
    negative_zero = FingerprintTemplate((dataclasses.replace(ms[0], theta=-0.0), ms[1]), 32, 16)
    assert negative_zero == t and hash(negative_zero) == hash(t)
    assert FingerprintTemplate((), 0, 0) == FingerprintTemplate([], 0, 0)


def test_template_is_immutable_and_owns_its_rows():
    ms = [Minutia(1.0, 2.0, 0.5, KIND_ENDING)]
    t = FingerprintTemplate(ms, 8, 8)
    ms.append(Minutia(5.0, 5.0, 0.5, KIND_ENDING))
    assert len(t) == 1
    with pytest.raises(ValueError):
        t.rows[0, 0] = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.image_width = 9
    with pytest.raises(ValueError, match="at most"):
        FingerprintTemplate(ms[:1] * (MAX_MINUTIAE + 1), 8, 8)


def test_template_sizes_are_the_integers_fpt1_stores():
    ms = (Minutia(1.0, 2.0, 0.5, KIND_ENDING),)
    for width, height in ((0, 0), (0xFFFF, 1), (np.int64(300), np.uint16(200))):
        t = FingerprintTemplate(ms, width, height)
        assert (type(t.image_width), type(t.image_height)) == (int, int)
        assert decode_template(encode_template(t)) == t
    for bad in (0x10000, 70000, -1, 1.0, 8.5, True, "8", None):
        for sizes in ((bad, 8), (8, bad)):
            with pytest.raises(ValueError, match="0..65535"):
                FingerprintTemplate(ms, *sizes)
    # extraction builds templates unchecked, at the size of the print it read
    for sizes in ((70000, 16), (16, 0x10000)):
        with pytest.raises(ValueError, match=r"0\.\.65535, got \(%d, %d\)" % sizes):
            encode_template(_template(np.empty((0, 4)), *sizes))


# ---------------------------------------------------------------------------
# Batched FPT1 and IRC1 decoders against the one-blob decoders they replaced

def decode_template_array_oracle(data: bytes) -> FingerprintTemplate:
    """The one-blob array decoder."""
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
    if kinds.max(initial=0) >= len(_KIND_CODE):
        raise TruncatedData(f"unknown minutia kind code {kinds.max()}")
    if not np.isfinite(records[:, :3]).all():
        raise TruncatedData("a minutia has a non-finite field")
    rows = np.empty((count, 4))
    rows[:, :3], rows[:, 3] = records[:, :3], kinds
    theta = rows[:, 2]
    np.copyto(theta, 0.0, where=theta < 0.0)
    np.minimum(theta, math.nextafter(2.0 * math.pi, 0.0), out=theta)
    return _template(rows, width, height)


_SCHEMES = {0: SCHEME_HAAR, 1: SCHEME_MELLIN}


def decode_code_oracle(data: bytes) -> IrisCode:
    """The one-blob IRC1 decoder."""
    if data[:4] != CODE_MAGIC:
        raise BadMagic(f"expected {CODE_MAGIC!r} header, got {data[:4]!r}")
    if len(data) < 9:
        raise TruncatedData("iris code header truncated")
    scheme_code, length = struct.unpack_from("<BI", data, 4)
    if scheme_code not in _SCHEMES:
        raise TruncatedData(f"unknown iris code scheme byte {scheme_code}")
    scheme = _SCHEMES[scheme_code]
    if length != _CODE_BITS[scheme]:
        raise TruncatedData(f"{scheme} code must have {_CODE_BITS[scheme]} bits, got {length}")
    count = length // 64
    if len(data) != 9 + 16 * count:
        raise TruncatedData(f"{scheme} code must be {9 + 16 * count} bytes, got {len(data)}")
    words = _freeze(np.frombuffer(data, "<u8", 2 * count, offset=9).reshape(2, count).copy())
    code = object.__new__(IrisCode)
    code.__dict__.update(words=words, scheme=scheme)
    return code


def decoded_in_a_loop(decode, blobs, names=None):
    """``[decode(b) for b in blobs]``, or the first error as (class, message),
    its message prefixed with ``names[i]: `` when names are given."""
    out = []
    for i, blob in enumerate(blobs):
        try:
            out.append(decode(blob))
        except BiolockError as exc:
            return type(exc), str(exc) if names is None else f"{names[i]}: {exc}"
    return out


def decoded_in_a_batch(decode, blobs, names=None):
    try:
        return decode(blobs, names)
    except BiolockError as exc:
        return type(exc), str(exc)


_TWO_PI_32 = float(np.float32(2.0 * math.pi))  # the float32 just above 2*pi
_THETA_EDGES = st.sampled_from([-0.0, -1e-7, -3.0, _TWO_PI_32, 2.0 * math.pi, 7.0, 1e30])


@st.composite
def edge_template_blobs(draw):
    """A template whose every theta is -0.0, below 0, or at or above 2*pi."""
    count = draw(st.integers(1, 6))
    fields = b"".join(struct.pack("<fffB3x", draw(_ANY_FLOAT32), draw(_ANY_FLOAT32),
                                  draw(_THETA_EDGES), draw(st.integers(0, 1)))
                      for _ in range(count))
    return TEMPLATE_MAGIC + struct.pack("<HHH", count, 64, 64) + fields


_EMPTY_TEMPLATE = TEMPLATE_MAGIC + struct.pack("<HHH", 0, 7, 9)
TEMPLATE_BATCH_BLOBS = st.one_of(template_blobs(max_count=8), edge_template_blobs(),
                                 st.just(_EMPTY_TEMPLATE))


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(TEMPLATE_BATCH_BLOBS, max_size=40))
@example(batch=[])
@example(batch=[_EMPTY_TEMPLATE, SAMPLES["fpt1"][0], _EMPTY_TEMPLATE,
                TEMPLATE_MAGIC + struct.pack("<HHH", 3, 64, 64) + b"".join(
                    struct.pack("<fffB3x", 1.0, 2.0, theta, 1)
                    for theta in (-0.0, -2.5, 2.0 * math.pi))])
def test_batched_template_decoder_equals_the_one_blob_oracle(batch):
    expected = [decode_template_array_oracle(blob) for blob in batch]
    got = decode_templates(batch)
    assert got == expected
    # by bytes too: == takes -0.0 for 0.0, and the clamp keeps -0.0
    assert [t.rows.tobytes() for t in got] == [t.rows.tobytes() for t in expected]
    assert [(t.image_width, t.image_height) for t in got] == [
        (t.image_width, t.image_height) for t in expected]
    for template in got:
        assert template.rows.dtype == np.float64 and not template.rows.flags.writeable


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(codes().map(encode_code), max_size=40))
@example(batch=[])
@example(batch=SAMPLES["irc1"] + SAMPLES["irc1"][::-1])
def test_batched_code_decoder_equals_the_one_blob_oracle(batch):
    expected = [decode_code_oracle(blob) for blob in batch]
    got = decode_codes(batch)
    assert got == expected
    assert [c.scheme for c in got] == [c.scheme for c in expected]
    for code in got:
        assert code.words.dtype == np.dtype("<u8") and not code.words.flags.writeable
        assert code.words.shape == (2, _CODE_BITS[code.scheme] // 64)
        assert not code.bits.flags.writeable and not code.mask.flags.writeable
        assert not np.shares_memory(code.bits, code.mask)
        assert not any(np.shares_memory(code.words, np.frombuffer(blob, np.uint8))
                       for blob in batch)


# Header and record fields to overwrite: (offset, struct format, value).
_FIELD_DAMAGE = {
    "fpt1": [(4, "<H", MAX_MINUTIAE + 1), (4, "<H", 1), (22, "<B", 2), (22, "<B", 255),
             (10, "<f", math.nan), (14, "<f", -math.inf), (18, "<I", 0x7F800001)],
    "irc1": [(4, "<B", 2), (4, "<B", 1), (4, "<B", 0), (5, "<I", 8), (5, "<I", 512)],
}


def _damage_any(fmt: str, blob: bytes, draw) -> bytes:
    """A cut tail, up to three changed bytes, or one field overwritten."""
    blob = bytearray(blob)
    how = draw(st.sampled_from(["cut", "bytes", "field"]))
    if how == "cut" or not blob:
        return bytes(blob[:draw(st.integers(0, len(blob)))])
    if how == "bytes":
        for _ in range(draw(st.integers(1, 3))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(blob)
    offset, fmt, value = draw(st.sampled_from(_FIELD_DAMAGE[fmt]))
    if len(blob) >= offset + struct.calcsize(fmt):
        struct.pack_into(fmt, blob, offset, value)
    return bytes(blob)


@pytest.mark.parametrize("fmt", ["fpt1", "irc1"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_damaged_batch_raises_the_first_error_a_loop_would(fmt, data):
    blobs, oracle, decode = {
        "fpt1": (TEMPLATE_BATCH_BLOBS, decode_template_array_oracle, decode_templates),
        "irc1": (codes().map(encode_code), decode_code_oracle, decode_codes)}[fmt]
    batch = data.draw(st.lists(blobs, min_size=1, max_size=12))
    for i in data.draw(st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=3)):
        batch[i] = _damage_any(fmt, batch[i], data.draw)
    names = [f"/db/file_{i}" for i in range(len(batch))]
    for given_names in (None, names):
        expected = decoded_in_a_loop(oracle, batch, given_names)
        assert decoded_in_a_batch(decode, batch, given_names) == expected


def test_a_blob_with_several_bad_records_is_named_as_the_loop_names_it():
    # the kind check comes first and names the blob's largest kind code, even
    # after a non-finite record and a smaller bad kind
    rows = [(math.nan, 1.0, 0.5, 0), (1.0, 2.0, 0.5, 3), (1.0, 2.0, 0.5, 7), (1.0, 2.0, 0.5, 1)]
    blob = TEMPLATE_MAGIC + struct.pack("<HHH", len(rows), 8, 8) + b"".join(
        struct.pack("<fffB3x", *row) for row in rows)
    batch, names = [SAMPLES["fpt1"][0], blob, blob[:-1]], ["a.fpt", "b.fpt", "c.fpt"]
    expected = (TruncatedData, "b.fpt: unknown minutia kind code 7")
    assert decoded_in_a_loop(decode_template_array_oracle, batch, names) == expected
    assert decoded_in_a_batch(decode_templates, batch, names) == expected
