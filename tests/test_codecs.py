"""Property tests for the three byte formats, binary PGM, fingerprint
templates (FPT1) and iris codes (IRC1), and for the fusion config file.

Each codec round-trips every field, and any damage to valid bytes (changed
bytes, a cut tail, or both) either still decodes or raises a BiolockError,
never another exception; a damaged config file may also raise ValueError.
FPT1 and IRC1 values must fill their bytes exactly: trailing bytes raise
TruncatedData."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from biolock.errors import BiolockError, TruncatedData
from biolock.fingerprint import (
    KIND_BIFURCATION,
    KIND_ENDING,
    FingerprintTemplate,
    Minutia,
    decode_template,
    encode_template,
)
from biolock.fusion import CLASSIFIERS, FusionConfig, load_config, save_config
from biolock.imaging import GrayImage, decode_pgm, encode_pgm
from biolock.iris import SCHEME_HAAR, SCHEME_MELLIN, IrisCode, decode_code, encode_code

# Template fields are stored as float32, so values are drawn as float32; the
# largest float32 below 2*pi is the top of the direction range.
_FLOAT32 = dict(width=32, allow_nan=False, allow_infinity=False)
_THETA_MAX = float(np.nextafter(np.float32(2.0 * math.pi), np.float32(0.0)))
_CODE_BITS = {SCHEME_HAAR: 512, SCHEME_MELLIN: 1536}


def images():
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
    return arrays(np.uint8, shapes).map(lambda raw: GrayImage(raw / 255.0))


@st.composite
def templates(draw):
    minutia = st.builds(
        Minutia,
        st.floats(-1e4, 1e4, **_FLOAT32), st.floats(-1e4, 1e4, **_FLOAT32),
        st.floats(0.0, _THETA_MAX, **_FLOAT32),
        st.sampled_from([KIND_ENDING, KIND_BIFURCATION]))
    return FingerprintTemplate(tuple(draw(st.lists(minutia, max_size=24))),
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
    alpha, beta, a, b, c, d = (draw(weight) for _ in range(6))
    assume(alpha + beta > 0.0 and a + b > 0.0)
    threshold = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return FusionConfig(alpha, beta, a, b, c, d, draw(threshold),
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
