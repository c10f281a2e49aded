"""Binary readers under arbitrary bytes: only the package's errors escape.

Each property writes a valid magic or header followed by arbitrary bytes and
reads it back. A reader may return a value or raise ``SpecsalError`` (the CLI
exits 2) or ``OSError``; anything else would be a traceback.
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsal.checkpoint import CHECKPOINT_MAGIC, load_checkpoint
from specsal.cube import _HEADER, CUBE_MAGIC, read_cube
from specsal.exceptions import CubeDimensionError, MaskFormatError, MetricInputError, SpecsalError
from specsal.imageio import read_float_map, read_pgm, write_float_map
from specsal.masks import read_mask
from specsal.metrics import evaluate_pair

tails = st.binary(max_size=96)
small = st.integers(min_value=0, max_value=4)
examples = settings(max_examples=60, deadline=None, database=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input.bin"


def _read_or_refuse(read, path, payload: bytes):
    path.write_bytes(payload)
    try:
        return read(path)
    except (SpecsalError, OSError):
        return None


def _cube_prefixes():
    header = st.builds(
        lambda h, w, c, start, step: _HEADER.pack(CUBE_MAGIC, h, w, c, start, step),
        small, small, small, st.floats(), st.floats(),
    )
    return st.just(CUBE_MAGIC) | header


def _pgm_prefixes():
    header = st.builds(lambda w, h: f"P5\n{w} {h}\n255\n".encode(), small, small)
    return st.just(b"P5") | st.just(b"P5 ") | header


def _float_map_prefixes():
    return st.just(b"") | st.builds(lambda h, w: struct.pack("<II", h, w), small, small)


def _checkpoint_prefixes():
    count = st.builds(lambda n: CHECKPOINT_MAGIC + struct.pack("<I", n), small)
    # one record whose name length is set, so the tail supplies the name bytes
    named = st.builds(lambda n: CHECKPOINT_MAGIC + struct.pack("<IH", 1, n), small)
    # one record named "w", cut after its rank byte
    record = st.builds(
        lambda rank: CHECKPOINT_MAGIC + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<B", rank),
        small,
    )
    # one record named "w" whose shape puts a zero beside large dimensions: it
    # holds no values, yet numpy cannot make the view once they overflow
    large = st.lists(st.integers(min_value=2**30, max_value=2**32 - 1), min_size=1, max_size=3)
    zero_beside_large = st.builds(
        lambda dims, at: CHECKPOINT_MAGIC + struct.pack("<IH", 1, 1) + b"w"
        + struct.pack(f"<B{len(dims) + 1}I", len(dims) + 1, *dims[:at], 0, *dims[at:]),
        large, st.integers(min_value=0, max_value=3),
    )
    return st.just(CHECKPOINT_MAGIC) | count | named | record | zero_beside_large


@pytest.mark.parametrize(
    "read, prefixes",
    [
        (read_cube, _cube_prefixes()),
        (read_pgm, _pgm_prefixes()),
        (read_mask, _pgm_prefixes()),
        (read_float_map, _float_map_prefixes()),
        (load_checkpoint, _checkpoint_prefixes()),
    ],
    ids=["cube", "pgm", "mask", "float-map", "checkpoint"],
)
def test_readers_raise_only_package_errors(read, prefixes, scratch):
    @examples
    @given(prefix=prefixes, tail=tails)
    def check(prefix, tail):
        _read_or_refuse(read, scratch, prefix + tail)

    check()


@examples
@given(h=small, w=small, extra=st.integers(min_value=-3, max_value=3))
def test_float_map_must_match_its_header_exactly(h, w, extra, scratch):
    count = max(0, h * w + extra)
    body = np.arange(count, dtype="<f4").tobytes()
    values = _read_or_refuse(read_float_map, scratch, struct.pack("<II", h, w) + body)
    if count == h * w:
        np.testing.assert_array_equal(values, np.arange(h * w).reshape(h, w))
    else:
        assert values is None


def test_float_map_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "map.f32"
    write_float_map(np.zeros((2, 2)), path)
    path.write_bytes(path.read_bytes() + np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(MaskFormatError, match=r"claims 2x2 \(16 bytes\), payload has 24"):
        read_float_map(path)


@pytest.mark.parametrize("read", [read_pgm, read_mask], ids=["pgm", "mask"])
def test_pgm_rejects_trailing_bytes(read, tmp_path):
    path = tmp_path / "mask.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([255, 0, 0, 255]))
    np.testing.assert_array_equal(read_pgm(path), [[255, 0], [0, 255]])
    path.write_bytes(path.read_bytes() + bytes([255, 255]))
    with pytest.raises(MaskFormatError, match="payload has 6 bytes, header claims 4"):
        read(path)


SIGNALING_NAN = struct.pack("<I", 0x7F800001)  # float32 with the quiet bit clear


def test_signaling_nan_float_map_is_refused_without_a_warning(tmp_path):
    # widening a signaling NaN sets the invalid flag, which numpy would warn about
    path = tmp_path / "map.f32"
    path.write_bytes(struct.pack("<II", 2, 2) + SIGNALING_NAN + bytes(12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = read_float_map(path)
        with pytest.raises(MetricInputError, match=r"^prediction contains non-finite values$"):
            evaluate_pair(values, np.eye(2))


def test_signaling_nan_cube_is_refused_without_a_warning(tmp_path):
    path = tmp_path / "cube.hsv2"
    path.write_bytes(_HEADER.pack(CUBE_MAGIC, 1, 1, 1, 400.0, 10.0) + SIGNALING_NAN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CubeDimensionError) as caught:
            read_cube(path)
    assert str(caught.value) == f"{path}: cube data contains non-finite values"
