"""Round-trip and corruption tests for the TNSR and netpbm formats."""

import struct

import numpy as np
import pytest

from oodseg.tensorio import (
    IGNORE,
    BadMagicError,
    DimOverflowError,
    MalformedHeaderError,
    NetpbmError,
    ShortPayloadError,
    TensorFormatError,
    TruncatedPayloadError,
    UnsupportedDtypeError,
    UnsupportedMaxvalError,
    read_pgm,
    read_ppm,
    read_tensor,
    tensor_bytes,
    tensor_from_bytes,
    write_pgm,
    write_ppm,
    write_tensor,
)


def test_ignore_value():
    assert IGNORE == 255


class TestTensorRoundTrip:
    def test_f64_exact(self):
        rng = np.random.default_rng(0)
        for shape in [(3,), (2, 5), (4, 3, 2), (2, 2, 2, 2)]:
            a = rng.standard_normal(shape)
            b = tensor_from_bytes(tensor_bytes(a))
            assert b.dtype == np.float64
            assert b.shape == a.shape
            np.testing.assert_array_equal(a, b)

    def test_file_round_trip(self, tmp_path):
        a = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        write_tensor(tmp_path / "a.tnsr", a)
        np.testing.assert_array_equal(read_tensor(tmp_path / "a.tnsr"), a)

    def test_header_layout(self):
        blob = tensor_bytes(np.zeros((2, 3)))
        assert blob[:4] == b"TNSR"
        version, code, rank = struct.unpack_from("<IBB", blob, 4)
        assert (version, code, rank) == (1, 1, 2)
        assert struct.unpack_from("<2Q", blob, 10) == (2, 3)
        assert len(blob) == 10 + 16 + 6 * 8

    def test_integer_input_converted(self):
        b = tensor_from_bytes(tensor_bytes(np.array([1, 2, 3])))
        assert b.dtype == np.float64


class TestTensorErrors:
    def test_bad_rank(self):
        with pytest.raises(TensorFormatError):
            tensor_bytes(np.float64(3.0))  # rank 0
        with pytest.raises(TensorFormatError):
            tensor_bytes(np.zeros((1, 1, 1, 1, 1)))  # rank 5
        for rank in (0, 5):
            with pytest.raises(TensorFormatError, match="rank must be"):
                tensor_from_bytes(b"TNSR" + struct.pack("<IBB", 1, 1, rank) + b"\x00" * 8 * rank)

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            tensor_from_bytes(b"NOPE" + b"\x00" * 32)

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayloadError):
            tensor_from_bytes(b"TNSR\x01\x00")

    def test_truncated_dims(self):
        blob = b"TNSR" + struct.pack("<IBB", 1, 1, 3) + b"\x00" * 8
        with pytest.raises(TruncatedPayloadError):
            tensor_from_bytes(blob)

    def test_truncated_payload(self):
        blob = tensor_bytes(np.zeros(8))
        with pytest.raises(TruncatedPayloadError):
            tensor_from_bytes(blob[:-1])

    def test_bytes_past_the_payload(self):
        blob = tensor_bytes(np.zeros(8))
        for extra in (b"\x00", b"\x00" * 4, tensor_bytes(np.zeros(1))):
            with pytest.raises(TensorFormatError, match="past the 64-byte payload"):
                tensor_from_bytes(blob + extra)

    def test_unknown_dtype_code(self):
        for code in (0, 7):  # 0 was float32, which TNSR no longer stores
            blob = bytearray(tensor_bytes(np.zeros(2)))
            blob[8] = code
            with pytest.raises(UnsupportedDtypeError):
                tensor_from_bytes(bytes(blob))

    def test_unknown_version(self):
        blob = bytearray(tensor_bytes(np.zeros(2)))
        blob[4] = 9
        with pytest.raises(TensorFormatError):
            tensor_from_bytes(bytes(blob))

    def test_zero_dim_rejected(self):
        blob = b"TNSR" + struct.pack("<IBB", 1, 1, 2) + struct.pack("<2Q", 0, 4)
        with pytest.raises(TensorFormatError):
            tensor_from_bytes(blob)
        with pytest.raises(TensorFormatError, match="dims must be positive"):
            tensor_bytes(np.zeros((2, 0)))

    def test_element_count_overflow(self):
        # 2^32 * 2^32 * 2 overflows an unsigned 64-bit element count
        big = 2**32
        blob = b"TNSR" + struct.pack("<IBB", 1, 1, 3) + struct.pack("<3Q", big, big, 2)
        with pytest.raises(DimOverflowError):
            tensor_from_bytes(blob)

    def test_max_u64_count_is_not_overflow_but_truncated(self):
        # element count exactly 2^64 - 1 is representable; payload is absent
        blob = b"TNSR" + struct.pack("<IBB", 1, 1, 1) + struct.pack("<Q", 2**64 - 1)
        with pytest.raises(TruncatedPayloadError):
            tensor_from_bytes(blob)


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        write_ppm(tmp_path / "x.ppm", img)
        np.testing.assert_array_equal(read_ppm(tmp_path / "x.ppm"), img)

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
        write_pgm(tmp_path / "x.pgm", img)
        np.testing.assert_array_equal(read_pgm(tmp_path / "x.pgm"), img)

    def test_write_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.float64))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 1), dtype=np.uint8))

    def test_comments_and_whitespace_in_header(self, tmp_path):
        payload = bytes(range(6))
        blob = b"P5 # a comment\n# another\n 3\t2 # trailing\n255\n" + payload
        (tmp_path / "c.pgm").write_bytes(blob)
        img = read_pgm(tmp_path / "c.pgm")
        assert img.shape == (2, 3)
        assert img.tobytes() == payload

    def test_exactly_one_separator_byte(self, tmp_path):
        # payload starting with a whitespace byte must survive: the parser
        # consumes exactly one separator after the maxval token
        payload = b"\n" + bytes(range(5))
        (tmp_path / "s.pgm").write_bytes(b"P5\n3 2\n255\n" + payload)
        img = read_pgm(tmp_path / "s.pgm")
        assert img.reshape(-1)[0] == ord("\n")

    def test_bad_magic(self, tmp_path):
        (tmp_path / "b.pgm").write_bytes(b"P4\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(MalformedHeaderError):
            read_pgm(tmp_path / "b.pgm")

    def test_ppm_magic_on_pgm_reader(self, tmp_path):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        write_ppm(tmp_path / "x.ppm", img)
        with pytest.raises(MalformedHeaderError):
            read_pgm(tmp_path / "x.ppm")

    def test_maxval_rejected(self, tmp_path):
        (tmp_path / "m.pgm").write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(UnsupportedMaxvalError):
            read_pgm(tmp_path / "m.pgm")

    def test_short_payload(self, tmp_path):
        (tmp_path / "p.pgm").write_bytes(b"P5\n3 3\n255\n" + b"\x00" * 8)
        with pytest.raises(ShortPayloadError):
            read_pgm(tmp_path / "p.pgm")

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 4], ids=["1_byte", "4_bytes"])
    @pytest.mark.parametrize(
        "write, read, shape", [(write_ppm, read_ppm, (2, 3, 3)), (write_pgm, read_pgm, (2, 3))], ids=["P6", "P5"]
    )
    def test_bytes_past_the_payload(self, tmp_path, write, read, shape, extra):
        path = tmp_path / "x.pnm"
        write(path, np.zeros(shape, dtype=np.uint8))
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(NetpbmError, match=f"{len(extra)} bytes past the {np.prod(shape)}-byte payload"):
            read(path)

    def test_nonnumeric_header(self, tmp_path):
        (tmp_path / "n.pgm").write_bytes(b"P5\nab 2\n255\n" + b"\x00" * 4)
        with pytest.raises(MalformedHeaderError):
            read_pgm(tmp_path / "n.pgm")

    def test_header_ends_early(self, tmp_path):
        (tmp_path / "e.pgm").write_bytes(b"P5\n3 3")
        with pytest.raises(MalformedHeaderError):
            read_pgm(tmp_path / "e.pgm")
        for header in (b"P5\n3 3 255", b"P5\n3 3 255#"):  # no separator byte after the maxval
            (tmp_path / "e.pgm").write_bytes(header)
            with pytest.raises(MalformedHeaderError, match="missing separator"):
                read_pgm(tmp_path / "e.pgm")

    def test_bad_dimensions(self, tmp_path):
        (tmp_path / "d.pgm").write_bytes(b"P5\n0 2\n255\n")
        with pytest.raises(MalformedHeaderError):
            read_pgm(tmp_path / "d.pgm")
