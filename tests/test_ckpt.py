"""Checkpoint container: round trips, CRC rejection, pairing enforcement."""

import numpy as np
import pytest

from rare_lens import ckpt
from rare_lens.autodiff import Tensor
from rare_lens.errors import ChecksumError, PairingError

RNG = np.random.default_rng(77)


def f32(arr):
    return arr.astype(np.float32).astype(np.float64)


def weights(n=3):
    return {f"w{i}": Tensor(f32(RNG.normal(size=(2 + i, 3)))) for i in range(n)}


def test_vlm_checkpoint_round_trip(tmp_path):
    path = tmp_path / "vlm.ckpt"
    w = weights()
    header = {"layers": 4, "heads": 4, "dim": 64, "vocab": 40}
    footer = ckpt.save_vlm(path, header, w)
    loaded, blobs = ckpt.load_vlm(path)
    assert loaded == header
    assert footer == ckpt.footer_crc(path) == int.from_bytes(path.read_bytes()[-4:], "little")
    for name, t in w.items():
        assert np.array_equal(blobs[name], t.array)


def test_write_read_write_is_byte_identical(tmp_path):
    w = weights()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save_vlm(p1, {"layers": 1, "heads": 2, "dim": 8, "vocab": 9}, w)
    header, blobs = ckpt.load_vlm(p1)
    ckpt.save_vlm(p2, header, {k: Tensor(v) for k, v in blobs.items()})
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_byte_rejected(tmp_path):
    path = tmp_path / "vlm.ckpt"
    ckpt.save_vlm(path, {"vocab": 9}, weights())
    raw = bytearray(path.read_bytes())
    raw[30] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        ckpt.load_vlm(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ChecksumError):
        ckpt.load_vlm(path)


def test_classes_checkpoint_round_trip_with_kappa_and_names(tmp_path):
    path = tmp_path / "classes.ckpt"
    w = weights(2)
    names = ["ant", "bee", "cat", "dog", "eel"]
    ckpt.save_classes(path, {"kappa": 0.95, "class_names": names}, w)
    header, blobs = ckpt.load_classes(path)
    assert header["kappa"] == 0.95  # JSON floats round-trip exactly
    assert header["class_names"] == names
    for name, t in w.items():
        assert np.array_equal(blobs[name], t.array)


def test_adapter_checkpoint_pairing(tmp_path):
    path = tmp_path / "adapter.ckpt"
    ckpt.save_adapter(path, {"heads": 4, "table_crc": 1234}, weights(1))
    header, _ = ckpt.load_adapter(path, expect_table_crc=1234)
    assert header == {"heads": 4, "table_crc": 1234}
    with pytest.raises(PairingError):
        ckpt.load_adapter(path, expect_table_crc=999)


def test_weights_crc_is_order_independent_and_value_sensitive():
    w = weights()
    crc1 = ckpt.weights_crc(w)
    crc2 = ckpt.weights_crc(dict(reversed(list(w.items()))))
    assert crc1 == crc2
    w["w0"] = Tensor(w["w0"].array + 1.0)
    assert ckpt.weights_crc(w) != crc1


def test_round_f32_idempotent():
    t = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    once = ckpt.round_f32({"t": t})
    twice = ckpt.round_f32(once)
    assert np.array_equal(once["t"].array, twice["t"].array)
    assert once["t"].requires_grad


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "vlm.ckpt"
    ckpt.save_vlm(path, {"vocab": 9}, weights())
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(ChecksumError):
        ckpt.load_vlm(path)
