import numpy as np
import pytest

from helpers import image_to_csv, write_dataset
from scanobs.dataset import HEADER_SIZE, DatasetWriter, read_dataset


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.normal(size=(7, 4, 6)).astype(np.float32)
    labels = rng.integers(0, 10, size=7)
    path = tmp_path / "data.bin"
    write_dataset(path, images, labels)
    loaded, got_labels, meta = read_dataset(path)
    np.testing.assert_array_equal(loaded, images)
    np.testing.assert_array_equal(got_labels, labels)
    assert meta["count"] == 7
    assert meta["width"] == 6 and meta["height"] == 4


def test_streaming_writer_counts(tmp_path):
    path = tmp_path / "stream.bin"
    with DatasetWriter(path, 3, 2, 9) as out:
        for i in range(5):
            out.append(np.full((2, 3), float(i), dtype=np.float32), i % 3)
    images, labels, meta = read_dataset(path)
    assert meta["count"] == 5 and meta["n_locations"] == 9
    assert list(labels) == [0, 1, 2, 0, 1]
    assert images[3, 0, 0] == 3.0
    assert path.stat().st_size == HEADER_SIZE + 5 * (1 + 4 * 6)


def test_writer_rejects_wrong_shape(tmp_path):
    with DatasetWriter(tmp_path / "bad.bin", 3, 2, 9) as out:
        with pytest.raises(ValueError):
            out.append(np.zeros((3, 3)), 0)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTDATA!" + b"\0" * 100)
    with pytest.raises(ValueError):
        read_dataset(path)


def test_read_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.bin"
    write_dataset(path, np.zeros((3, 2, 2), dtype=np.float32), [0, 1, 2])
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError):
        read_dataset(path)


def test_read_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"SCANOBS1\x01")
    with pytest.raises(ValueError, match="truncated header"):
        read_dataset(path)


def test_read_rejects_label_above_j(tmp_path):
    path = tmp_path / "labels.bin"
    write_dataset(path, np.zeros((4, 2, 3), dtype=np.float32), [0, 1, 2, 2])
    assert read_dataset(path)[2]["n_locations"] == 2
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 2 * (1 + 4 * 6)] = 3  # record 2's label, above J = 2
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        read_dataset(path)
    assert str(exc.value) == f"{path}: record 2 has label 3, above J = 2"


def test_image_csv_export(tmp_path):
    img = np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0
    path = tmp_path / "img.csv"
    image_to_csv(path, img)
    back = np.loadtxt(path, delimiter=",")
    np.testing.assert_allclose(back, img, rtol=1e-6)
