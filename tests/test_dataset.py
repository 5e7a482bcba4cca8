import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import image_to_csv, traced_peak, write_dataset
from scanobs import dataset
from scanobs.dataset import (
    HEADER_SIZE,
    READ_ROWS,
    DatasetWriter,
    read_dataset,
)


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


# one read and a few, each around a read edge
@pytest.mark.parametrize("n", [READ_ROWS - 1, READ_ROWS, READ_ROWS + 1,
                               4 * READ_ROWS - 1, 4 * READ_ROWS,
                               4 * READ_ROWS + 1, 8 * READ_ROWS + 3])
def test_round_trip_across_chunks(tmp_path, n):
    rng = np.random.default_rng(n)
    images = rng.normal(size=(n, 3, 5)).astype(np.float32)
    labels = rng.integers(0, 10, size=n)
    path = tmp_path / "data.bin"
    write_dataset(path, images, labels)
    loaded, got_labels, meta = read_dataset(path)
    assert loaded.dtype == np.float32 and got_labels.dtype == np.uint8
    assert np.array_equal(loaded, images)
    assert np.array_equal(got_labels, labels)
    assert meta["count"] == n


def test_read_holds_the_images_once(tmp_path):
    # the returned arrays plus one chunk of records, not the file's bytes
    # and a second copy of the images
    n = 2000
    path = tmp_path / "big.bin"
    write_dataset(path, np.zeros((n, 64, 64), dtype=np.float32),
                  np.arange(n) % 10)
    arrays = n * 64 * 64 * 4 + n
    chunk = READ_ROWS * (1 + 64 * 64 * 4)
    assert traced_peak(read_dataset, path) <= arrays + chunk + 64 * 1024


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


@pytest.mark.parametrize("count", [None, 7])
def test_stack_append_writes_the_per_image_records(tmp_path, count):
    # float64 images are rounded to float32 either way
    rng = np.random.default_rng(3)
    images = rng.normal(size=(7, 2, 3))
    labels = np.array([0, 9, 3, 3, 1, 0, 2])
    with DatasetWriter(tmp_path / "one.bin", 3, 2, 9) as out:
        for img, lab in zip(images, labels.tolist()):
            out.append(img, lab)
    with DatasetWriter(tmp_path / "stack.bin", 3, 2, 9, count) as out:
        out.append(images[:4], labels[:4])
        out.append(images[4:], labels[4:])
    data = (tmp_path / "one.bin").read_bytes()
    assert (tmp_path / "stack.bin").read_bytes() == data
    if count is not None:
        assert out.sha256.hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("written", [0, 2, 4])
def test_writer_rejects_another_record_count(tmp_path, written):
    path = tmp_path / "short.bin"
    out = DatasetWriter(path, 3, 2, 9, 3)
    out.append(np.zeros((written, 2, 3)), np.zeros(written, dtype=int))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                       f"{written} records written, but its header counts 3$"):
        out.close()


def test_writer_leaves_an_error_in_flight_alone(tmp_path):
    with pytest.raises(KeyError):
        with DatasetWriter(tmp_path / "cut.bin", 3, 2, 9, 3) as out:
            out.append(np.zeros((2, 3)), 1)
            raise KeyError("not the count")


def test_writer_rejects_wrong_shape(tmp_path):
    with DatasetWriter(tmp_path / "bad.bin", 3, 2, 9) as out:
        with pytest.raises(ValueError):
            out.append(np.zeros((3, 3)), 0)


@pytest.mark.parametrize("label", [-1, 4, 7])
def test_writer_rejects_label_outside_0_to_j(tmp_path, label):
    path = tmp_path / "bad.bin"
    with DatasetWriter(path, 3, 2, 3) as out:
        out.append(np.zeros((2, 3)), 3)
        with pytest.raises(ValueError,
                           match=f"bad.bin: label {label} outside 0..J, "
                                 f"J = 3$"):
            out.append(np.zeros((2, 3)), label)
    _, labels, _ = read_dataset(path)
    assert list(labels) == [3]


@pytest.mark.parametrize("label", [1.5, True, [0.0, 1.0]])
def test_writer_rejects_labels_that_are_not_ints(tmp_path, label):
    path = tmp_path / "bad.bin"
    images = np.zeros(np.shape(label) + (2, 3))
    with DatasetWriter(path, 3, 2, 3) as out:
        with pytest.raises(ValueError, match="bad.bin: labels must be ints, "
                                             "not (float64|bool)$"):
            out.append(images, label)
    assert read_dataset(path)[2]["count"] == 0


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTDATA!" + b"\0" * 100)
    with pytest.raises(ValueError):
        read_dataset(path)


def test_read_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.bin"
    write_dataset(path, np.zeros((3, 2, 2), dtype=np.float32), [0, 1, 2])
    raw = path.read_bytes()
    # short, one byte too long, and the header with one byte of a record
    for edit in (raw[:-5], raw + b"\0", raw[:HEADER_SIZE + 1]):
        path.write_bytes(edit)
        with pytest.raises(ValueError) as exc:
            read_dataset(path)
        assert str(exc.value) == f"{path}: truncated file"


def test_read_checks_the_length_before_allocating(tmp_path):
    # a header that claims 2**40 records of 64x64 fails on the file's size
    # instead of asking for 72 TB
    path = tmp_path / "huge.bin"
    write_dataset(path, np.zeros((3, 64, 64), dtype=np.float32), [0, 1, 2])
    raw = bytearray(path.read_bytes())
    raw[12:20] = (2 ** 40).to_bytes(8, "little")  # the u64 image count
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="truncated file$"):
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


def test_read_names_the_first_bad_label_past_the_first_chunk(tmp_path):
    n = READ_ROWS + 50
    path = tmp_path / "labels.bin"
    write_dataset(path, np.zeros((n, 2, 2), dtype=np.float32),
                  np.arange(n) % 3)
    raw = bytearray(path.read_bytes())
    for i in (READ_ROWS + 7, READ_ROWS + 9):
        raw[HEADER_SIZE + i * (1 + 4 * 4)] = 5
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        read_dataset(path)
    assert str(exc.value) == (f"{path}: record {READ_ROWS + 7} has "
                              f"label 5, above J = 2")


@pytest.mark.parametrize("start, stop", [
    (0, 0), (3, 3), (0, 7), (5, 4 * READ_ROWS + 9), (4 * READ_ROWS - 1, None),
    (4 * READ_ROWS + 9, 4 * READ_ROWS + 10)])
def test_read_a_record_range(tmp_path, start, stop):
    n = 4 * READ_ROWS + 10
    rng = np.random.default_rng(start)
    images = rng.normal(size=(n, 3, 2)).astype(np.float32)
    labels = rng.integers(0, 10, size=n)
    path = tmp_path / "data.bin"
    write_dataset(path, images, labels)
    loaded, got_labels, meta = read_dataset(path, start, stop)
    assert np.array_equal(loaded, images[start:stop])
    assert np.array_equal(got_labels, labels[start:stop])
    assert meta == {"count": n, "width": 2, "height": 3, "n_locations": 9}


@pytest.mark.parametrize("start, stop, shown", [
    (-1, 2, "-1..2"), (3, 2, "3..2"), (0, 5, "0..5"), (5, None, "5..4")])
def test_read_rejects_a_range_outside_the_file(tmp_path, start, stop, shown):
    path = tmp_path / "data.bin"
    write_dataset(path, np.zeros((4, 2, 2), dtype=np.float32), [0, 1, 2, 2])
    with pytest.raises(ValueError) as exc:
        read_dataset(path, start, stop)
    assert str(exc.value) == (f"{path}: records {shown} are outside the "
                              f"file's 0..4")


def test_read_of_a_range_names_a_bad_label_by_its_index_in_the_file(
        tmp_path):
    n = READ_ROWS + 50
    path = tmp_path / "labels.bin"
    write_dataset(path, np.zeros((n, 2, 2), dtype=np.float32),
                  np.arange(n) % 3)
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + (READ_ROWS + 7) * (1 + 4 * 4)] = 5
    path.write_bytes(raw)
    assert len(read_dataset(path, 0, READ_ROWS + 7)[1]) == READ_ROWS + 7
    with pytest.raises(ValueError) as exc:
        read_dataset(path, READ_ROWS, n)
    assert str(exc.value) == (f"{path}: record {READ_ROWS + 7} has "
                              f"label 5, above J = 2")


@pytest.mark.parametrize("start, stop, rows", [
    (0, 0, 1), (0, READ_ROWS + 10, READ_ROWS + 10),
    (5, READ_ROWS + 9, 2 * READ_ROWS), (READ_ROWS - 1, None, 40)])
def test_read_into_buffers_returns_views_of_them(tmp_path, start, stop,
                                                 rows):
    # the records land in the buffers' first rows, byte for byte those of
    # a plain read, and the rows past them keep their bytes
    n = READ_ROWS + 10
    rng = np.random.default_rng(start)
    path = tmp_path / "data.bin"
    write_dataset(path, rng.normal(size=(n, 3, 2)).astype(np.float32),
                  rng.integers(0, 10, size=n))
    buffers = (np.full((rows, 3, 2), np.nan, dtype=np.float32),
               np.full(rows, 255, dtype=np.uint8))
    before = [b.copy() for b in buffers]
    images, labels, meta = read_dataset(path, start, stop, out=buffers)
    plain = read_dataset(path, start, stop)
    assert images.base is buffers[0] and labels.base is buffers[1]
    assert images.tobytes() == plain[0].tobytes()
    assert labels.tobytes() == plain[1].tobytes()
    assert meta == plain[2]
    k = len(plain[1])
    assert images.shape == plain[0].shape
    assert buffers[0][k:].tobytes() == before[0][k:].tobytes()
    assert buffers[1][k:].tobytes() == before[1][k:].tobytes()


@pytest.mark.parametrize("images, labels", [
    (((8, 3, 2), "<f4"), ((9,), "u1")),
    (((9, 2, 3), "<f4"), ((9,), "u1")),
    (((9, 6), "<f4"), ((9,), "u1")),
    (((9, 3, 2), "<f8"), ((9,), "u1")),
    (((9, 3, 2), "<f4"), ((8,), "u1")),
    (((9, 3, 2), "<f4"), ((9, 1), "u1")),
    (((9, 3, 2), "<f4"), ((9,), "<i8"))])
def test_read_rejects_buffers_that_cannot_hold_the_records(tmp_path, images,
                                                           labels):
    # records 2..11 need 9 rows of 3x2 float32 images and 9 uint8 labels;
    # the error is one line naming the file, and nothing is read
    path = tmp_path / "data.bin"
    write_dataset(path, np.ones((12, 3, 2), dtype=np.float32),
                  np.arange(12) % 3)
    buffers = (np.zeros(*images), np.zeros(*labels))
    with pytest.raises(ValueError) as exc:
        read_dataset(path, 2, 11, out=buffers)
    a, b = buffers
    assert str(exc.value) == (
        f"{path}: 9 records need float32 (N, 3, 2) and uint8 (N,) buffers "
        f"with N >= 9, not {a.dtype} {a.shape} and {b.dtype} {b.shape}")
    assert not a.any() and not b.any()


def test_image_csv_export(tmp_path):
    img = np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0
    path = tmp_path / "img.csv"
    image_to_csv(path, img)
    back = np.loadtxt(path, delimiter=",")
    np.testing.assert_allclose(back, img, rtol=1e-6)


def test_dataset_imports_no_scanobs_module():
    # the file format is a leaf: the reader sizes its buffer by its own
    # READ_ROWS, and importing it loads no observer, network or runner
    src = str(Path(dataset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, scanobs.dataset; "
            "print(sorted(m for m in sys.modules if m.startswith('scanobs')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out == "['scanobs', 'scanobs.dataset']\n"
