"""Binary dataset files.

File layout: a fixed 64-byte header followed by per-record data.

    header: magic "SCANOBS1" (8 bytes), version u32, image count u64,
            width u32, height u32, J u32, zero padding to 64 bytes
    record: label u8 in 0..J, then width*height little-endian float32 pixels
            (row-major)
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SCANOBS1"
VERSION = 1
_HEADER = struct.Struct("<8sIQIII")
HEADER_SIZE = 64
READ_ROWS = 64  # records per read of read_dataset: a 1 MB buffer at 64x64


def _record(height, width):
    """The dtype of one record: its label, then its image."""
    return np.dtype([("label", "u1"), ("image", "<f4", (height, width))])


class DatasetWriter:
    """Streaming writer; records are appended one image, or one stack of
    images, at a time.

    Given the record count, the writer writes the final header on opening
    and keeps the sha256 of every byte it writes, header first
    (``sha256``), and close raises if another number of records came.
    Without it, the header's count is patched at close, and no digest is
    kept."""

    def __init__(self, path, width: int, height: int, n_locations: int,
                 count: int | None = None):
        self.path = Path(path)
        self.width = width
        self.height = height
        self.n_locations = n_locations
        self.expected = count
        self.count = 0
        self._record = _record(height, width)
        self.sha256 = None if count is None else hashlib.sha256()
        self._fh = open(self.path, "wb")
        self._write(self._header(count or 0))

    def _header(self, count):
        return _HEADER.pack(MAGIC, VERSION, count, self.width, self.height,
                            self.n_locations).ljust(HEADER_SIZE, b"\0")

    def _write(self, data):
        self._fh.write(data)
        if self.sha256 is not None:
            self.sha256.update(data)

    def append(self, images: np.ndarray, labels):
        """Append one (height, width) image with its int label, or an
        (N, height, width) stack with its N labels, as one buffer of
        records."""
        images, labels = np.asarray(images), np.asarray(labels)
        if images.shape != labels.shape + (self.height, self.width):
            raise ValueError(f"image shape {images.shape} does not match "
                             f"{labels.shape + (self.height, self.width)}")
        if labels.dtype.kind not in "iu":
            raise ValueError(f"{self.path}: labels must be ints, not "
                             f"{labels.dtype}")
        outside = labels[(labels < 0) | (labels > self.n_locations)]
        if outside.size:
            raise ValueError(f"{self.path}: label {outside[0]} outside 0..J, "
                             f"J = {self.n_locations}")
        records = np.empty(labels.size, self._record)
        records["label"] = labels.reshape(-1)
        records["image"] = images.reshape(records["image"].shape)
        self._write(records)
        self.count += labels.size

    def close(self):
        """Close the file; raises if the record count was given and another
        number of records came."""
        if self.expected is None:
            self._fh.seek(0)
            self._fh.write(self._header(self.count))
        self._fh.close()
        if self.expected not in (None, self.count):
            raise ValueError(f"{self.path}: {self.count} records written, "
                             f"but its header counts {self.expected}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is None:
            self.close()
        else:  # the exception in flight is the one to report
            self._fh.close()


def read_dataset(path, start: int = 0, stop: int | None = None, out=None):
    """Read records start..stop of a dataset file (all by default); returns
    (images (n,H,W) float32, labels (n,) uint8, meta), meta["count"] being
    the file's record count.

    The header and the file's size are checked before anything is
    allocated, and a range outside 0..count is rejected.  The records are
    read READ_ROWS at a time through one buffer into the returned arrays,
    so the images are held once; a label above J is named by its record's
    index in the file.  With out = (images, labels), a float32 (N,H,W)
    and a uint8 (N,) array with N >= n, the records are read into their
    first n rows, and the returned arrays are views of those rows; other
    buffers are rejected before anything is read."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE:
            raise ValueError(f"{path}: truncated header")
        magic, version, count, width, height, n_loc = _HEADER.unpack_from(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        record = _record(height, width)
        size = os.fstat(fh.fileno()).st_size
        if size != HEADER_SIZE + count * record.itemsize:
            raise ValueError(f"{path}: truncated file")
        stop = count if stop is None else stop
        if not 0 <= start <= stop <= count:
            raise ValueError(f"{path}: records {start}..{stop} are outside "
                             f"the file's 0..{count}")
        n = stop - start
        if out is None:
            images = np.empty((n, height, width), dtype=np.float32)
            labels = np.empty(n, dtype=np.uint8)
        else:
            images, labels = out
            if not (images.dtype == np.float32 and labels.dtype == np.uint8
                    and images.shape[1:] == (height, width)
                    and labels.ndim == 1
                    and min(len(images), len(labels)) >= n):
                raise ValueError(
                    f"{path}: {n} records need float32 (N, {height}, "
                    f"{width}) and uint8 (N,) buffers with N >= {n}, not "
                    f"{images.dtype} {images.shape} and {labels.dtype} "
                    f"{labels.shape}")
            images, labels = images[:n], labels[:n]
        fh.seek(HEADER_SIZE + start * record.itemsize)
        chunk = np.empty(min(n, READ_ROWS), dtype=record)
        for lo in range(0, n, READ_ROWS):
            part = chunk[:min(n - lo, READ_ROWS)]
            if fh.readinto(part) != part.nbytes:
                raise ValueError(f"{path}: truncated file")
            labels[lo:lo + len(part)] = part["label"]
            images[lo:lo + len(part)] = part["image"]
    bad = np.flatnonzero(labels > n_loc)
    if len(bad):
        raise ValueError(f"{path}: record {start + bad[0]} has label "
                         f"{labels[bad[0]]}, above J = {n_loc}")
    meta = {"count": count, "width": width, "height": height,
            "n_locations": n_loc}
    return images, labels, meta
