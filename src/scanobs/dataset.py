"""Binary dataset files.

File layout: a fixed 64-byte header followed by per-record data.

    header: magic "SCANOBS1" (8 bytes), version u32, image count u64,
            width u32, height u32, J u32, zero padding to 64 bytes
    record: label u8 in 0..J, then width*height little-endian float32 pixels
            (row-major)
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .observers import HO_BLOCK_ROWS

MAGIC = b"SCANOBS1"
VERSION = 1
_HEADER = struct.Struct("<8sIQIII")
HEADER_SIZE = 64


class DatasetWriter:
    """Streaming writer; records may be appended one batch at a time."""

    def __init__(self, path, width: int, height: int, n_locations: int):
        self.path = Path(path)
        self.width = width
        self.height = height
        self.n_locations = n_locations
        self.count = 0
        self._fh = open(self.path, "wb")
        self._write_header()

    def _write_header(self):
        hdr = _HEADER.pack(MAGIC, VERSION, self.count,
                           self.width, self.height, self.n_locations)
        self._fh.seek(0)
        self._fh.write(hdr.ljust(HEADER_SIZE, b"\0"))
        self._fh.seek(0, 2)

    def append(self, image: np.ndarray, label: int):
        if image.shape != (self.height, self.width):
            raise ValueError(f"image shape {image.shape} does not match "
                             f"({self.height}, {self.width})")
        if not 0 <= label <= self.n_locations:
            raise ValueError(f"{self.path}: label {label} outside 0..J, "
                             f"J = {self.n_locations}")
        self._fh.write(struct.pack("<B", label))
        self._fh.write(np.ascontiguousarray(image, dtype="<f4").tobytes())
        self.count += 1

    def close(self):
        self._write_header()
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_dataset(path):
    """Read a dataset file; returns (images (N,H,W) float32, labels (N,) uint8, meta).

    The records are read HO_BLOCK_ROWS at a time through one buffer into
    the returned arrays, so the images are held once."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE:
            raise ValueError(f"{path}: truncated header")
        magic, version, count, width, height, n_loc = _HEADER.unpack_from(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        record = np.dtype([("label", "u1"),
                           ("image", "<f4", (height, width))])
        size = os.fstat(fh.fileno()).st_size
        if size != HEADER_SIZE + count * record.itemsize:
            raise ValueError(f"{path}: truncated file")
        labels = np.empty(count, dtype=np.uint8)
        images = np.empty((count, height, width), dtype=np.float32)
        chunk = np.empty(min(count, HO_BLOCK_ROWS), dtype=record)
        for lo in range(0, count, HO_BLOCK_ROWS):
            part = chunk[:min(count - lo, HO_BLOCK_ROWS)]
            if fh.readinto(part) != part.nbytes:
                raise ValueError(f"{path}: truncated file")
            labels[lo:lo + len(part)] = part["label"]
            images[lo:lo + len(part)] = part["image"]
    bad = np.flatnonzero(labels > n_loc)
    if len(bad):
        raise ValueError(f"{path}: record {bad[0]} has label "
                         f"{labels[bad[0]]}, above J = {n_loc}")
    meta = {"count": count, "width": width, "height": height,
            "n_locations": n_loc}
    return images, labels, meta
