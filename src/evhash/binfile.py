"""The one reader of evhash's binary files: FSEQ, FEAT, NRM1 (ingest),
MCBN (model) and VHDB (index).

All five are little-endian and share their framing: a 4-byte magic, a u8
version that must be 1, the rest of a fixed header, then a payload that
ends exactly at the end of the file. Every size a header or field
declares is checked against the bytes left before anything is sliced or
allocated, so a huge declared size fails fast with TruncatedFile.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, MalformedFile, TruncatedFile, UnsupportedVersion

# the element types of the formats' arrays
U8 = np.dtype(np.uint8)
F32 = np.dtype("<f4")


class Reader:
    """Reads a file whose ``header`` struct starts with the magic ("4s")
    and the version ("B"); ``fields`` holds the header's other fields."""

    def __init__(self, path, magic: bytes, header: struct.Struct):
        self.path = path
        self._data = Path(path).read_bytes()
        self._pos = 0
        found, version, *self.fields = self.unpack(header)
        if found != magic:
            raise BadMagic(f"{path}: expected {magic!r}, found {found!r}")
        if version != 1:
            raise UnsupportedVersion(f"{path}: {magic!r} version {version}")

    def take(self, n: int) -> int:
        """Pass over the next ``n`` bytes and return their offset."""
        pos, left = self._pos, len(self._data) - self._pos
        if n > left:
            raise TruncatedFile(f"{self.path}: needs {n} bytes, {left} left")
        self._pos = pos + n
        return pos

    def unpack(self, st: struct.Struct) -> tuple:
        return st.unpack_from(self._data, self.take(st.size))

    def array(self, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        """The next array of ``shape``, a read-only view into the file's
        buffer: copy it to keep it without the whole buffer."""
        count = math.prod(shape)
        pos = self.take(dtype.itemsize * count)
        return np.frombuffer(self._data, dtype, count, pos).reshape(shape)

    def text(self, n: int) -> str:
        """The next ``n`` bytes, decoded as UTF-8."""
        pos = self.take(n)
        try:
            return self._data[pos:pos + n].decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedFile(f"{self.path}: text is not UTF-8 ({e})") \
                from None

    def close(self) -> None:
        """Check that the payload ended at the end of the file."""
        left = len(self._data) - self._pos
        if left:
            raise MalformedFile(f"{self.path}: {left} bytes after the payload")
