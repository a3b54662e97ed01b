"""Binary framing shared by the checkpoint, backend-bundle and feature-archive
formats.

Every file starts with a 4-byte magic and a little-endian u32 version.
Checkpoints and bundles continue with a u32-length-prefixed JSON object
and a sequence of named arrays, each stored as a u32-length-prefixed
UTF-8 name, a u32 rank, one u32 per dimension and the little-endian f64
data.  Reads are exact: a short read is a `ValueError` naming the file
kind, the path and the byte offset where the data ran out.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np


def write_header(f, magic: bytes, version: int) -> None:
    f.write(magic)
    f.write(struct.pack("<I", version))


def write_json(f, obj) -> None:
    data = json.dumps(obj).encode("utf-8")
    f.write(struct.pack("<I", len(data)))
    f.write(data)


def write_arrays(f, arrays) -> None:
    """Write (name, array) pairs as named f64 arrays."""
    for name, arr in arrays:
        nb = name.encode("utf-8")
        arr = np.asarray(arr, dtype="<f8")
        f.write(struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb,
                            arr.ndim, *arr.shape))
        f.write(arr.tobytes())


class Reader:
    """Exact reads from an open binary file of the given kind."""

    def __init__(self, f, kind: str):
        self.f = f
        self.kind = kind
        self.size = os.fstat(f.fileno()).st_size
        self.pos = f.tell()

    def take(self, n: int, what: str) -> bytes:
        # checked against the file size before reading, so a corrupt
        # length field never allocates more than the file holds
        left = self.size - self.pos
        if n > left:
            raise ValueError(
                f"truncated {self.kind} {self.f.name} at byte {self.pos} "
                f"while reading {what}: {n} bytes needed, {left} left")
        self.pos += n
        return self.f.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def header(self, magic: bytes, version: int) -> None:
        got = self.take(len(magic), "magic")
        if got != magic:
            raise ValueError(f"bad {self.kind} magic {got!r}")
        (got,) = self.unpack("<I", "version")
        if got != version:
            raise ValueError(f"unsupported {self.kind} version {got}")

    def json(self, what: str):
        (n,) = self.unpack("<I", f"{what} length")
        return json.loads(self.take(n, what))

    def arrays(self, count: int, names) -> dict:
        """Read `count` named arrays whose names must be exactly `names`."""
        names = set(names)
        out = {}
        for _ in range(count):
            (nlen,) = self.unpack("<I", "name length")
            name = self.take(nlen, "name").decode("utf-8")
            if name not in names:
                raise ValueError(f"unknown {self.kind} array {name!r}")
            if name in out:
                raise ValueError(f"duplicate {self.kind} array {name!r}")
            (rank,) = self.unpack("<I", f"rank of {name}")
            shape = self.unpack(f"<{rank}I", f"dims of {name}")
            data = self.take(8 * math.prod(shape), f"data of {name}")
            out[name] = np.frombuffer(data, dtype="<f8").reshape(shape) \
                .astype(np.float64)
        missing = names - set(out)
        if missing:
            raise ValueError(
                f"{self.kind} is missing arrays {sorted(missing)}")
        return out
