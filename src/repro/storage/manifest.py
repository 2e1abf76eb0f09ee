"""Dataset manifests: the block-level metadata DataCollector translates.

The paper's DataCollector "translates the metadata (i.e., block
information) that describes the storage information of the data on the
disk" (S3.4.1).  A :class:`FileManifest` is that metadata: per sample,
its logical blocks on the (simulated) NVMe device plus the image
properties the cost models need (encoded bytes, decoded pixels).

The manifest is columnar: one flat array per numeric field, so a
400k-file corpus is a handful of buffers rather than 400k objects.  A
corpus with numbered names stores only the name pattern, and payloads
are kept only for the files that have one.  A :class:`FileEntry` is
built only when one is asked for (indexing or iteration).
"""

from __future__ import annotations

import copy
from array import array
from operator import index
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["BlockExtent", "FileEntry", "FileManifest", "BLOCK_SIZE"]

BLOCK_SIZE = 4096  # logical block size of the simulated NVMe namespace


class BlockExtent(NamedTuple):
    """A contiguous run of logical blocks."""

    lba: int
    block_count: int

    @property
    def nbytes(self) -> int:
        return self.block_count * BLOCK_SIZE


class FileEntry(NamedTuple):
    """One sample on disk: identity, extent, and decode-cost metadata.

    Built by its :class:`FileManifest` on access, on the simulation's
    per-sample path; ``name`` and ``extents`` are derived only when read.
    """

    file_id: int
    size_bytes: int
    lba: int
    height: int
    width: int
    channels: int
    label: int
    payload: Optional[bytes]  # real JPEG bytes in functional mode
    manifest: "FileManifest"

    @property
    def name(self) -> str:
        return self.manifest._file_name(self.file_id)

    @property
    def extents(self) -> tuple[BlockExtent, ...]:
        return (BlockExtent(self.lba, _blocks(self.size_bytes)),)

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def decode_work_pixels(self) -> int:
        """Pixels including chroma planes (4:2:0 -> x1.5 for color)."""
        return self.pixels if self.channels == 1 else self.pixels * 3 // 2

    def get_metainfo(self) -> dict:
        """The paper's ``file.get_metainfo()`` (Algorithm 1 line 11)."""
        return {
            "file_id": self.file_id,
            "size_bytes": self.size_bytes,
            "extents": self.extents,
            "shape": (self.height, self.width, self.channels),
        }


def _blocks(size_bytes: int) -> int:
    return -(-size_bytes // BLOCK_SIZE)


class FileManifest:
    """An ordered, columnar collection of files with a block allocator.

    Files are laid out back to back: each takes one extent of
    ``ceil(size_bytes / BLOCK_SIZE)`` blocks starting where the previous
    one ended.  The numeric columns are flat ``array`` buffers, which
    the garbage collector never traverses.
    """

    _COLUMNS = ("_names", "_sizes", "_lbas", "_heights", "_widths",
                "_channels", "_labels", "_payloads")

    def __init__(self, name: str = "dataset"):
        self.name = name
        self._names: list[str] = []
        self._name_format: Optional[str] = None  # bulk: name of file i
        self._sizes = array("q")
        self._lbas = array("q")
        self._heights = array("q")
        self._widths = array("q")
        self._channels = array("q")
        self._labels = array("q")
        self._payloads: dict[int, bytes] = {}  # functional mode only
        self._next_lba = 0

    @classmethod
    def from_columns(cls, name: str, name_format: str, sizes: list[int],
                     labels: list[int],
                     shape: tuple[int, int, int]) -> "FileManifest":
        """A whole corpus in one call: one size and label per file, file
        ``i`` named ``name_format.format(i)``, every file of geometry
        ``shape`` (height, width, channels)."""
        n = len(sizes)
        if len(labels) != n:
            raise ValueError("sizes and labels differ in length")
        sizes = np.asarray(sizes, dtype=np.longlong)
        if n and sizes.min() <= 0:
            raise ValueError("size_bytes must be positive")
        blocks = -(-sizes // BLOCK_SIZE)
        ends = np.cumsum(blocks)
        manifest = cls(name)
        manifest._name_format = name_format
        manifest._sizes = array("q", sizes.tobytes())
        manifest._lbas = array("q", (ends - blocks).tobytes())
        height, width, channels = shape
        manifest._heights = array("q", [height]) * n
        manifest._widths = array("q", [width]) * n
        manifest._channels = array("q", [channels]) * n
        manifest._labels = array(
            "q", np.asarray(labels, dtype=np.longlong).tobytes())
        manifest._next_lba = int(ends[-1]) if n else 0
        return manifest

    def copy(self) -> "FileManifest":
        """An independent manifest with the same files."""
        other = FileManifest(self.name)
        for column in self._COLUMNS:
            setattr(other, column, copy.copy(getattr(self, column)))
        other._name_format = self._name_format
        other._next_lba = self._next_lba
        return other

    def add(self, name: str, size_bytes: int, height: int, width: int,
            channels: int, label: int = 0,
            payload: Optional[bytes] = None) -> FileEntry:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self._name_format is not None:
            self._names = list(map(self._name_format.format,
                                   range(len(self._sizes))))
            self._name_format = None
        file_id = len(self._sizes)
        self._names.append(name)
        self._sizes.append(size_bytes)
        self._lbas.append(self._next_lba)
        self._heights.append(height)
        self._widths.append(width)
        self._channels.append(channels)
        self._labels.append(label)
        if payload is not None:
            self._payloads[file_id] = payload
        self._next_lba += _blocks(size_bytes)
        return self[file_id]

    def __len__(self) -> int:
        return len(self._sizes)

    def __getitem__(self, idx: int) -> FileEntry:
        idx = index(idx)  # numpy integers too, and file_id stays an int
        size = self._sizes[idx]
        if idx < 0:
            idx += len(self._sizes)
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        return tuple.__new__(FileEntry, (
            idx, size, self._lbas[idx], self._heights[idx],
            self._widths[idx], self._channels[idx], self._labels[idx],
            self._payloads.get(idx), self))

    def _file_name(self, file_id: int) -> str:
        if self._name_format is None:
            return self._names[file_id]
        return self._name_format.format(file_id)

    def __iter__(self) -> Iterator[FileEntry]:
        return map(self.__getitem__, range(len(self._sizes)))

    @property
    def total_bytes(self) -> int:
        return sum(self._sizes)

    @property
    def total_blocks(self) -> int:
        return self._next_lba

    def epoch_order(self, rng=None) -> Sequence[int]:
        """Sample order for one epoch; shuffled when an RNG is given."""
        idx = np.arange(len(self._sizes))
        if rng is not None:
            rng.shuffle(idx)
        return idx
