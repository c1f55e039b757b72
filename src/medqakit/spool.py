"""Records kept on disk rather than in memory.

A spool writes each record's output text once, as UTF-8, to an anonymous
temporary file (it never shows up as a file, not even after a crash), and
keeps in memory only the record's id, packed into one byte array, and the
end offsets of its id and its text. The texts are read back in any order;
consecutive ones are read without a seek. `schedule` spools the SQuAD
subsets whose ids its split needs, and `curate artificial` the d4 pairs it
sorts by id.
"""

from __future__ import annotations

import tempfile
from array import array
from pathlib import Path
from typing import Iterable, Iterator

from . import formats
from .corpus import DatasetSubsetId

# Lone surrogates, which a JSON string may hold, pass through the spool; the
# writer of the final output raises on them as it would without the spool.
_ERRORS = "surrogatepass"


class Spool:
    """Texts with ids, held in an anonymous temporary file under `directory`;
    iterating gives each record's (id, text) in the order added."""

    def __init__(self, directory: str | Path):
        self._file = tempfile.TemporaryFile(dir=directory, buffering=1 << 16)
        # packed: a str object would take about 50 bytes more for each id
        self._ids = bytearray()
        self._id_ends = array("q")  # id k is _ids[_id_ends[k - 1]:_id_ends[k]]
        self._ends = array("q", [0])  # text k is bytes _ends[k]:_ends[k + 1] of the file

    def __len__(self) -> int:
        return len(self._id_ends)

    def add(self, id_: str, text: str) -> None:
        self._ids += id_.encode("utf-8", _ERRORS)
        self._id_ends.append(len(self._ids))
        self._ends.append(self._ends[-1] + self._file.write(text.encode("utf-8", _ERRORS)))

    def ids(self) -> Iterator[str]:
        """The ids of the records, in the order they were added."""
        packed, start = self._ids, 0
        for end in self._id_ends:
            yield packed[start:end].decode("utf-8", _ERRORS)
            start = end

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return zip(self.ids(), self.texts(range(len(self))))

    def sorted_indices(self) -> list[int]:
        """The indices of the records in id order, records of equal id in
        the order they were added."""
        return sorted(range(len(self)), key=list(self.ids()).__getitem__)

    def texts(self, indices: Iterable[int]) -> Iterator[str]:
        """The texts of the records at these indices, in the order given."""
        handle, ends = self._file, self._ends
        position = -1
        for k in indices:
            start = ends[k]
            if start != position:
                handle.seek(start)
            position = ends[k + 1]
            yield handle.read(position - start).decode("utf-8", _ERRORS)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> Spool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def spool_squad(path: str | Path, subset: DatasetSubsetId, directory: str | Path) -> Spool:
    """A spool of each pair of a SQuAD file, decoded and checked as
    `formats.iter_squad` does: the pair's id and its `formats.squad_article`.
    """
    spool = Spool(directory)
    try:
        for pair in formats.iter_squad(path, subset=subset):
            spool.add(pair.id, formats.squad_article(pair))
    except BaseException:
        spool.close()
        raise
    return spool
