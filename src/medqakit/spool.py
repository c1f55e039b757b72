"""Records kept on disk rather than in memory.

A spool writes each record's output text once, as UTF-8, to an anonymous
temporary file (it never shows up as a file, not even after a crash), and
keeps in memory only the record's id, packed into one byte array, and the
end offsets of its id and its text. The texts are read back in any order;
consecutive ones are read without a seek. `curate artificial` spools the
d4 pairs it sorts by id. `schedule` spools nothing: it reads each subset
whose ids its split or folds need twice, once for the ids and once for
the stages.
"""

from __future__ import annotations

import tempfile
from array import array
from pathlib import Path
from typing import Iterable, Iterator

# Lone surrogates pass through the spool; the writer of the final output
# raises on them as it would without the spool.
_ERRORS = "surrogatepass"


class Spool:
    """Texts with ids, held in an anonymous temporary file under `directory`."""

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
