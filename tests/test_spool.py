"""The spool gives back each text and id as added, in any order, and leaves
no file behind in its directory."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from medqakit.spool import Spool

# ids repeat; texts hold non-ASCII characters and lone surrogates
IDS = st.sampled_from(["b", "a", "10", "9", "é", "\ud800", ""])
TEXTS = st.text(st.sampled_from(list("ab \n\"é漢😀𐏿")), max_size=20)


@settings(max_examples=300, deadline=None)
@given(records=st.lists(st.tuples(IDS, TEXTS), max_size=12), seed=st.integers(0, 2**32 - 1))
def test_texts_and_ids_come_back_as_added(tmp_path_factory, records, seed):
    directory = tmp_path_factory.mktemp("spool")
    with Spool(directory) as spool:
        for id_, text in records:
            spool.add(id_, text)
        assert list(directory.iterdir()) == []
        assert len(spool) == len(records)
        assert list(spool.ids()) == [id_ for id_, _ in records]
        order = list(range(len(records))) * 2
        random.Random(seed).shuffle(order)
        assert list(spool.texts(order)) == [records[k][1] for k in order]
        assert list(spool.texts(range(len(records)))) == [text for _, text in records]
        expected = sorted(range(len(records)), key=lambda k: records[k][0])
        assert spool.sorted_indices() == expected
    assert list(directory.iterdir()) == []

