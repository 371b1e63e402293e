"""Equal values are one value to the HyperLogLog sketch.

Python counts ``1``, ``1.0`` and ``True`` as one value, and ``0.0`` and
``-0.0`` as one; the exact distinct accumulator (a set) does too.  A dense
sketch must agree: such values land in the same register, so feeding a
second representative changes nothing.  Stored dense registers from
before this canonicalisation hash numbers differently, so their documents
are refused instead of merged.
"""

import pytest

from repro.core.persistence import PersistenceError
from repro.estimation.sketches import SKETCH_FORMAT_VERSION, HllSketch, hash64


def _dense(*batches):
    sketch = HllSketch(precision=4, exact_threshold=0)
    for batch in batches:
        sketch.update(batch)
    return sketch


@pytest.mark.parametrize(
    "first,second",
    [(1, 1.0), (1.0, 1), (1, True), (0.0, -0.0), (-0.0, 0), (0, False)],
)
def test_equal_numbers_fill_one_register(first, second):
    alone = _dense([(first,)])
    both = _dense([(first,)], [(second,)])
    assert not both.is_exact
    assert both == alone
    assert both.result() == 1


def test_canonicalisation_keeps_distinct_values_apart():
    assert hash64((1.5,)) != hash64((1,))
    assert hash64(("1",)) != hash64((1,))
    assert hash64((None,)) != hash64((0,))
    assert hash64((1, 2.0)) == hash64((1.0, 2))


def test_old_dense_documents_are_refused():
    doc = _dense([(1,)], [(2,)]).to_doc()
    assert doc["format_version"] == SKETCH_FORMAT_VERSION
    assert HllSketch.from_doc(doc) == _dense([(1,)], [(2,)])
    doc["format_version"] = SKETCH_FORMAT_VERSION - 1
    with pytest.raises(PersistenceError, match="re-observe"):
        HllSketch.from_doc(doc)


def test_old_exact_documents_still_load():
    sketch = HllSketch([(1,), (2,)], precision=4)
    doc = sketch.to_doc()
    doc["format_version"] = SKETCH_FORMAT_VERSION - 1
    assert HllSketch.from_doc(doc) == sketch
