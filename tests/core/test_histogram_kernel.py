"""The histogram group-count kernel against the per-row loop it replaced.

``Histogram.from_rows`` counts whole inputs with one ``collections.Counter``
pass.  Its contract is the old per-row loop's, kept below as the
reference: the same buckets with the same frequencies, in the same
insertion order, and -- for equal values of different types (``1``,
``1.0``, ``True``) -- the same *first-seen* key objects.  Both input forms
are checked (tuple rows in canonical or permuted attribute order, and
mappings of whole columns), and so are the taps that feed the kernel: the
streaming accumulators over arbitrary batch splits, and table-level
against column-batch observation.

Hypothesis runs from a fixed seed derived from ``REPRO_PROPERTY_SEED``
(default 0), so a failure replays locally with the same variable.
"""

import os
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.algebra.expressions import SubExpression
from repro.core.histogram import Histogram
from repro.core.statistics import Statistic
from repro.engine.instrumentation import TapSet
from repro.engine.streaming import StreamingTaps
from repro.engine.table import Table

BASE_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAN = float("nan")


def reference_from_rows(attrs, rows) -> Histogram:
    """The per-row loop ``from_rows`` ran before the counting kernel."""
    attrs = tuple(attrs)
    order = sorted(range(len(attrs)), key=lambda i: attrs[i])
    canonical = tuple(attrs[i] for i in order)
    counter: Counter = Counter()
    for row in rows:
        row = row if isinstance(row, tuple) else (row,)
        counter[tuple(row[i] for i in order)] += 1
    return Histogram(canonical, dict(counter))


def assert_same(got: Histogram, want: Histogram) -> None:
    """Equal buckets, equal bucket order, and the very same key objects."""
    assert got.attrs == want.attrs
    assert list(got.counts.values()) == list(want.counts.values())
    got_keys, want_keys = list(got.counts), list(want.counts)
    assert len(got_keys) == len(want_keys)
    for gk, wk in zip(got_keys, want_keys):
        assert type(gk) is tuple and len(gk) == len(got.attrs)
        assert [type(v) for v in gk] == [type(v) for v in wk], (gk, wk)
        assert all(g is w for g, w in zip(gk, wk)), (gk, wk)
    assert got == want


#: ``1``, ``1.0`` and ``True`` are equal (as are ``0``, ``0.0``, ``-0.0``
#: and ``False``); one shared NaN object is equal to itself only, while
#: freshly drawn NaNs are all distinct buckets
values = st.one_of(
    st.none(),
    st.sampled_from([0, 1, 2, 0.0, -0.0, 1.0, 2.0, True, False, NAN]),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=False, width=16),
    st.text(alphabet="abc", max_size=2),
)


@st.composite
def row_sets(draw):
    """``(attrs in a drawn order, tuple rows aligned with them)``."""
    width = draw(st.integers(1, 3))
    attrs = tuple(draw(st.permutations(("a", "b", "c")[:width])))
    rows = draw(
        st.lists(st.tuples(*[values] * width), max_size=80)
    )
    return attrs, rows


@seed(BASE_SEED)
@SETTINGS
@given(row_sets())
def test_tuple_rows_match_the_per_row_loop(case):
    attrs, rows = case
    assert_same(
        Histogram.from_rows(attrs, iter(rows)),
        reference_from_rows(attrs, rows),
    )


@seed(BASE_SEED + 1)
@SETTINGS
@given(row_sets())
def test_column_mapping_matches_the_per_row_loop(case):
    attrs, rows = case
    columns = {a: [row[i] for row in rows] for i, a in enumerate(attrs)}
    columns["unused"] = [object() for _ in rows]
    assert_same(
        Histogram.from_rows(attrs, columns),
        reference_from_rows(attrs, rows),
    )


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("permuted", [False, True])
def test_mixed_numeric_types_keep_the_first_seen_key(width, permuted):
    attrs = ("a", "b", "c")[:width]
    if permuted:
        attrs = attrs[::-1]
    rows = [
        tuple(v for _ in range(width))
        for v in (True, 1, 1.0, 2.0, 2, 0, False, -0.0, 0.0)
    ]
    got = Histogram.from_rows(attrs, rows)
    assert_same(got, reference_from_rows(attrs, rows))
    assert [type(k[0]) for k in got.counts] == [bool, float, int]
    assert list(got.counts.values()) == [3, 2, 4]
    columns = {a: [row[0] for row in rows] for a in attrs}
    assert_same(Histogram.from_rows(attrs, columns), got)


def test_permuted_attributes_permute_the_values():
    got = Histogram.from_rows(("c", "a", "b"), [("C", "A", "B"), ("C", "A", "B")])
    assert got.attrs == ("a", "b", "c")
    assert got.counts == {("A", "B", "C"): 2}


def test_empty_input():
    for attrs in (("a",), ("b", "a")):
        assert_same(
            Histogram.from_rows(attrs, iter(())), reference_from_rows(attrs, [])
        )
        assert Histogram.from_rows(attrs, {a: [] for a in attrs}).counts == {}


def test_none_and_nan_objects():
    nan_a, nan_b = float("nan"), float("nan")
    rows = [(None,), (nan_a,), (None,), (nan_a,), (nan_b,)]
    got = Histogram.from_rows(("a",), rows)
    assert_same(got, reference_from_rows(("a",), rows))
    assert list(got.counts.values()) == [2, 2, 1]


@pytest.mark.parametrize("width", [1, 2])
def test_high_cardinality_keys(width):
    n = 20_000
    attrs = ("b", "a")[:width]
    rows = [tuple(range(i, i + width)) for i in range(n)]
    rows += rows[: n // 4]
    want = reference_from_rows(attrs, rows)
    assert len(want) == n
    assert_same(Histogram.from_rows(attrs, rows), want)
    columns = {a: [row[i] for row in rows] for i, a in enumerate(attrs)}
    assert_same(Histogram.from_rows(attrs, columns), want)


def test_kernel_validates_attributes():
    from repro.core.histogram import HistogramError

    with pytest.raises(HistogramError):
        Histogram.from_rows((), [])
    with pytest.raises(HistogramError):
        Histogram.from_rows(("a", "a"), [(1, 1)])


def test_kernel_rejects_rows_that_are_not_aligned_tuples():
    from repro.core.histogram import HistogramError

    # bare scalars would otherwise become bare bucket keys that no lookup
    # (frequency, dot, multiply) can find
    with pytest.raises(HistogramError):
        Histogram.from_rows(("a",), [1, 2, 1])
    with pytest.raises(HistogramError):
        Histogram.from_rows(("a",), [(1, 2)])
    with pytest.raises(HistogramError):
        Histogram.from_rows(("a", "b"), [(1,)])


# ---------------------------------------------------------------------------
# the taps that feed the kernel
# ---------------------------------------------------------------------------
SE = SubExpression.of("T")


@st.composite
def batches(draw):
    """``(histogram stats, columns, batch split points)``."""
    attrs = ("a", "b", "c")
    rows = draw(st.lists(st.tuples(*[values] * 3), max_size=60))
    columns = {a: [row[i] for row in rows] for i, a in enumerate(attrs)}
    subsets = draw(
        st.lists(
            st.sets(st.sampled_from(attrs), min_size=1),
            min_size=1,
            max_size=3,
            unique_by=lambda s: tuple(sorted(s)),
        )
    )
    stats = [Statistic.hist(SE, *sorted(s)) for s in subsets]
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    return stats, columns, len(rows), cuts


@seed(BASE_SEED + 2)
@SETTINGS
@given(batches())
def test_streaming_batches_equal_one_shot_observation(case):
    stats, columns, n, cuts = case
    one_shot = TapSet(stats)
    one_shot.observe_columns(SE, n, columns)

    streamed = StreamingTaps(stats)
    bounds = [0, *cuts, n]
    for lo, hi in zip(bounds, bounds[1:]):
        streamed.observe_columns(
            SE, hi - lo, {a: col[lo:hi] for a, col in columns.items()}
        )
    streamed.mark_streamed(SE)
    got = streamed.collect()

    rows = list(zip(*(columns[a] for a in ("a", "b", "c"))))
    for stat in stats:
        positions = [("a", "b", "c").index(a) for a in stat.attrs]
        want = reference_from_rows(
            stat.attrs, [tuple(row[i] for i in positions) for row in rows]
        )
        assert_same(one_shot.store.get(stat), want)
        assert_same(got.get(stat), want)


@seed(BASE_SEED + 3)
@SETTINGS
@given(batches())
def test_table_observation_equals_column_batches(case):
    stats, columns, n, _ = case
    by_table = TapSet(stats)
    by_table.observe(SE, Table.wrap(columns))
    by_columns = TapSet(stats)
    by_columns.observe_columns(SE, n, columns)
    for stat in stats:
        assert_same(by_columns.store.get(stat), by_table.store.get(stat))
