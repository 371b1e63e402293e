"""Exact frequency histograms and the algebra the CSS rules need.

Section 3.1: *"Currently, we consider only histograms that can accurately
estimate the cardinalities"* -- i.e. one bucket per distinct value.  This
module implements such exact (multi-)attribute frequency distributions,
``H_T^a`` and ``H_T^{a,b}``, together with every operation the rule set of
Section 4 uses:

=====================  ======================================================
operation              paper usage
=====================  ======================================================
``dot``                J1: ``|T_12| = H_{T1}^a . H_{T2}^a``
``join_distribute``    J2: matrix product of ``H_{T1}^{a,b}`` and ``H_{T2}^a``
``multiply``           J3 and Eq. 2: ``<H1 | H2>`` bucket-wise product
``divide``             Eq. 2/3: bucket-wise division (union-division method)
``marginalize``        I2: coarsen ``H^{a,b}`` to ``H^a``
``total``              I1: ``|T| = |H_T^a|`` (sum of bucket values)
``add``                Eq. 1: union of disjoint row sets
``distinct_count``     G1: ``|a_T|``
=====================  ======================================================

Buckets with zero frequency are never stored; histograms are immutable from
the caller's perspective (all operations return new objects).

Every observed histogram is built by one group-count kernel,
:meth:`Histogram.from_rows`: a single ``collections.Counter`` pass over
the value tuples or whole columns (its counting loop runs in C), adopted
through the trusted :meth:`Histogram.wrap` constructor.  Equal values of
different types (``1``, ``1.0``, ``True``) share one bucket whose key is
the first value seen, exactly as a per-row dictionary update keeps it.

Bucketized (approximate) histograms -- the Section 8.1 future-work extension
-- live in :mod:`repro.core.bucketized`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from operator import itemgetter


class HistogramError(ValueError):
    """Raised for invalid histogram operations (attribute mismatches etc.)."""


def _as_tuple(key) -> tuple:
    return key if isinstance(key, tuple) else (key,)


def _check_attrs(attrs: tuple) -> None:
    if not attrs:
        raise HistogramError("a histogram needs at least one attribute")
    if tuple(sorted(attrs)) != tuple(attrs):
        raise HistogramError(
            f"attributes must be in canonical sorted order, got {attrs}"
        )
    if len(set(attrs)) != len(attrs):
        raise HistogramError(f"duplicate attributes: {attrs}")


@dataclass(frozen=True)
class Histogram:
    """Exact frequency distribution over one or more attributes.

    ``attrs`` is the canonical (sorted) attribute tuple; ``counts`` maps a
    value tuple (aligned with ``attrs``) to its frequency.
    """

    attrs: tuple[str, ...]
    counts: Mapping[tuple, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_attrs(self.attrs)
        cleaned = {
            _as_tuple(k): v for k, v in dict(self.counts).items() if v != 0
        }
        for key in cleaned:
            if len(key) != len(self.attrs):
                raise HistogramError(
                    f"bucket key {key!r} does not match attributes {self.attrs}"
                )
        object.__setattr__(self, "counts", cleaned)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        attrs: Sequence[str],
        rows: Iterable[tuple] | Mapping[str, Sequence],
    ) -> "Histogram":
        """Group-count value tuples into an exact histogram, in one C pass.

        ``rows`` yields tuples aligned with ``attrs`` (``Table.rows`` does;
        a bare scalar row raises :class:`HistogramError`), or is a mapping of whole columns by attribute (the taps' column
        batches; extra columns are ignored).  ``attrs`` may arrive in any
        order; tuple rows are then permuted into canonical order on the
        way in.  The counting itself is ``collections.Counter``, whose loop
        runs in C -- over bare values for a single column, which skips
        hashing a 1-tuple per row -- and a bucket's key is the first value
        seen among equal ones (``1`` before ``1.0`` keeps ``1``).  A
        counter yields no zero counts and only keys of the right width, so
        the result is adopted through :meth:`wrap` without the per-bucket
        re-check of the public constructor.
        """
        attrs = tuple(attrs)
        order = sorted(range(len(attrs)), key=attrs.__getitem__)
        canonical = tuple(attrs[i] for i in order)
        if isinstance(rows, Mapping):
            if len(canonical) == 1:
                counts = Counter(rows[canonical[0]])
                return cls.wrap(canonical, {(v,): n for v, n in counts.items()})
            rows = zip(*(rows[a] for a in canonical))
        elif canonical != attrs:
            # two or more attributes here, so itemgetter returns tuples
            rows = map(itemgetter(*order), rows)
        counts = dict(Counter(rows))
        # wrap() trusts the keys; checking the first one catches bare
        # scalar rows and misaligned widths in O(1)
        for first in counts:
            if not isinstance(first, tuple) or len(first) != len(canonical):
                raise HistogramError(
                    f"rows must be tuples of {len(canonical)} values aligned "
                    f"with {attrs}, got {first!r}"
                )
            break
        return cls.wrap(canonical, counts)

    @classmethod
    def wrap(cls, attrs: tuple[str, ...], counts: dict) -> "Histogram":
        """Trusted constructor: adopt ``counts`` without a per-bucket pass.

        For the engine's own counters, in the spirit of ``Table.wrap``:
        ``counts`` must map tuples of ``len(attrs)`` values to non-zero
        frequencies, and the caller must not mutate it afterwards.  Only
        ``attrs`` is validated; the public constructor also normalizes
        every key and drops zero buckets.
        """
        _check_attrs(attrs)
        hist = cls.__new__(cls)
        object.__setattr__(hist, "attrs", attrs)
        object.__setattr__(hist, "counts", counts)
        return hist

    @classmethod
    def single(cls, attr: str, counts: Mapping) -> "Histogram":
        """Build a single-attribute histogram from ``{value: frequency}``."""
        return cls((attr,), {_as_tuple(k): v for k, v in counts.items()})

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def is_single(self) -> bool:
        return len(self.attrs) == 1

    def total(self) -> float:
        """``|H_T^a|`` -- the sum of bucket values, equals ``|T|`` (rule I1)."""
        return sum(self.counts.values())

    def distinct_count(self) -> int:
        """Number of non-empty buckets: ``|a_T|`` for the stored attributes."""
        return len(self.counts)

    def frequency(self, key) -> float:
        return self.counts.get(_as_tuple(key), 0)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.attrs == other.attrs and dict(self.counts) == dict(other.counts)

    def __hash__(self) -> int:  # frozen dataclass with dict field
        return hash((self.attrs, frozenset(self.counts.items())))

    # ------------------------------------------------------------------
    # rule algebra
    # ------------------------------------------------------------------
    def _require_same_attrs(self, other: "Histogram") -> None:
        if self.attrs != other.attrs:
            raise HistogramError(
                f"attribute mismatch: {self.attrs} vs {other.attrs}"
            )

    def dot(self, other: "Histogram") -> float:
        """Rule J1: join cardinality as a dot product of join-key histograms."""
        self._require_same_attrs(other)
        small, large = sorted((self, other), key=len)
        return sum(
            freq * large.counts.get(key, 0) for key, freq in small.counts.items()
        )

    def multiply(self, other: "Histogram") -> "Histogram":
        """``<H1 | H2>``: bucket-wise product (rule J3, Equation 2).

        ``other`` must be a histogram on a subset of this histogram's
        attributes; its value is broadcast across the remaining attributes.
        """
        return self._broadcast(other, lambda a, b: a * b)

    def divide(self, other: "Histogram") -> "Histogram":
        """Bucket-wise division (Equations 2-3, the union-division method).

        Buckets whose divisor is zero cannot have come from the multiplied
        join, so they are dropped (they contribute no joined rows).
        """
        return self._broadcast(
            other, lambda a, b: a / b if b else 0.0
        )

    def _broadcast(self, other: "Histogram", op) -> "Histogram":
        if not set(other.attrs) <= set(self.attrs):
            raise HistogramError(
                f"{other.attrs} is not a subset of {self.attrs}; cannot broadcast"
            )
        positions = [self.attrs.index(a) for a in other.attrs]
        out: dict[tuple, float] = {}
        for key, freq in self.counts.items():
            sub = tuple(key[i] for i in positions)
            value = op(freq, other.counts.get(sub, 0))
            if value:
                out[key] = value
        return Histogram(self.attrs, out)

    def join_distribute(self, other: "Histogram", join_attr: str) -> "Histogram":
        """Rule J2: distribution of the non-join attributes after a join.

        ``self`` is ``H_{T1}^{(a, b...)}`` (contains the join attribute and
        the carried attributes), ``other`` is ``H_{T2}^a`` on the join
        attribute alone.  The result is ``H_{T1 join T2}^{b...}``::

            H[b] = sum_a H_self[a, b] * H_other[a]
        """
        if join_attr not in self.attrs:
            raise HistogramError(f"{join_attr!r} not in {self.attrs}")
        if other.attrs != (join_attr,):
            raise HistogramError(
                f"expected a single-attribute histogram on {join_attr!r}, "
                f"got {other.attrs}"
            )
        rest = tuple(a for a in self.attrs if a != join_attr)
        if not rest:
            raise HistogramError(
                "join_distribute needs at least one carried attribute; "
                "use multiply for the join attribute itself (rule J3)"
            )
        join_pos = self.attrs.index(join_attr)
        rest_pos = [self.attrs.index(a) for a in rest]
        out: dict[tuple, float] = {}
        for key, freq in self.counts.items():
            match = other.counts.get((key[join_pos],), 0)
            if not match:
                continue
            sub = tuple(key[i] for i in rest_pos)
            out[sub] = out.get(sub, 0) + freq * match
        return Histogram(rest, out)

    def marginalize(self, attrs: Sequence[str]) -> "Histogram":
        """Rule I2: coarsen to a histogram on a subset of attributes."""
        attrs = tuple(sorted(attrs))
        if not set(attrs) <= set(self.attrs):
            raise HistogramError(
                f"{attrs} is not a subset of {self.attrs}; cannot marginalize"
            )
        if attrs == self.attrs:
            return self
        positions = [self.attrs.index(a) for a in attrs]
        out: dict[tuple, float] = {}
        for key, freq in self.counts.items():
            sub = tuple(key[i] for i in positions)
            out[sub] = out.get(sub, 0) + freq
        return Histogram(attrs, out)

    def add(self, other: "Histogram") -> "Histogram":
        """Union of disjoint row sets (Equation 1): bucket-wise sum."""
        self._require_same_attrs(other)
        out = dict(self.counts)
        for key, freq in other.counts.items():
            out[key] = out.get(key, 0) + freq
        return Histogram(self.attrs, out)

    def select(self, attr: str, predicate) -> "Histogram":
        """Rule S1/S2 support: keep buckets whose ``attr`` value passes."""
        if attr not in self.attrs:
            raise HistogramError(f"{attr!r} not in {self.attrs}")
        pos = self.attrs.index(attr)
        kept = {k: v for k, v in self.counts.items() if predicate(k[pos])}
        return Histogram(self.attrs, kept)

    def memory_units(self) -> int:
        """Actual bucket count (one integer per non-empty bucket)."""
        return len(self.counts)
