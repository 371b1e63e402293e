"""Vectorized execution kernels: whole-column operators with selection vectors.

The columnar backend's reference kernels (:mod:`repro.engine.physical`)
move one cell at a time through Python loops -- correct, but every gathered
value pays interpreter overhead.  The vectorized backend keeps the exact
same operator semantics while restructuring each kernel around four ideas
standard in analytical engines:

- **selection vectors**: a filter evaluates its predicate once per row into
  an index vector, then gathers *all* columns in one bulk operation instead
  of per-column Python loops (an all-rows-pass filter is a zero-copy
  no-op);
- **bulk gathers**: index-vector gathers go through ``numpy`` fancy
  indexing when available (object dtype, so values round-trip unchanged --
  no bool/int/float coercion), with pure-Python list comprehensions as the
  numpy-free fallback; results are identical either way;
- **array-resident intermediates**: join outputs stay as object ``ndarray``
  columns inside a block, and a per-kernel-set conversion cache pins each
  source column's array form, so an N-way join chain converts every column
  at most once instead of once per join;
- **hash-join build reuse**: the join hash table for a given (build side,
  key) pair is built once per kernel set and cached, so repeated joins
  against the same processed input (re-orderings, ground-truth brute
  force) skip the build pass.  Unique build keys (the FK-lookup common
  case) get a scalar-valued hash table and a branch-free probe loop.

:class:`VectorizedBackend` reuses the columnar backend's block walk --
only the kernels differ -- which is exactly the seam the
:class:`~repro.engine.backend.ExecutionBackend` protocol formalizes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algebra.blocks import Step
from repro.engine.backend import Kernels
from repro.engine.executor import ColumnarBackend
from repro.engine.physical import apply_aggregate_udf, group_by
from repro.engine.table import Table, TableError

try:  # numpy accelerates bulk gathers but is not required
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

__all__ = ["VectorizedBackend", "VectorizedKernels"]

#: below this many gathered rows the list comprehension beats the
#: list -> ndarray -> list round-trip
_NUMPY_MIN_GATHER = 64


def _as_list(column: Sequence) -> Sequence:
    """A form of the column that is fast to iterate row by row."""
    if _np is not None and isinstance(column, _np.ndarray):
        return column.tolist()
    return column


class VectorizedKernels(Kernels):
    """Column-at-a-time kernels with per-run array and join-build caches."""

    name = "vectorized"

    def __init__(self) -> None:
        # (id(build side), key) -> (table ref, hash table, unique flag);
        # holding the referenced object pins its id for the cache lifetime
        self._builds: dict = {}
        # id(column) -> (column ref, object ndarray)
        self._arrays: dict = {}

    # -- bulk gather ---------------------------------------------------
    def _as_array(self, column: Sequence):
        """Object-dtype array form of a column, converted at most once."""
        if isinstance(column, _np.ndarray):
            return column
        hit = self._arrays.get(id(column))
        if hit is not None and hit[0] is column:
            return hit[1]
        arr = _np.empty(len(column), dtype=object)
        arr[:] = column
        self._arrays[id(column)] = (column, arr)
        return arr

    def gather(self, column: Sequence, sel: Sequence[int]):
        """Bulk-gather ``column[i] for i in sel``.

        Returns an object ndarray on the numpy path (kept array-resident
        for the next gather); values are the original Python objects --
        object dtype never coerces.
        """
        if _np is not None and len(sel) >= _NUMPY_MIN_GATHER:
            arr = self._as_array(column)
            if not isinstance(sel, _np.ndarray):
                sel = _np.asarray(sel, dtype=_np.intp)
            return arr[sel]
        return [column[i] for i in sel]

    @staticmethod
    def _as_index(sel: Sequence[int]):
        """Index-array form of a selection vector, converted once per use
        site so every column gathered with it shares the conversion."""
        if _np is not None and len(sel) >= _NUMPY_MIN_GATHER:
            return _np.asarray(sel, dtype=_np.intp)
        return sel

    def take(self, table: Table, sel: Sequence[int]) -> Table:
        """Materialize a selection vector over every column of ``table``."""
        sel = self._as_index(sel)
        return Table.wrap(
            {a: self.gather(col, sel) for a, col in table.columns.items()}
        )

    # -- unary steps ---------------------------------------------------
    def apply_step(self, table: Table, step: Step) -> Table:
        node = step.node
        if step.kind == "filter":
            return self._filter(table, step.attrs[0], node.predicate.fn)
        if step.kind == "transform":
            out_attr = step.result_attr if step.result_attr else step.attrs[0]
            return self._transform(table, step.attrs, node.udf.fn, out_attr)
        if step.kind == "project":
            return Table.wrap({a: table.column(a) for a in step.attrs})
        raise TableError(f"unknown step kind {step.kind!r}")

    def _filter(self, table: Table, attr: str, predicate: Callable) -> Table:
        col = _as_list(table.column(attr))
        sel = [i for i, v in enumerate(col) if predicate(v)]  # selection vector
        if len(sel) == table.num_rows:
            return table  # all rows pass: zero copies
        return self.take(table, sel)

    @staticmethod
    def _transform(
        table: Table, in_attrs: Sequence[str], fn: Callable, out_attr: str
    ) -> Table:
        if len(in_attrs) == 1:
            values = [fn(v) for v in _as_list(table.column(in_attrs[0]))]
        else:
            cols = [_as_list(table.column(a)) for a in in_attrs]
            values = [fn(vals) for vals in zip(*cols)]
        columns = dict(table.columns)
        columns[out_attr] = values
        return Table.wrap(columns)

    # -- joins ---------------------------------------------------------
    def _probe_keys(self, table: Table, key: tuple[str, ...]) -> Sequence:
        if len(key) == 1:
            return _as_list(table.column(key[0]))
        return list(zip(*(_as_list(table.column(a)) for a in key)))

    def _build_side(self, table: Table, key: tuple[str, ...]):
        """``(hash table, unique)`` for the build side, built once per run.

        ``unique`` means every key occurs at most once, so the hash table
        maps key -> row index (the FK-lookup fast path); otherwise it maps
        key -> list of row indexes.
        """
        cache_key = (id(table), key)
        hit = self._builds.get(cache_key)
        if hit is not None and hit[0] is table:
            return hit[1], hit[2]
        build: dict = {}
        unique = True
        for idx, kv in enumerate(self._probe_keys(table, key)):
            bucket = build.get(kv)
            if bucket is None:
                build[kv] = idx
            elif isinstance(bucket, int):
                build[kv] = [bucket, idx]
                unique = False
            else:
                bucket.append(idx)
        if not unique:  # normalize: every value is a list
            build = {
                kv: [v] if isinstance(v, int) else v for kv, v in build.items()
            }
        self._builds[cache_key] = (table, build, unique)
        return build, unique

    def hash_join(
        self,
        left: Table,
        right: Table,
        key: Sequence[str],
        want_reject_left: bool = False,
        want_reject_right: bool = False,
    ) -> tuple[Table, Table | None, Table | None]:
        """Equi-join on ``key``; row-identical to the reference kernel.

        The probe pass emits two selection vectors (left row index, right
        row index per output row); output columns are bulk-gathered.
        """
        key = tuple(key)
        build, unique = self._build_side(right, key)
        probe_keys = self._probe_keys(left, key)

        out_li: list[int] = []
        out_ri: list[int] = []
        matched_right: set[int] = set()
        reject_left_rows: list[int] = []
        track = want_reject_left or want_reject_right
        if unique and not track:
            # C-speed probe: one map() over the hash table, then two
            # comprehensions to split the hits into selection vectors
            ris = list(map(build.get, probe_keys))
            out_li = [li for li, ri in enumerate(ris) if ri is not None]
            out_ri = [ri for ri in ris if ri is not None]
        elif unique:
            for li, kv in enumerate(probe_keys):
                ri = build.get(kv)
                if ri is None:
                    if want_reject_left:
                        reject_left_rows.append(li)
                    continue
                out_li.append(li)
                out_ri.append(ri)
                if want_reject_right:
                    matched_right.add(ri)
        else:
            for li, kv in enumerate(probe_keys):
                matches = build.get(kv)
                if not matches:
                    if want_reject_left:
                        reject_left_rows.append(li)
                    continue
                if len(matches) == 1:
                    out_li.append(li)
                    out_ri.append(matches[0])
                else:
                    out_li.extend([li] * len(matches))
                    out_ri.extend(matches)
                if want_reject_right:
                    matched_right.update(matches)

        out_li = self._as_index(out_li)
        out_ri = self._as_index(out_ri)
        out_cols: dict = {
            a: self.gather(col, out_li) for a, col in left.columns.items()
        }
        for a in right.attrs:
            if a not in out_cols:
                out_cols[a] = self.gather(right.column(a), out_ri)
        result = Table.wrap(out_cols)

        reject_left = (
            self.take(left, reject_left_rows) if want_reject_left else None
        )
        reject_right = None
        if want_reject_right:
            unmatched = [
                i for i in range(right.num_rows) if i not in matched_right
            ]
            reject_right = self.take(right, unmatched)
        return result, reject_left, reject_right

    # -- blocking operators (not hot: reuse the reference kernels) -----
    group_by = staticmethod(group_by)
    apply_aggregate_udf = staticmethod(apply_aggregate_udf)


if _np is None:  # pragma: no cover - numpy ships with the toolchain
    # numpy-free fallback: identical semantics through list comprehensions
    class _ListKernels(VectorizedKernels):
        def _as_array(self, column):
            raise AssertionError("unreachable without numpy")

        def gather(self, column, sel):
            return [column[i] for i in sel]

    VectorizedKernels = _ListKernels  # type: ignore[misc]


class VectorizedBackend(ColumnarBackend):
    """The columnar block walk running on vectorized kernels."""

    name = "vectorized"

    def make_kernels(self) -> VectorizedKernels:
        return VectorizedKernels()
