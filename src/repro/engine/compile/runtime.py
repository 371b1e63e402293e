"""Batched execution of compiled block programs.

One :class:`CompiledBlockRunner` executes one lowered block over column
*batches* -- a ``(columns dict, row count)`` pair.  The whole-column
profile (columnar) runs a single batch per input; the chunked profile
(streaming) slices inputs into row chunks, so joins probe and
instrumentation accumulates incrementally, a few thousand rows at a time.

Equivalence with the columnar interpreter (the ``"oracle"`` backend) is
the contract here:

- every plan point the interpreter notes is recorded with the same row
  count, and every tap sees the same rows (the
  :class:`ObservationBuffer` speaks the taps' column-batch protocol:
  accumulate for additive/streaming taps, replace for table-level taps);
- raw feed points are claim-guarded under additive taps, so a shared
  source counts once per run;
- sizes flush at block end and additive points are only marked streamed
  then, so a failed block's statistics read as *missing*, not zeros
  (faults fire at attempt start, before any accumulation);
- reject links carry the same rows.

The speed comes from never interpreting the plan per row: fused filter
runs compose selection vectors and materialize survivors once, joins
probe with the build dict directly and -- when every probe hits a unique
build row -- pass the probe side's columns through untouched, gathering
only the built side's.

Which side is built is decided per join at run time.  Whole-batch
profiles hash-build the input with fewer rows and probe the other (ties
build the right) -- the "build the smaller side, probe the larger" hash
join that :mod:`repro.estimation.physical` prices -- because the join
order optimizer costs both orientations alike and so leaves it to the
engine.  Output attributes stay left-then-right-extras (the left copy of
a shared attribute wins); only row order changes, following the probe
side.  The chunked profile streams its left input, so it always builds
the right.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.algebra.blocks import Block
from repro.algebra.expressions import AnySE, RejectSE
from repro.engine.table import Table, TableError

from repro.engine.compile.ir import (
    BlockProgram,
    ChainIR,
    CompiledProfile,
    FusedStep,
    JoinIR,
    PlanIR,
)

_MISSING = object()

Batch = "tuple[dict[str, list], int]"


def _col(cols: dict, attr: str):
    try:
        return cols[attr]
    except KeyError:
        raise TableError(
            f"no column {attr!r}; available: {tuple(cols)}"
        ) from None


def _concat(parts: "list[Batch]") -> "Batch":
    """Concatenate batches; a single batch passes through untouched.

    Gathered columns may be object ndarrays: ``tolist`` converts one in
    C, where ``list(col)`` would box every element through numpy.
    """
    if len(parts) == 1:
        return parts[0]
    first = parts[0][0]
    out: dict[str, list] = {a: [] for a in first}
    n = 0
    for cols, cn in parts:
        n += cn
        for a, acc in out.items():
            col = cols[a]
            acc.extend(col if isinstance(col, list) else col.tolist())
    return out, n


def _keys_of(cols: dict, key: tuple, engine) -> list:
    """Join-key probe values: raw values for single keys, tuples else."""
    if len(key) == 1:
        return engine.aslist(_col(cols, key[0]))
    return list(zip(*(engine.aslist(_col(cols, a)) for a in key)))


def _build_side(cols: dict, key: tuple, engine) -> tuple[dict, bool]:
    """Hash-build one side; detects unique keys for the fast probe path.

    Stored values are row indexes (unique) or index lists (duplicates);
    never ``None``, so ``build.get`` doubles as the miss test.
    """
    build: dict = {}
    unique = True
    for idx, kv in enumerate(_keys_of(cols, key, engine)):
        cur = build.get(kv)
        if cur is None and kv not in build:
            build[kv] = idx
        elif isinstance(cur, list):
            cur.append(idx)
            unique = False
        else:
            build[kv] = [cur, idx]
            unique = False
    if not unique:
        for kv, cur in build.items():
            if not isinstance(cur, list):
                build[kv] = [cur]
    return build, unique


class ObservationBuffer:
    """Batched plan-point observation with interpreter-equal semantics."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.taps = ctx.taps
        self.additive = bool(getattr(ctx.taps, "additive", False))
        self.counts: dict[AnySE, int] = {}
        self._attr_cache: dict[AnySE, tuple] = {}
        #: non-additive (replace) taps buffer value-column batches until
        #: flush, uncopied; a point fed several batches concatenates once
        self._pending: dict[AnySE, list["Batch"]] = {}
        self._rejects: list[RejectSE] = []
        tracer = ctx.tracer
        self.tracing = tracer is not None and tracer.enabled
        #: join SE -> which input was hash-built and its rows (traced
        #: runs only; published on the join's operator point at flush)
        self.builds: dict[AnySE, dict] = {}

    def value_attrs(self, se: AnySE) -> tuple:
        got = self._attr_cache.get(se, _MISSING)
        if got is _MISSING:
            got = self.taps.value_attrs(se) if self.taps.wants(se) else ()
            self._attr_cache[se] = got
        return got

    def claim(self, se: AnySE) -> bool:
        """Claim a shared raw point (additive taps only, like streaming)."""
        if not self.additive:
            return True
        ctx = self.ctx
        with ctx.lock:
            claimed = ctx.state.setdefault("claimed_points", set())
            if se in claimed:
                return False
            claimed.add(se)
            return True

    # ------------------------------------------------------------------
    def record(self, se: AnySE, n: int, columns: Optional[dict]) -> None:
        self.counts[se] = self.counts.get(se, 0) + n
        if not self.taps.wants(se):
            return
        if self.additive:
            self.taps.observe_columns(se, n, columns)
        elif columns:
            self._pending.setdefault(se, []).append((columns, n))

    def add(self, se: AnySE, n: int, cols: dict) -> None:
        attrs = self.value_attrs(se)
        columns = (
            {a: cols[a] for a in attrs if a in cols} if attrs else None
        )
        self.record(se, n, columns)

    def add_selected(self, se: AnySE, n: int, base: dict, sel, engine) -> None:
        """Observe a mid-filter-run point without materializing it: value
        columns (if any are tapped) gather through the selection vector."""
        attrs = self.value_attrs(se)
        columns = None
        if attrs:
            if sel is None:
                columns = {a: base[a] for a in attrs if a in base}
            else:
                idx = engine.index(sel)
                columns = {
                    a: engine.gather(base[a], idx)
                    for a in attrs
                    if a in base
                }
        self.record(se, n, columns)

    def add_reject(self, rej: RejectSE, cols: dict) -> None:
        table = Table.wrap(
            {
                a: (c if isinstance(c, list) else list(c))
                for a, c in cols.items()
            }
        )
        ctx = self.ctx
        with ctx.lock:
            ctx.run.rejects[rej] = table
            ctx.run.se_sizes[rej] = table.num_rows
        if self.taps.wants(rej):
            self.taps.observe_columns(rej, table.num_rows, table.columns)
        self._rejects.append(rej)
        if self.tracing:
            ctx.trace_point(rej, table.num_rows, reject=True)

    def flush(self) -> None:
        """Publish sizes (and buffered replace-mode taps) at block end."""
        ctx = self.ctx
        with ctx.lock:
            ctx.run.se_sizes.update(self.counts)
        if self.additive:
            for se in self.counts:
                self.taps.mark_streamed(se)
            for rej in self._rejects:
                self.taps.mark_streamed(rej)
        else:
            for se, n in self.counts.items():
                if self.taps.wants(se):
                    batches = self._pending.get(se)
                    columns = _concat(batches)[0] if batches else None
                    self.taps.observe_columns(se, n, columns)
        if self.tracing:
            for se, n in self.counts.items():
                ctx.trace_point(se, n, **self.builds.get(se, {}))


class CompiledBlockRunner:
    """Executes one compiled block program inside a run context."""

    def __init__(
        self,
        program: BlockProgram,
        block: Block,
        profile: CompiledProfile,
        engine,
    ):
        self.program = program
        self.block = block
        self.profile = profile
        self.engine = engine

    # ------------------------------------------------------------------
    def execute(self, ctx) -> Table:
        program = self.program
        obs = ObservationBuffer(ctx)
        wanted = ctx.taps.reject_requests() | set(
            self.block.materialized_rejects
        )
        parts: list = []
        for cols, n in self._exec(program.root, ctx, obs, wanted):
            cols, n = self._segment(cols, n, program.post, obs)
            parts.append((cols, n))
        out_cols, _ = _concat(parts)
        table = Table.wrap(dict(out_cols))
        obs.flush()
        return table

    # ------------------------------------------------------------------
    def _exec(
        self, node: PlanIR, ctx, obs: ObservationBuffer, wanted: set
    ) -> Iterator["Batch"]:
        if isinstance(node, ChainIR):
            return self._chain(node, ctx, obs)
        return self._join(node, ctx, obs, wanted)

    def _chain(
        self, chain: ChainIR, ctx, obs: ObservationBuffer
    ) -> Iterator["Batch"]:
        table = ctx.run.env[chain.base_name]
        cols = table.columns
        n = table.num_rows
        count_raw = obs.claim(chain.raw_se)
        chunk = self.profile.chunk_rows
        if chunk is None or n <= chunk:
            spans = ((0, n),)
        else:
            spans = tuple(
                (lo, min(lo + chunk, n)) for lo in range(0, n, chunk)
            )
        for lo, hi in spans:
            if lo == 0 and hi == n:
                batch = dict(cols)
            else:
                batch = {a: col[lo:hi] for a, col in cols.items()}
            if count_raw:
                obs.add(chain.raw_se, hi - lo, batch)
            yield self._segment(batch, hi - lo, chain.steps, obs)

    # ------------------------------------------------------------------
    def _segment(
        self,
        cols: dict,
        n: int,
        steps: tuple[FusedStep, ...],
        obs: ObservationBuffer,
    ) -> "Batch":
        """Run one fused segment over a batch.

        Consecutive filters form a *run*: selection vectors compose and
        only the predicate columns are touched until the run ends, at
        which point every surviving column materializes in one gather.
        """
        engine = self.engine
        i = 0
        total = len(steps)
        while i < total:
            step = steps[i]
            if step.kind == "filter":
                base = cols
                sel = None
                while i < total and steps[i].kind == "filter":
                    st = steps[i]
                    fn = st.fn
                    col = _col(base, st.attrs[0])
                    if sel is None:
                        values = engine.aslist(col)
                    else:
                        values = engine.aslist(
                            engine.gather(col, engine.index(sel))
                        )
                    keep = [j for j, v in enumerate(values) if fn(v)]
                    if len(keep) != n:
                        sel = (
                            keep
                            if sel is None
                            else engine.compose(sel, keep)
                        )
                        n = len(keep)
                    if st.se is not None:
                        obs.add_selected(st.se, n, base, sel, engine)
                    i += 1
                if sel is not None:
                    idx = engine.index(sel)
                    cols = {
                        a: engine.gather(c, idx) for a, c in base.items()
                    }
                else:
                    cols = base
                continue
            if step.kind == "transform":
                if len(step.attrs) == 1:
                    src = engine.aslist(_col(cols, step.attrs[0]))
                    fn = step.fn
                    values = [fn(v) for v in src]
                else:
                    srcs = [
                        engine.aslist(_col(cols, a)) for a in step.attrs
                    ]
                    fn = step.fn
                    values = [fn(vals) for vals in zip(*srcs)]
                cols = dict(cols)
                cols[step.out_attr] = values
            else:  # project
                cols = {a: _col(cols, a) for a in step.attrs}
            if step.se is not None:
                obs.add(step.se, n, cols)
            i += 1
        return cols, n

    # ------------------------------------------------------------------
    def _join(
        self, jir: JoinIR, ctx, obs: ObservationBuffer, wanted: set
    ) -> Iterator["Batch"]:
        engine = self.engine
        rcols, rn = _concat(list(self._exec(jir.right, ctx, obs, wanted)))
        want_l = jir.rej_left in wanted
        want_r = jir.rej_right in wanted
        lbatches = self._exec(jir.left, ctx, obs, wanted)
        flipped = False
        if self.profile.chunk_rows is None:
            # whole batches: hash-build the smaller input, probe the
            # larger (ties build the right, like the chunked profile,
            # whose left side streams and so is never built)
            lcols, ln = _concat(list(lbatches))
            lbatches = ((lcols, ln),)
            flipped = ln < rn
        if flipped:
            bcols, bn, want_b, want_p = lcols, ln, want_l, want_r
            probes = ((rcols, rn),)
        else:
            bcols, bn, want_b, want_p = rcols, rn, want_r, want_l
            probes = lbatches
        build, unique = _build_side(bcols, jir.key, engine)
        if obs.tracing:
            obs.builds[jir.se] = {
                "build": "left" if flipped else "right",
                "build_rows": bn,
            }

        matched: set[int] = set()
        miss_parts: list = []
        probe_attrs: Optional[tuple] = None
        for pcols, pn in probes:
            if probe_attrs is None:
                probe_attrs = tuple(pcols)
            pi, bi, miss = self._probe(
                _keys_of(pcols, jir.key, engine),
                build,
                unique,
                want_p,
                want_b,
                matched,
            )
            if flipped:
                out = self._gather_pair(bcols, pcols, bi, pi)
            else:
                out = self._gather_pair(pcols, bcols, pi, bi)
            on = pn if pi is None else len(pi)
            if miss:
                miss_parts.append((self._take(pcols, miss), len(miss)))
            out, on = self._segment(out, on, jir.floating, obs)
            obs.add(jir.se, on, out)
            yield out, on

        # each side's reject table is exactly that side's unmatched rows
        probe_rej = build_rej = None
        if want_p:
            if miss_parts:
                probe_rej, _ = _concat(miss_parts)
            else:
                probe_rej = {a: [] for a in (probe_attrs or ())}
        if want_b:
            build_rej = self._take(
                bcols, [i for i in range(bn) if i not in matched]
            )
        sides = (build_rej, probe_rej) if flipped else (probe_rej, build_rej)
        for rej, cols in zip((jir.rej_left, jir.rej_right), sides):
            if cols is not None:
                obs.add_reject(rej, cols)

    def _probe(self, keys, build, unique, want_p, want_b, matched):
        """Probe the build dict with one batch's join keys.

        Returns ``(probe indexes, build indexes, probe misses)``.  Probe
        indexes are ``None`` when every probe row hit exactly one build
        row in order, so the probe side can pass through ungathered.
        Misses are only collected when ``want_p``; hit build rows are
        added to ``matched`` only when ``want_b``.
        """
        engine = self.engine
        if unique and not (want_p or want_b):
            bis = list(map(build.get, keys))
            if None not in bis:
                return None, bis, ()
            pi, bi = engine.split_hits(bis)
            return pi, bi, ()
        pi: list[int] = []
        bi: list[int] = []
        miss: list[int] = []
        for i, kv in enumerate(keys):
            hit = build.get(kv)
            if hit is None:
                if want_p:
                    miss.append(i)
                continue
            if unique:
                pi.append(i)
                bi.append(hit)
                if want_b:
                    matched.add(hit)
            else:
                pi.extend([i] * len(hit))
                bi.extend(hit)
                if want_b:
                    matched.update(hit)
        return pi, bi, miss

    def _take(self, cols: dict, idx) -> dict:
        engine = self.engine
        idx = engine.index(idx)
        return {a: engine.gather(c, idx) for a, c in cols.items()}

    def _gather_pair(self, lcols: dict, rcols: dict, li, ri) -> dict:
        """Join output: left attrs, then right extras (the left copy of a
        shared attr wins); a ``None`` index passes its side through."""
        out = dict(lcols) if li is None else self._take(lcols, li)
        engine = self.engine
        if ri is not None:
            ri = engine.index(ri)
        for a, col in rcols.items():
            if a not in out:
                out[a] = col if ri is None else engine.gather(col, ri)
        return out


def execute_compiled_block(program, block, profile, engine, ctx) -> Table:
    """Convenience one-shot entry point (tests, ad-hoc callers)."""
    return CompiledBlockRunner(program, block, profile, engine).execute(ctx)


__all__ = [
    "CompiledBlockRunner",
    "ObservationBuffer",
    "execute_compiled_block",
]
