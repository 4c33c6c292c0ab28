"""Per-layer tracing of isoperim from outside the package.

The tracer rebinds the public functions and methods of each module to timing
wrappers: in the defining module, in every isoperim module that imported the
name, and on the class for methods. ``run_op`` installs them for one plan
and restores the originals after it, so nothing outside a traced plan runs
wrapped.

The plan itself, every wrapped call and every ``next()`` on a wrapped
generator opens a frame on a stack. When the frame closes its time
goes to its parent as child time, and its self time (duration minus child
time) is added to an aggregate keyed by (op id, parent key, key). A call
whose parent has the same key is folded into the parent (for example
``shift_table`` calling ``add_perm``, or ``Shifter.apply`` falling back to
``translate_mask``), so one logical operation counts once. Hot kernels run
millions of times per plan and only aggregate; the calls named in
``SPAN_KEYS`` also keep one span each (id, name, start, end, parent id, op id),
held in memory and written out when the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from isoperim import boundary, compression, groups, harness, lattice, popular, prng

# (layer key, owner, attribute, tally): tally(tracer, *args, **kwargs) returns
# the units of work a call adds to the key's tally, or is None.
TARGETS = (
    ("groups.translate", groups.Shifter, "apply", lambda tracer, shifter, mask: len(shifter.perm)),
    ("groups.translate", groups, "translate_mask", lambda tracer, mask, perm: len(perm)),
    ("groups.span", groups, "span", None),
    ("groups.perm_build", groups.GroupSpec, "add_perm", None),
    ("groups.perm_build", groups.GroupSpec, "shift_table", None),
    ("groups.element", groups.GroupSpec, "element_at", None),
    ("groups.element", groups.GroupSpec, "index_of", None),
    ("boundary.verdict", boundary, "classify_log_lower_bound", None),
    ("boundary.verdict", boundary, "classify_small_exponent", None),
    ("boundary.verdict", boundary, "classify_independence_bound", None),
    ("boundary.verdict", boundary, "classify_subgroup_bound", None),
    ("compression.context", compression.CompressionContext, "__init__", None),
    ("compression.kernel", compression.CompressionContext, "compress_mask", None),
    ("compression.kernel", compression.CompressionContext, "is_compressed_mask", None),
    ("compression.kernel", compression.CompressionContext, "boundary_count_mask", None),
    ("lattice.weight", lattice, "weight_stats", None),
    ("lattice.projection", lattice, "projection_sizes", None),
    ("lattice.projection", lattice, "lw_plus_feasible", None),
    ("lattice.projection", lattice, "loomis_whitney_feasible", None),
    ("lattice.set_build", lattice.LatticeSet, "__init__", None),
    ("popular.spectrum", popular, "diff_spectrum", None),
    ("popular.threshold", popular.DiffSpectrum, "popular", None),
    # a repeat is an input mask already searched in the same op
    ("popular.dim", popular, "dim_independent", lambda tracer, P, cap=None: tracer.seen_dim_input(P.mask)),
    ("prng.draw", prng.SplitMix64, "below", None),
    ("prng.draw", prng.SplitMix64, "mask_bits", None),
    ("prng.draw", prng.SplitMix64, "nonempty_mask", None),
    ("harness.run", harness, "run_verify", None),
    ("harness.draw_gens", harness, "draw_generating_seq", None),
    ("harness.emit", harness, "emit_report", None),
)

# Generator functions: each next() is timed as one call. The tally of
# lattice.enumerate counts the downsets yielded.
GENERATORS = (
    ("harness.sweep", harness, "gray_subset_sweep"),
    ("lattice.enumerate", harness, "enumerate_downsets"),
)

SPAN_KEYS = frozenset(
    {"op", "harness.run", "harness.emit", "harness.draw_gens", "groups.span", "compression.context"}
)

# The lru_cache objects themselves, taken before any rebinding.
VERDICT_CACHES = tuple(
    getattr(boundary, name)
    for name in ("classify_log_lower_bound", "classify_small_exponent",
                 "classify_independence_bound", "classify_subgroup_bound")
)
ALL_VERDICT_CACHES = tuple(
    value
    for module in (boundary, popular)
    for name, value in vars(module).items()
    if name.startswith("classify_") and hasattr(value, "cache_clear")
)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "isoperim" or name.startswith("isoperim."))]


class Tracer:
    """Holds the patches, the frame stack, the aggregates and the spans of one run."""

    def __init__(self):
        self.op: int | None = None
        self.stack = [["", 0.0, None]]  # frames: [key, child seconds, span id or None]
        self.agg: dict[tuple, list] = {}  # (op, parent key, key) -> [calls, total s, self s, max s]
        self.spans: list = []
        self.tally: Counter = Counter()  # units of work per key
        self.track_cells = False
        self._seen_dim_inputs: set[int] = set()
        self._patches = []
        modules = _package_modules()
        for key, owner, attr, tally in TARGETS:
            self._patch(modules, owner, attr, lambda fn, key=key, tally=tally: self._timed(key, fn, tally))
        for key, owner, attr in GENERATORS:
            self._patch(modules, owner, attr, lambda fn, key=key: self._timed_gen(key, fn))

    # -- patching ---------------------------------------------------------------

    def _patch(self, modules, owner, attr, make) -> None:
        original = owner.__dict__[attr]
        wrapper = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original, wrapper))
            return
        holders = [m for m in modules if any(v is original for v in vars(m).values())]
        for module in holders:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original, wrapper))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def patched_names(self) -> list[str]:
        return sorted({f"{getattr(o, '__name__', o)}.{n}" for o, n, _, _ in self._patches})

    # -- frames -------------------------------------------------------------------

    def _timed(self, key, fn, tally=None):
        """``fn`` wrapped so that each call is one frame of ``key`` on the stack."""
        tracer, stack, agg, spans, tallies = self, self.stack, self.agg, self.spans, self.tally
        keep_span = key in SPAN_KEYS

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == key:
                return fn(*args, **kwargs)
            if tally is not None:
                tallies[key] += tally(tracer, *args, **kwargs)
            frame = [key, 0.0, None]
            if keep_span:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                k = (tracer.op, parent[0], key)
                a = agg.get(k)
                if a is None:
                    agg[k] = [1, dt, dt - frame[1], dt]
                else:
                    a[0] += 1
                    a[1] += dt
                    a[2] += dt - frame[1]
                    if dt > a[3]:
                        a[3] = dt
                if keep_span:
                    spans[frame[2]] = (frame[2], key, t0, t1, parent[2], tracer.op)

        return wrapper

    def _timed_gen(self, key, fn):
        """Generator function ``fn`` wrapped so that each ``next()`` is one frame of ``key``."""
        tracer, timed_next = self, self._timed(key, next)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            cells = set() if key == "harness.sweep" and tracer.track_cells else None
            while True:
                try:
                    item = timed_next(it)
                except StopIteration:
                    break
                tracer.tally[key] += 1
                if cells is not None:
                    cells.add((item[1], item[2]))
                yield item
            if cells is not None:
                tracer.tally["boundary.cells_reached"] += len(cells)

        return wrapper

    def seen_dim_input(self, mask: int) -> int:
        seen = mask in self._seen_dim_inputs
        self._seen_dim_inputs.add(mask)
        return int(seen)

    # -- one plan -------------------------------------------------------------------

    def run_op(self, op_id: int, track_cells: bool, op):
        """Call ``op()`` as op ``op_id``, one frame, with every target rebound; returns its result."""
        self.op = op_id
        self.track_cells = track_cells
        self._seen_dim_inputs = set()
        self.install()
        try:
            return self._timed("op", op)()
        finally:
            self.restore()
            self.op = None

    def op_calls(self, op_id: int, key: str, parent: str | None = None) -> int:
        """Calls of ``key`` within one op, optionally only those made from ``parent``."""
        return sum(a[0] for (op, p, k), a in self.agg.items()
                   if op == op_id and k == key and parent in (None, p))


def verdict_cache_counts() -> tuple[int, int]:
    """(hits, misses) summed over the boundary verdict caches."""
    hits = misses = 0
    for cached in VERDICT_CACHES:
        info = cached.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def clear_verdict_caches() -> None:
    """Empty every classify_* cache, so each plan starts as cold as a fresh process."""
    for cached in ALL_VERDICT_CACHES:
        cached.cache_clear()

