"""Per-layer timings and counts, taken by wrapping sortnet's functions.

``Tracer.install`` replaces chosen functions of the ``sortnet`` modules
with wrappers, wherever a module holds them (``from .x import f`` copies
the name, so every module's copy is swapped).  Nothing in ``src/`` is
edited.  Times count the outermost call of a group only, so recursion is
not counted twice; ``_calls`` counters count every call.  A function the
program no longer has is skipped and its metric reads 0.

``cli.self_s`` is the time of ``main`` less the time of the timed calls
made directly inside it: argument parsing, file reading and writing, and
printing.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# name -> (unit, better), in report order.
METRICS = {
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.render_text_s": ("s", "lower"),
    "cli.render_svg_s": ("s", "lower"),
    "cli.parse_text_s": ("s", "lower"),
    "bitonic.bsort_s": ("s", "lower"),
    "bitonic.bfsort_s": ("s", "lower"),
    "knuth.knuth_exchange_s": ("s", "lower"),
    "batcher.batcher_s": ("s", "lower"),
    "bitonic.bfsort_calls": ("count", "lower"),
    "bitonic.half_cleaner_rec_calls": ("count", "lower"),
    "combinators.merge_s": ("s", "lower"),
    "combinators.cmerge_calls": ("count", "lower"),
    "combinators.ceomerge_calls": ("count", "lower"),
    "index.calls": ("count", "lower"),
    "core.connectors_built": ("count", "lower"),
    "core.link_entries_validated": ("count", "lower"),
    "core.from_pairs_s": ("s", "lower"),
    "core.apply_s": ("s", "lower"),
    "core.comparator_evals": ("count", "lower"),
    "verify.exhaustive_sorting_s": ("s", "lower"),
    "verify.exhaustive_counterexample_s": ("s", "lower"),
    "verify.exhaustive_peak_mb": ("MB", "lower"),
    "verify.oracle_s": ("s", "lower"),
    "verify.oracle_tuples": ("count", "higher"),
    "verify.network_stats_s": ("s", "lower"),
}

# (module, function, metric); the metric doubles as the outermost-call group.
_TIMED = [
    ("cli", "main", "cli.main_s"),
    ("cli", "render_text", "cli.render_text_s"),
    ("cli", "render_svg", "cli.render_svg_s"),
    ("cli", "parse_text", "cli.parse_text_s"),
    ("bitonic", "bsort", "bitonic.bsort_s"),
    ("bitonic", "bfsort", "bitonic.bfsort_s"),
    ("knuth", "knuth_exchange", "knuth.knuth_exchange_s"),
    ("batcher", "batcher", "batcher.batcher_s"),
    ("combinators", "nmerge", "combinators.merge_s"),
    ("combinators", "neomerge", "combinators.merge_s"),
    ("verify", "network_stats", "verify.network_stats_s"),
]
_COUNTED = [
    ("bitonic", "bfsort", "bitonic.bfsort_calls"),
    ("bitonic", "half_cleaner_rec", "bitonic.half_cleaner_rec_calls"),
    ("combinators", "cmerge", "combinators.cmerge_calls"),
    ("combinators", "ceomerge", "combinators.ceomerge_calls"),
]


class Tracer:
    """Accumulates per-layer metrics while installed; see the module doc."""

    def __init__(self):
        self.values = dict.fromkeys(METRICS, 0.0)
        self._active = set()  # groups with a call in progress
        self._children = []  # per open timed call: time of its timed callees
        self._comparators = {}  # id(network) -> (network, comparator count)
        self._undo = []

    def snapshot(self) -> dict:
        return dict(self.values)

    # wrapping ------------------------------------------------------------

    def install(self) -> None:
        import sortnet.cli  # noqa: F401  (loads every module)

        mods = {n[len("sortnet."):]: m for n, m in sys.modules.items() if n.startswith("sortnet.")}
        for module, name, metric in _COUNTED:
            if hasattr(mods[module], name):
                self._replace(mods, getattr(mods[module], name), self._counted(metric))
        for module, name, metric in _TIMED:
            if hasattr(mods[module], name):
                self._replace(mods, getattr(mods[module], name), self._timed(metric))
        index = mods["index"]
        for name, func in list(vars(index).items()):
            if callable(func) and getattr(func, "__module__", None) == index.__name__ \
                    and not name.startswith("_") and name != "pow2":
                self._replace(mods, func, self._counted("index.calls"))
        verify = mods["verify"]
        for name, make in (("check_sorting_exhaustive", self._exhaustive),
                           ("check_sorting_oracle", self._oracle)):
            if hasattr(verify, name):
                self._replace(mods, getattr(verify, name), make)
        connector, network = mods["core"].Connector, mods["core"].Network
        self._patch_class(connector, "__init__",
                          self._connector_init(connector.__dict__["__init__"]))
        if "from_pairs" in connector.__dict__:
            from_pairs = connector.__dict__["from_pairs"].__func__
            self._patch_class(connector, "from_pairs",
                              classmethod(self._timed("core.from_pairs_s")(from_pairs)))
        if "apply" in network.__dict__:
            self._patch_class(network, "apply", self._network_apply(network.apply))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _replace(self, mods, original, make_wrapper) -> None:
        wrapper = make_wrapper(original)
        for module in mods.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def _patch_class(self, cls, name, value) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    # wrappers -----------------------------------------------------------

    def _counted(self, metric):
        values = self.values

        def make(func):
            def counted(*args, **kwargs):
                values[metric] += 1
                return func(*args, **kwargs)

            return counted

        return make

    def _timed(self, metric, on_result=None):
        values, active, children = self.values, self._active, self._children
        clock = time.perf_counter

        def make(func):
            def timed(*args, **kwargs):
                if metric in active:
                    return func(*args, **kwargs)
                active.add(metric)
                children.append(0.0)
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    spent = clock() - start
                    inner = children.pop()
                    if children:
                        children[-1] += spent
                    active.discard(metric)
                    if on_result is None:
                        values[metric] += spent
                    if metric == "cli.main_s":
                        values["cli.self_s"] += spent - inner
                if on_result is not None:
                    on_result(result, spent)
                return result

            return timed

        return make

    def _exhaustive(self, func):
        values = self.values

        def record(report, spent):
            verdict = "sorting" if report.is_sorting else "counterexample"
            values[f"verify.exhaustive_{verdict}_s"] += spent

        timed = self._timed("verify.exhaustive", record)(func)

        def exhaustive(*args, **kwargs):
            tracemalloc.start()
            try:
                return timed(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                values["verify.exhaustive_peak_mb"] = max(values["verify.exhaustive_peak_mb"], peak)

        return exhaustive

    def _oracle(self, func):
        values = self.values

        def record(report, spent):
            values["verify.oracle_s"] += spent
            values["verify.oracle_tuples"] += report.inputs_checked

        return self._timed("verify.oracle", record)(func)

    def _connector_init(self, original):
        values = self.values

        def connector_init(self, width, *args, **kwargs):
            values["core.connectors_built"] += 1
            values["core.link_entries_validated"] += width
            original(self, width, *args, **kwargs)

        return connector_init

    def _network_apply(self, func):
        comparators = self._comparators
        values = self.values
        timed = self._timed("core.apply_s")(func)

        def apply(network, *args, **kwargs):
            entry = comparators.get(id(network))
            if entry is None or entry[0] is not network:
                entry = (network, sum(len(layer.pairs()) for layer in network.layers))
                comparators[id(network)] = entry
            values["core.comparator_evals"] += entry[1]
            return timed(network, *args, **kwargs)

        return apply

    def forget_networks(self) -> None:
        """Drop the per-network comparator counts kept between calls."""
        self._comparators.clear()
