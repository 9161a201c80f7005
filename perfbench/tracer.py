"""Per-layer spans around bmx's entry points, patched in from outside.

Every layer boundary becomes a span (layer, parent span, request id,
start, end), held in memory.  A layer's self time is its spans' duration
minus the duration of their direct children.  Nothing inside bmx changes:
``install`` swaps each entry point for a wrapper wherever a bmx module
holds it, which covers both ``kernels.X`` lookups at call time and names
bound by ``from ... import``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

# Layers reported as per-layer metrics, as "<layer>_ms" (self time) plus a
# call count, unless the layer names its own counts below.
TIMED_LAYERS = (
    "matroid.parse", "matroid.chi",
    "morphism.canonical_key", "morphism.contains", "morphism.count_restrictions",
    "kernels.canon_mask", "kernels.find_embedding",
    "kernels.all_embedding_images", "kernels.cover_exists",
    "extremal.family_dedup", "extremal.copy_index", "extremal.search",
    "extremal.decompose",
    "catalog.lookup", "catalog.put", "catalog.verify_all",
)
# layers whose work a count other than calls describes
NAMED_COUNTS = {
    "kernels.all_embedding_images": "kernels.all_embedding_images_images",
    "extremal.copy_index": "extremal.copies",
    "extremal.search": "extremal.search_nodes",
    "catalog.lookup": "catalog.misses",
    "catalog.put": "catalog.puts",
    "catalog.verify_all": "catalog.quarantined",
}
# counters that are pure functions of the inputs: equal on every pass
EXACT = ("extremal.search_nodes", "extremal.copies",
         "kernels.all_embedding_images_images", "kernels.canon_mask_calls")


def _count_images(counts: Counter, result) -> None:
    counts["kernels.all_embedding_images_images"] += len(result)


def _count_copies(counts: Counter, result) -> None:
    counts["extremal.copies"] += len(result)


def _count_nodes(counts: Counter, cert) -> None:
    # nodes of a search stopped by its budget depend on machine speed
    counts["extremal.all_nodes"] += cert.nodes
    if cert.certified:
        counts["extremal.search_nodes"] += cert.nodes


def _count_lookup(counts: Counter, entry) -> None:
    counts["catalog.hits" if entry is not None else "catalog.misses"] += 1


def _count_put(counts: Counter, _key) -> None:
    counts["catalog.puts"] += 1


def _count_quarantine(counts: Counter, _result) -> None:
    counts["catalog.quarantined"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, parent index, request, t0, t1]
        self.counts: Counter = Counter()
        self.request = ""  # set by the client before each request
        self._first = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, stack[-1] if stack else -1, self.request,
                   time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every layer entry point; bmx.cli must already be imported."""
        from bmx import catalog, cli, extremal, graphs, kernels, matroid, morphism

        functions = [
            ("cli", cli.run, None),
            ("matroid.parse", matroid.from_bm1, None),
            ("matroid.parse", matroid.from_compact, None),
            ("matroid.chi", matroid.chi, None),
            ("morphism.canonical_key", morphism.canonical_key, None),
            ("morphism.contains", morphism.contains, None),
            ("morphism.count_restrictions", morphism.count_restrictions, None),
            ("kernels.canon_mask", kernels.canon_mask, None),
            ("kernels.find_embedding", kernels.find_embedding, None),
            ("kernels.all_embedding_images", kernels.all_embedding_images,
             _count_images),
            ("kernels.cover_exists", kernels.cover_exists, None),
            ("extremal.copy_index", extremal._all_copies, _count_copies),
            ("extremal.search", extremal.ex_search, _count_nodes),
            ("extremal.decompose", extremal.decomposition_family, None),
            # not reported; wrapped so that cli.self_ms is the CLI's own work
            ("extremal.nearest_bb", extremal.nearest_bose_burton, None),
            ("graphs", graphs.chromatic_number, None),
            ("graphs", graphs.parse_graph6, None),
            ("graphs", graphs.parse_edgelist, None),
        ]
        modules = [m for name, m in sys.modules.items()
                   if name == "bmx" or name.startswith("bmx.")]
        for layer, fn, count in functions:
            traced = self._wrap(layer, fn, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, traced)

        Family = extremal.Family
        self._patch(Family, "from_matroids", staticmethod(
            self._wrap("extremal.family_dedup", Family.from_matroids)))
        Catalog = catalog.Catalog
        for layer, attr, count in (
            ("catalog.lookup", "lookup", _count_lookup),
            ("catalog.put", "put", _count_put),
            ("catalog.verify_all", "verify_all", None),
            ("catalog.quarantine", "_quarantine", _count_quarantine),
        ):
            self._patch(Catalog, attr,
                        self._wrap(layer, getattr(Catalog, attr), count))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_pass(self) -> None:
        self._first = len(self.spans)
        self.counts = Counter()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since start_pass."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for layer, parent, _req, t0, t1 in self.spans[self._first:]:
            self_s[layer] += t1 - t0
            calls[layer] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= t1 - t0
        counts = self.counts
        out = {"cli.self_ms": self_s["cli"] * 1e3, "cli.calls": calls["cli"]}
        for layer in TIMED_LAYERS:
            out[f"{layer}_ms"] = self_s[layer] * 1e3
            count = NAMED_COUNTS.get(layer)
            if count is None:
                out[f"{layer}_calls"] = calls[layer]
            else:
                out[count] = counts[count]
        out["catalog.hits"] = counts["catalog.hits"]
        search_s = self_s["extremal.search"]
        out["extremal.nodes_per_s"] = (
            counts["extremal.all_nodes"] / search_s if search_s > 0 else 0.0)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for layer, parent, req, t0, t1 in self.spans:
                fh.write(json.dumps({"layer": layer, "parent": parent,
                                     "request": req, "start": t0,
                                     "end": t1}) + "\n")
