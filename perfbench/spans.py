"""Spans recorded from outside the program, around the calls one module makes into another.

The tracer replaces module attributes (for example ``wssda.pipeline.within_subclass_scatter``)
with timing wrappers and puts the originals back afterwards, so nothing under ``src/``
changes.  Spans stay in memory until the run writes them out.  High-frequency leaves
(``pair_similarity`` is called once per verification pair) are aggregated into a count
and a total time per parent span instead of one span per call.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import wssda.cli
import wssda.pipeline

# (attribute, span name) for every cross-module call the tracer wraps.  The
# benchmark's own library calls go through the same names on its ``api`` object.
PIPELINE_CALLS = [
    ("within_subclass_scatter", "scatter.within_subclass"),
    ("class_means", "scatter.class_means"),
    ("total_subclass_scatter", "scatter.second_stage"),
    ("between_subclass_scatter", "scatter.second_stage"),
    ("eig_symmetric_full", "spectrum.eig"),
    ("find_pivot", "spectrum.model"),
    ("fit_model", "spectrum.model"),
    ("regularize", "spectrum.model"),
    ("short_tail_model", "spectrum.model"),
    ("flat_model", "spectrum.model"),
    ("truncated_weights", "spectrum.model"),
]
CLI_CALLS = [
    ("generate_synthetic", "dataset.generate"),
    ("load_csv", "dataset.load_csv"),
    ("save_csv", "dataset.save_csv"),
    ("partition_dataset", "partition.partition"),
    ("train_detailed", "pipeline.train"),
    ("save_model", "pipeline.save_model"),
    ("load_model", "pipeline.load_model"),
    ("identification_sweep", "evaluation.identify"),
    ("verification_roc", "evaluation.roc"),
    ("kfold_pairwise", "evaluation.roc"),
]
LEAF_CALLS = [("pair_similarity", "evaluation.pair_score")]


class Tracer:
    """In-memory span recorder.  ``op`` labels the operation the next spans belong to."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self.op = ""
        self.active = False

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                record["counts"].update(span_counts(name, args, out))
                return out

        return traced

    def wrap_leaf(self, fn, name: str):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            slot = self.leaves[(self.op, name, self._stack[-1] if self._stack else None)]
            slot[0] += 1
            slot[1] += time.perf_counter() - start
            return out

        return traced

    @contextmanager
    def installed(self, api):
        """Wrap the cross-module names of ``wssda.pipeline`` and ``wssda.cli`` and the
        benchmark's own ``api`` for the duration of the block."""
        saved = []

        def patch(owner, attr, wrapped):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

        for attr, name in PIPELINE_CALLS:
            patch(wssda.pipeline, attr, self.wrap(getattr(wssda.pipeline, attr), name))
        for owner in (wssda.cli, api):
            for attr, name in CLI_CALLS:
                if hasattr(owner, attr):
                    patch(owner, attr, self.wrap(getattr(owner, attr), name))
            for attr, name in LEAF_CALLS:
                patch(owner, attr, self.wrap_leaf(getattr(owner, attr), name))
        patch(api, "extract", self.wrap(api.extract, "pipeline.extract"))
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self) -> dict:
        leaves = [
            {"op": op, "name": name, "parent": parent, "calls": calls, "total_s": total}
            for (op, name, parent), (calls, total) in self.leaves.items()
        ]
        return {"spans": self.spans, "leaves": leaves}


def span_counts(name: str, args, out) -> dict:
    """Work counts recorded at a boundary, from the call's arguments and result.

    Flop counts are computed from shapes (2 * rows * dim^2 per scatter GEMM), not measured.
    """
    if name == "scatter.within_subclass":
        ds, part = args[0], args[1]
        groups = int(sum(len(g) for g in part.subclass_counts))
        return {"groups": groups, "flop": 2.0 * ds.n * ds.dim**2}
    if name == "scatter.second_stage":
        first = args[0]
        rows = first.shape[0] if hasattr(first, "shape") else sum(m.shape[0] for m in first)
        return {"flop": 2.0 * rows * out.matrix.shape[0] ** 2}
    if name == "spectrum.eig":
        return {"order": int(out.eigenvalues.shape[0])}
    if name == "partition.partition":
        return {
            "subclasses": int(sum(len(g) for g in out.subclass_counts)),
            "deficient": len(out.deficient_classes),
        }
    if name == "pipeline.train":
        _, details = out
        return {"rank": int(details.spectrum.rank), "pivot": int(details.model.pivot or 0)}
    if name == "evaluation.roc":
        thresholds = getattr(out, "thresholds", None)
        return {"pairs": len(args[0]), "thresholds": len(thresholds) if thresholds else 0}
    if name in ("dataset.load_csv", "pipeline.save_model", "pipeline.load_model"):
        path = args[-1] if name == "pipeline.save_model" else args[0]
        return {"bytes": os.path.getsize(path)}
    return {}


def self_times(spans: list[dict], leaves: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it covered by child spans and aggregated leaves."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    leaf_time: dict[int, float] = defaultdict(float)
    for leaf in leaves:
        if leaf["parent"] is not None:
            leaf_time[leaf["parent"]] += leaf["total_s"]
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = s["end"] - s["start"] - covered - leaf_time[s["id"]]
    return out
