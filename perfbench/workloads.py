"""The benchmark's workloads: their shapes, their inputs, and one pass over each.

A pass is three timed phases (train, identify, verify) followed by untimed checks of
everything the phases produced.  ``small-sample`` and ``paper-like`` drive the library;
``cli-verify`` drives ``wssda.cli.main`` in-process on CSV files, the path users take.
Inputs come from ``generate_synthetic``: each subclass draws training rows plus held-out
rows, split by position.  On the library workloads the training rows form the gallery
and the held-out rows the probes; ``wssda eval-id`` rotates gallery and probes within
the held-out rows.  The verification pairs are pairs of held-out rows.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

import checks
import wssda.cli
from wssda import (
    LabeledDataset,
    SplitSpec,
    SynthSpec,
    TrainConfig,
    TreeParams,
    generate_synthetic,
    identification_sweep,
    pair_similarity,
    partition_dataset,
    save_csv,
    subset,
    train_detailed,
    verification_roc,
)


@dataclass(frozen=True)
class Shape:
    classes: int
    subclasses: int
    train_rows: int  # per subclass
    heldout_rows: int  # per subclass
    dim: int
    strategy: str
    h: int
    d: int
    pairs: int
    cli: bool
    # independent draws of the inputs; passes cycle through them, and id_error and eer
    # are their mean, which varies less from seed to seed than one draw's
    draws: int = 1
    # class centers this close make id_error and eer clearly non-zero; at the
    # generator's default of 6.0 both are exactly 0 at every shape here
    class_spread: float = 0.25

    def reduced(self) -> "Shape":
        """A tenth of the classes at an eighth of the dimension: a warm-up pass runs
        every code path, lazy imports and BLAS thread start-up included, in well under
        a second."""
        return replace(
            self,
            classes=max(4, self.classes // 10),
            dim=max(self.d, self.dim // 8),
            pairs=max(200, self.pairs // 100),
            draws=1,
        )

    def sweep(self) -> list[int]:
        return sorted({2**k for k in range(self.d.bit_length()) if 2**k <= self.d} | {self.d})


# Held-out rows exceed the training rows so that id_error and eer, which vary with
# the drawn data, stay within a few percent from seed to seed.
WORKLOADS = {
    "small-sample": Shape(60, 2, 2, 20, 2048, "kd", 2, 64, 10000, cli=False, draws=2, class_spread=0.22),
    "paper-like": Shape(200, 2, 5, 10, 1024, "kmeans", 2, 128, 10000, cli=False, draws=3),
    "cli-verify": Shape(100, 2, 5, 8, 256, "pca", 2, 64, 60000, cli=True, class_spread=0.4),
}


def _extract(fx, x):
    return fx.extract(x)


def make_api() -> SimpleNamespace:
    """The library calls the benchmark makes; tracing swaps in wrapped versions."""
    return SimpleNamespace(
        generate_synthetic=generate_synthetic,
        save_csv=save_csv,
        partition_dataset=partition_dataset,
        train_detailed=train_detailed,
        identification_sweep=identification_sweep,
        pair_similarity=pair_similarity,
        verification_roc=verification_roc,
        extract=_extract,
    )


def make_pairs(labels: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 3) rows of (a, b, same): half same-class pairs, or every same-class pair
    when there are fewer than that, and distinct cross-class pairs for the rest."""
    same = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        i, j = np.triu_indices(idx.size, k=1)
        same.append(np.stack([idx[i], idx[j]], axis=1))
    same = np.concatenate(same)
    n = labels.size
    n_same = min(count // 2, same.shape[0])
    if count - n_same > n * (n - 1) // 2 - same.shape[0]:
        raise ValueError(f"{count} pairs need more cross-class pairs than {n} rows have")
    same = same[np.sort(rng.choice(same.shape[0], n_same, replace=False))]
    keys = np.empty(0, dtype=np.int64)
    while keys.size < count - n_same:
        a, b = rng.integers(0, n, size=(2, 2 * count))
        a, b = np.minimum(a, b), np.maximum(a, b)
        fresh = a * n + b
        fresh = fresh[labels[a] != labels[b]]
        keys = np.concatenate([keys, fresh[~np.isin(fresh, keys)]])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[: count - n_same]
    diff = np.stack([keys // n, keys % n], axis=1)
    rows = np.concatenate(
        [np.column_stack([same, np.ones(n_same, np.int64)]), np.column_stack([diff, np.zeros(len(diff), np.int64)])]
    )
    return rows[rng.permutation(rows.shape[0])]


class Draw:
    """One draw of a workload's inputs: training rows, held-out rows and pairs."""

    def __init__(self, shape: Shape, seed: int, index: int, workdir: str, api):
        rows = shape.train_rows + shape.heldout_rows
        spec = SynthSpec(
            shape.classes,
            shape.subclasses,
            rows,
            shape.dim,
            # one noise scale for every subclass (the generator draws them from
            # (0.5, 1.5)): with unequal scales id_error moved by about 15% from seed to seed
            scale_range=(1.0, 1.0),
            class_center_spread=shape.class_spread,
            seed=int(np.random.SeedSequence([seed, index]).generate_state(1)[0]),
        )
        full = api.generate_synthetic(spec)
        position = np.tile(np.arange(rows), shape.classes * shape.subclasses)
        self.index = index
        self.train = subset(full, np.flatnonzero(position < shape.train_rows))
        self.heldout = subset(full, np.flatnonzero(position >= shape.train_rows))
        rng = np.random.default_rng(np.random.SeedSequence([seed, index, 1]))
        self.pairs = make_pairs(self.heldout.class_labels, shape.pairs, rng)
        self.results: dict = {}
        if shape.cli:
            self.dir = os.path.join(workdir, f"draw{index}")
            os.makedirs(os.path.join(self.dir, "out"), exist_ok=True)
            for name, ds in (("train.csv", self.train), ("heldout.csv", self.heldout)):
                # without subclass labels: the CLI reads a class column, then values
                api.save_csv(LabeledDataset(ds.samples, ds.class_labels), self.path(name))
            labels = np.where(self.pairs[:, 2] == 1, "same", "diff")
            with open(self.path("pairs.csv"), "w") as fh:
                fh.writelines(f"{a},{b},{lab}\n" for (a, b, _), lab in zip(self.pairs, labels))
        else:
            self.gallery_probe = LabeledDataset(
                np.vstack([self.train.samples, self.heldout.samples]),
                np.concatenate([self.train.class_labels, self.heldout.class_labels]),
            )
            n = self.train.n
            self.split = SplitSpec(gallery=np.arange(n), probe=np.arange(n, self.gallery_probe.n))

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def read(self, name: str) -> bytes:
        with open(self.path(os.path.join("out", name)), "rb") as fh:
            return fh.read()


class Workload:
    """One workload instance: its draws of inputs and the phases of a pass over one."""

    def __init__(self, shape: Shape, seed: int, workdir: str, api, tracer=None):
        self.shape, self.seed, self.workdir, self.api, self.tracer = shape, seed, workdir, api, tracer
        self.identical = checks.Identical()

    def prepare(self) -> None:
        """Make every draw from the seed; for the CLI workload, write them to files."""
        self.draws = [Draw(self.shape, self.seed, k, self.workdir, self.api) for k in range(self.shape.draws)]
        self.draw = self.draws[0]

    def phases(self):
        if self.shape.cli:
            return [("train", self.cli_train), ("identify", self.cli_identify), ("verify", self.cli_verify)]
        return [("train", self.lib_train), ("identify", self.lib_identify), ("verify", self.lib_verify)]

    # ------------------------------------------------------------ library phases

    def lib_train(self) -> None:
        s, draw = self.shape, self.draw
        part = self.api.partition_dataset(draw.train, TreeParams(h=s.h, seed=self.seed), s.strategy)
        fx, details = self.api.train_detailed(draw.train, part, TrainConfig(d=s.d))
        draw.results.update(part=part, fx=fx, spectrum=(details.spectrum.eigenvalues, details.model.weights))

    def lib_identify(self) -> None:
        draw = self.draw
        fx = draw.results["fx"]
        report = self.api.identification_sweep(lambda _: fx, draw.gallery_probe, [draw.split], self.shape.sweep())
        draw.results["id_curve"] = report.curve

    def lib_verify(self) -> None:
        draw = self.draw
        feats = self.api.extract(draw.results["fx"], draw.heldout.samples)
        score = self.api.pair_similarity
        scored = [(score(feats[a], feats[b]), bool(same)) for a, b, same in draw.pairs]
        roc = self.api.verification_roc(scored)
        draw.results.update(roc_points=roc.points, eer=roc.eer)

    # ------------------------------------------------------------ CLI phases

    def _cli(self, span_name: str, argv: list[str], outputs: list[str]) -> None:
        out_dir = self.draw.path("out")
        argv = argv + ["--out-dir", out_dir]
        tracing = self.tracer is not None and self.tracer.active
        span = self.tracer.span(span_name) if tracing else contextlib.nullcontext()
        with span as record, contextlib.redirect_stdout(io.StringIO()):
            code = wssda.cli.main(argv)
            if record is not None:
                record["counts"]["bytes_written"] = sum(
                    os.path.getsize(os.path.join(out_dir, name)) for name in outputs
                )
        if code != 0:
            raise RuntimeError(f"wssda {argv[0]} exited with code {code}")

    def cli_train(self) -> None:
        s, draw = self.shape, self.draw
        argv = ["train", "--csv", draw.path("train.csv"), "--strategy", s.strategy, "--h", str(s.h)]
        argv += ["--d", str(s.d), "--seed", str(self.seed)]
        self._cli("cli.train", argv, ["model.wssda", "partition.csv", "spectrum.csv"])

    def cli_identify(self) -> None:
        draw = self.draw
        argv = ["eval-id", "--csv", draw.path("heldout.csv"), "--model", draw.path("out/model.wssda")]
        argv += ["--rotations", "3", "--d-sweep", ",".join(map(str, self.shape.sweep()))]
        self._cli("cli.eval_id", argv, ["identification.csv"])

    def cli_verify(self) -> None:
        draw = self.draw
        argv = ["eval-verify", "--csv", draw.path("heldout.csv"), "--model", draw.path("out/model.wssda")]
        argv += ["--pairs", draw.path("pairs.csv"), "--folds", "1"]
        self._cli("cli.eval_verify", argv, ["roc.csv", "eer.csv"])

    # ------------------------------------------------------------ checks

    def check(self) -> dict[str, list[str]]:
        """Problems found in the last pass's outputs, keyed by the phase that made them.

        Also sets ``id_error`` and ``eer`` in the current draw's results."""
        return self._check_cli() if self.shape.cli else self._check_lib()

    def _same(self, name: str, data: bytes) -> list[str]:
        """Outputs made again from the same draw must not change by a byte."""
        return self.identical.check(f"draw {self.draw.index} {name}", data)

    def _check_training(self, projection: np.ndarray, subclasses: np.ndarray, spectrum) -> list[str]:
        feats = self.draw.train.samples @ projection
        labels = self.draw.train.class_labels
        return checks.check_discriminant_diagonal(feats, labels) + checks.check_whitened(
            feats, labels, subclasses, *spectrum
        )

    def _check_lib(self) -> dict[str, list[str]]:
        r = self.draw.results
        projection = r["fx"].projection
        points = np.asarray(r["roc_points"])
        r["id_error"] = float(r["id_curve"][-1][1])
        return {
            "train": self._check_training(projection, r["part"].subclass_labels, r["spectrum"])
            + self._same("projection", projection.tobytes()),
            "identify": _error_range(r["id_curve"], self.shape.sweep())
            + self._same("identification", np.asarray(r["id_curve"]).tobytes()),
            "verify": checks.check_roc(points) + self._same("roc", points.tobytes()),
        }

    def _check_cli(self) -> dict[str, list[str]]:
        draw, r = self.draw, self.draw.results
        model = draw.read("model.wssda")
        part_rows = checks.read_csv_rows(draw.read("partition.csv").decode())
        subclasses = np.array([int(row[2]) for row in part_rows])
        spectrum_rows = checks.read_csv_rows(draw.read("spectrum.csv").decode())
        # columns k, eigenvalue, regularized_eigenvalue, weight
        spectrum = np.array([[float(row[1]), float(row[3])] for row in spectrum_rows]).T
        id_text = draw.read("identification.csv")
        curve = [(int(d), float(e)) for d, e in checks.read_csv_rows(id_text.decode())]
        roc_text = draw.read("roc.csv")
        points = [(float(f), float(t)) for f, t in checks.read_csv_rows(roc_text.decode())]
        eer_rows = dict(checks.read_csv_rows(draw.read("eer.csv").decode()))
        r["id_error"] = curve[-1][1]
        r["eer"] = checks.eer_from_roc(points)
        verify = checks.check_roc(points) + self._same("roc.csv", roc_text)
        # eer.csv rounds to 0.01 percent; the ROC gives every digit
        if abs(float(eer_rows["0"]) - 100 * r["eer"]) > 0.005 + 1e-9:
            verify.append(f"eer.csv says {eer_rows['0']}% but the ROC gives {100 * r['eer']:.6f}%")
        return {
            "train": self._check_training(checks.read_projection(model), subclasses, spectrum)
            + self._same("model.wssda", model),
            "identify": _error_range(curve, self.shape.sweep()) + self._same("identification.csv", id_text),
            "verify": verify,
        }


def _error_range(curve, sweep) -> list[str]:
    if [d for d, _ in curve] != list(sweep):
        return [f"identification covers d={[d for d, _ in curve]}, expected {sweep}"]
    if not all(0.0 <= e <= 1.0 for _, e in curve):
        return ["identification error outside [0, 1]"]
    return []


def timed(fn, repeat: bool) -> list[float]:
    """Seconds per call of ``fn``.  With ``repeat``, a call much shorter than a second
    is repeated, at least three times and for at least a second, until the median of
    all calls and that of the first half agree within a tenth, or for 2.5 seconds.
    On a shared machine the speed can wander by a fifth within seconds, so a shorter
    burst catches one state of it."""
    samples = []
    while True:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
        if not repeat or samples[0] >= 1.0:
            return samples
        total = sum(samples)
        if len(samples) >= 3 and total >= 1.0:
            whole = float(np.median(samples))
            first_half = float(np.median(samples[: len(samples) // 2 + 1]))
            if abs(first_half - whole) <= 0.1 * whole or total >= 2.5:
                return samples
