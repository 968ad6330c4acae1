#!/usr/bin/env python3
"""Identification error of each partition strategy on bimodal heteroscedastic data.

Every class is a pair of far-apart modes with different diagonal covariances,
placed on random directions inside a shared low-dimensional subspace.  The
h=1 baseline treats each class as one blob, so its whitening step flattens
the very subspace that separates the classes; subclass partitions keep it.

Usage:
    python3 scripts/heteroscedastic_benchmark.py --seeds 10
    python3 scripts/heteroscedastic_benchmark.py --d-sweep 5,10,20,40 --out bench.csv

Acceptance criterion 6 (tests/test_acceptance.py) imports its data and its
error curve from here.
"""

import argparse

import numpy as np

from wssda import LabeledDataset, SplitSpec, TrainConfig, TreeParams, partition_dataset, train
from wssda.evaluation import identification_sweep


def heteroscedastic_instance(
    seed, c=20, dim=50, q=12, radius=12.0, train_per_sub=10, eval_per_sub=4
):
    """Bimodal classes on a hypersphere in a shared low-dimensional subspace.

    Each class owns two far-apart modes with different diagonal covariances,
    so pooled within-class scatter both inflates along the mode chords and
    misstates every mode's shape.  Identity is directional, which is what a
    cosine 1-NN can read.  Returns the training set and the held-out rows
    with their class labels.
    """
    rng = np.random.default_rng(seed)
    tr_rows, tr_cls, ev_rows, ev_cls = [], [], [], []
    for i in range(c):
        for j in (0, 1):
            u = rng.normal(size=q)
            mean = np.zeros(dim)
            mean[:q] = radius * u / np.linalg.norm(u)
            lo, hi = (0.5, 1.0) if j == 0 else (1.0, 1.8)
            axis_scale = rng.uniform(lo, hi, size=dim)
            for k in range(train_per_sub + eval_per_sub):
                x = mean + axis_scale * rng.normal(size=dim)
                if k < train_per_sub:
                    tr_rows.append(x)
                    tr_cls.append(i)
                else:
                    ev_rows.append(x)
                    ev_cls.append(i)
    train_ds = LabeledDataset(np.asarray(tr_rows), np.asarray(tr_cls))
    return train_ds, np.asarray(ev_rows), np.asarray(ev_cls)


def error_curve(train_ds, eval_rows, eval_cls, strategy, h, d_values, seed):
    """Identification error at each d, held-out rows probing the training rows."""
    part = partition_dataset(train_ds, TreeParams(h=h, seed=seed), strategy)
    fx = train(train_ds, part, TrainConfig(d=max(d_values)))
    combined = LabeledDataset(
        np.vstack([train_ds.samples, eval_rows]),
        np.concatenate([train_ds.class_labels, eval_cls]),
    )
    split = SplitSpec(gallery=np.arange(train_ds.n), probe=np.arange(train_ds.n, combined.n))
    report = identification_sweep(lambda d: fx, combined, [split], d_values)
    return [err for _, err in report.curve]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--classes", type=int, default=20)
    ap.add_argument("--dim", type=int, default=50)
    ap.add_argument("--subspace", type=int, default=12, help="identity subspace dimension")
    ap.add_argument("--radius", type=float, default=12.0, help="mode distance from the origin")
    ap.add_argument("--train-per-sub", type=int, default=10)
    ap.add_argument("--eval-per-sub", type=int, default=4)
    ap.add_argument("--d-sweep", default="5,10,20,40")
    ap.add_argument("--out", help="optional CSV of the error table")
    args = ap.parse_args()

    d_values = [int(tok) for tok in args.d_sweep.split(",")]
    pipelines = [
        ("h1-baseline", "kd", 1),
        ("kd-h2", "kd", 2),
        ("rp-h2", "rp", 2),
        ("pca-h2", "pca", 2),
        ("kmeans-h2", "kmeans", 2),
    ]

    errors = {name: np.zeros((args.seeds, len(d_values))) for name, _, _ in pipelines}
    for seed in range(args.seeds):
        tds, ev, evc = heteroscedastic_instance(
            seed, args.classes, args.dim, args.subspace, args.radius,
            args.train_per_sub, args.eval_per_sub,
        )
        for name, strategy, h in pipelines:
            errors[name][seed] = error_curve(tds, ev, evc, strategy, h, d_values, seed)

    header = "pipeline".ljust(14) + "".join(f"d={d}".rjust(9) for d in d_values) + "     mean"
    print(header)
    print("-" * len(header))
    rows = []
    for name, _, _ in pipelines:
        mean_per_d = errors[name].mean(axis=0)
        cells = "".join(f"{100 * e:8.2f}%" for e in mean_per_d)
        print(f"{name.ljust(14)}{cells}{100 * mean_per_d.mean():8.2f}%")
        rows.append([name] + [f"{e:.6f}" for e in mean_per_d])

    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("pipeline," + ",".join(f"d{d}" for d in d_values) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
