#!/usr/bin/env python3
"""What the null space of the within-subclass scatter is worth.

Builds tiny-sample classes (3 samples each, dimension > sample count) whose
identity coordinates never vary within a subclass, so they sit in the null
space of the scatter matrix.  A whitener truncated to the range space throws
that signal away; the regularized whitener keeps the whole eigenspace and
assigns the null directions a finite weight.

Usage:
    python3 scripts/null_space_demo.py
    python3 scripts/null_space_demo.py --seeds 25 --d 3

Acceptance criterion 5 (tests/test_acceptance.py) imports its data and its
error rate from here.
"""

import argparse

import numpy as np

from wssda import (
    LabeledDataset,
    TrainConfig,
    TreeParams,
    nn_classify,
    partition_dataset,
    train_detailed,
)


def null_space_instance(seed, c=4, dim=16, sigma=0.5, gamma=5.0, delta=2.0):
    """Tiny-sample classes whose identity lives outside the range of the
    within-subclass scatter: noise spans coords 0-3 only, class identity
    sits on coords 4-7, subclass offsets on coords 8-11.  Returns the
    training set, the probe rows and their class labels."""
    rng = np.random.default_rng(seed)
    rows, classes, subs = [], [], []
    probes, probe_labels = [], []
    for i in range(c):
        center = np.zeros(dim)
        center[4 + i] = gamma  # class identity: constant within the class
        for j, count in ((0, 2), (1, 1)):
            mean = center.copy()
            mean[8 + i] = delta if j == 0 else -delta  # subclass offset
            for _ in range(count):
                x = mean.copy()
                x[:4] += sigma * rng.normal(size=4)  # the only varying coords
                rows.append(x)
                classes.append(i)
                subs.append(j)
            for _ in range(2):
                x = mean.copy()
                x[:4] += sigma * rng.normal(size=4)
                probes.append(x)
                probe_labels.append(i)
    ds = LabeledDataset(np.asarray(rows), np.asarray(classes), np.asarray(subs))
    return ds, np.asarray(probes), np.asarray(probe_labels)


def cosine_probe_error(fx, gallery_ds, probes, probe_labels):
    """Error rate of cosine 1-NN matching of the probes against the gallery."""
    pred = nn_classify(fx.extract(gallery_ds.samples), gallery_ds.class_labels, fx.extract(probes))
    return float(np.mean(pred != probe_labels))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--d", type=int, default=3, help="feature dimension for both modes")
    args = ap.parse_args()

    print(f"{'seed':>4}  {'rank/dim':>8}  {'regularized':>11}  {'truncated':>9}")
    reg_errs, trunc_errs = [], []
    for seed in range(args.seeds):
        ds, probes, plabels = null_space_instance(seed)
        part = partition_dataset(ds, TreeParams(h=2, seed=0), "provided")
        fx_reg, details = train_detailed(ds, part, TrainConfig(d=args.d, mode="regularized"))
        fx_tr, _ = train_detailed(ds, part, TrainConfig(d=args.d, mode="truncated"))
        e_reg = cosine_probe_error(fx_reg, ds, probes, plabels)
        e_tr = cosine_probe_error(fx_tr, ds, probes, plabels)
        reg_errs.append(e_reg)
        trunc_errs.append(e_tr)
        rank = details.spectrum.rank
        print(f"{seed:>4}  {rank:>4}/{ds.dim:<3}  {100 * e_reg:>10.1f}%  {100 * e_tr:>8.1f}%")

    print("-" * 42)
    print(
        f"mean over {args.seeds} seeds: regularized {100 * np.mean(reg_errs):.1f}%  "
        f"truncated {100 * np.mean(trunc_errs):.1f}%"
    )


if __name__ == "__main__":
    main()
