"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Every test exercises the public API end to end against an independent
oracle or a constructed instance whose correct behavior is known in
advance.  The pass/fail lines are collected in conftest.ACCEPTANCE_RESULTS
and echoed in the terminal summary after the run.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
from scipy import stats

from conftest import ACCEPTANCE_RESULTS, class_indices, geometric_noise_dataset, group_indices
from heteroscedastic_benchmark import error_curve, heteroscedastic_instance
from null_space_demo import cosine_probe_error, null_space_instance
from wssda import (
    LabeledDataset,
    TrainConfig,
    TreeParams,
    partition_dataset,
    train,
    train_detailed,
    verification_roc,
)
from wssda.cli import main as cli_main
from wssda.partition import partition_class
from wssda.scatter import within_subclass_scatter
from wssda.spectrum import Eigenspectrum, eig_symmetric_full, find_pivot, fit_model, regularize


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append(f"criterion {num:2d} FAIL  {title}")
        raise
    ACCEPTANCE_RESULTS.append(f"criterion {num:2d} PASS  {title}")


# ------------------------------------------------------------ criterion 1


def test_criterion_01_eigendecomposition_oracle():
    with criterion(1, "eigendecomposition reconstructs 50 random PSD matrices"):
        rng = np.random.default_rng(20240501)
        start = time.perf_counter()
        for trial in range(50):
            l = int(rng.integers(2, 21))
            # alternate full-rank and rank-deficient factors
            cols = l + 2 if trial % 2 == 0 else max(1, l // 2)
            a = rng.normal(size=(l, cols))
            s = a @ a.T
            es = eig_symmetric_full(s)
            recon = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.T
            rel = np.linalg.norm(recon - s) / np.linalg.norm(s)
            assert rel <= 1e-8
            residual = s @ es.eigenvectors - es.eigenvectors * es.eigenvalues
            assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8
            assert np.all(np.diff(es.eigenvalues) <= 0)
            assert np.all(es.eigenvalues >= 0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"50 decompositions took {elapsed:.3f}s"


# ------------------------------------------------------------ criterion 2


def test_criterion_02_model_anchors_on_random_spectra():
    with criterion(2, "decay model anchors and monotonicity on 100 random spectra"):
        rng = np.random.default_rng(20240502)
        for _ in range(100):
            n = int(rng.integers(4, 41))
            gaps = rng.uniform(0.01, 1.0, size=n)
            vals = np.cumsum(gaps)[::-1].copy() * 10.0 ** rng.uniform(-3, 3)
            es = Eigenspectrum(vals, np.eye(n), rank=n)

            m = find_pivot(es).m
            alpha, beta = fit_model(es, m)
            model = regularize(es, m, alpha, beta)

            lam = model.lambda_reg
            assert abs(lam[0] - vals[0]) <= 1e-12 * vals[0]
            assert abs(lam[m - 1] - vals[m - 1]) <= 1e-12 * vals[m - 1]
            assert np.all(np.diff(lam) <= 0.0)
            assert np.all(np.diff(model.weights) >= 0.0)


# ------------------------------------------------------------ criterion 3


def test_criterion_03_whitening_identity():
    with criterion(3, "whitened within-subclass variances: 1 below pivot, (0,1] to rank, 0 beyond"):
        checked_null = False
        for seed in range(5):
            for g in (4, 2):
                ds = geometric_noise_dataset(seed, c=10, h=2, g=g, dim=30)
                part = partition_dataset(ds, TreeParams(h=2, seed=0), "provided")
                _, details = train_detailed(ds, part, TrainConfig(d=5))
                es, model = details.spectrum, details.model
                m, r = model.pivot, es.rank

                sws = within_subclass_scatter(ds, part).matrix
                whitener = es.eigenvectors * model.weights
                diag = np.diag(whitener.T @ sws @ whitener)

                assert np.all(np.abs(diag[: m - 1] - 1.0) <= 1e-6)
                assert np.all(diag[m - 1 : r] > 0.0)
                assert np.all(diag[m - 1 : r] <= 1.0 + 1e-9)
                if r < ds.dim:
                    checked_null = True
                    assert np.all(diag[r:] <= 1e-10)
        # the g=2 datasets must actually have a null space to exercise
        assert checked_null


# ------------------------------------------------------------ criterion 4


def test_criterion_04_variance_decomposition():
    with criterion(4, "within-subclass squared deviation never exceeds within-class"):
        rng = np.random.default_rng(20240504)
        for _ in range(20):
            dim = int(rng.integers(5, 21))
            c = int(rng.integers(3, 7))
            per_class = int(rng.integers(8, 17))
            samples = rng.normal(size=(c * per_class, dim)) * rng.uniform(0.5, 2.0)
            shifts = rng.normal(size=(c, dim)) * 3.0
            labels = np.repeat(np.arange(c), per_class)
            samples += shifts[labels]
            ds = LabeledDataset(samples, labels)
            h = int(rng.choice([2, 4]))

            for strategy in ("kd", "rp", "pca", "kmeans"):
                part = partition_dataset(ds, TreeParams(h=h, seed=1), strategy)
                for i in range(c):
                    idx = class_indices(ds, i)
                    cls = ds.samples[idx]
                    wc = float(np.sum((cls - cls.mean(axis=0)) ** 2))
                    ws = 0.0
                    for j in range(len(part.subclass_counts[i])):
                        grp = ds.samples[group_indices(part, i, j)]
                        ws += float(np.sum((grp - grp.mean(axis=0)) ** 2))
                    assert ws <= wc * (1.0 + 1e-10), (strategy, i)


# ------------------------------------------------------------ criterion 5


def test_criterion_05_null_space_value():
    with criterion(5, "regularized beats truncated when identity lies in the null space"):
        reg_errs, trunc_errs = [], []
        for seed in range(10):
            ds, probes, plabels = null_space_instance(seed)
            assert ds.n <= ds.dim  # small-sample regime: n_i = 3, l = 16
            part = partition_dataset(ds, TreeParams(h=2, seed=0), "provided")

            fx_reg, details = train_detailed(ds, part, TrainConfig(d=3, mode="regularized"))
            fx_tr = train(ds, part, TrainConfig(d=3, mode="truncated"))

            # the premise itself: subclass mean differences survive projection
            # onto the null space of the within-subclass scatter
            es = details.spectrum
            v_range = es.eigenvectors[:, : es.rank]
            for i in range(ds.class_count)[:1]:
                mu0 = ds.samples[group_indices(part, i, 0)].mean(axis=0)
                mu1 = ds.samples[group_indices(part, i, 1)].mean(axis=0)
                gap = mu0 - mu1
                null_part = gap - v_range @ (v_range.T @ gap)
                assert np.linalg.norm(null_part) > 1.0

            reg_errs.append(cosine_probe_error(fx_reg, ds, probes, plabels))
            trunc_errs.append(cosine_probe_error(fx_tr, ds, probes, plabels))
        assert np.mean(reg_errs) < np.mean(trunc_errs)


# ------------------------------------------------------------ criterion 6


def test_criterion_06_heteroscedastic_advantage():
    with criterion(6, "kmeans subclasses beat the h=1 pipeline on bimodal data"):
        start = time.perf_counter()
        d_values = [5, 10, 20, 40]
        h2_means, h1_means = [], []
        for seed in range(20):
            tds, ev, evc = heteroscedastic_instance(seed)
            for means, strategy, h in ((h2_means, "kmeans", 2), (h1_means, "kd", 1)):
                means.append(np.mean(error_curve(tds, ev, evc, strategy, h, d_values, seed=0)))
        h2_means = np.asarray(h2_means)
        h1_means = np.asarray(h1_means)

        assert h2_means.mean() <= h1_means.mean()
        wins = int(np.sum(h2_means < h1_means))
        losses = int(np.sum(h2_means > h1_means))
        p = stats.binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue
        assert p < 0.05, f"wins={wins} losses={losses} p={p:.4f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ------------------------------------------------------------ criterion 7


def test_criterion_07_partition_contracts():
    with criterion(7, "1000 random classes per strategy: disjoint covering leaves, depth cap"):
        rng = np.random.default_rng(20240507)

        for strategy in ("kd", "rp", "pca", "kmeans"):
            for _ in range(1000):
                m = int(rng.integers(1, 41))
                dim = int(rng.integers(1, 9))
                points = rng.normal(size=(m, dim))
                h = int(rng.choice([2, 4, 8])) if strategy != "kmeans" else int(rng.integers(2, 6))
                groups, deficient = partition_class(
                    points, TreeParams(h=h, seed=0), strategy, rng=rng
                )
                assert deficient == (m < h)
                assert len(groups) == (m if deficient else h)
                assert all(len(g) > 0 for g in groups)
                merged = np.sort(np.concatenate(groups))
                assert np.array_equal(merged, np.arange(m))

        # provided partitions over whole datasets, 50 x 20 = 1000 classes
        for _ in range(50):
            n_per = int(rng.integers(2, 7))
            labels = np.repeat(np.arange(20), n_per)
            subs = rng.integers(0, 2, size=labels.size)
            # densify so each class's subclasses are 0..H_i-1
            for i in range(20):
                mask = labels == i
                subs[mask] = np.unique(subs[mask], return_inverse=True)[1]
            ds = LabeledDataset(rng.normal(size=(labels.size, 3)), labels, subs)
            part = partition_dataset(ds, TreeParams(h=2, seed=0), "provided")
            for i in range(20):
                idx = class_indices(ds, i)
                expect = len(np.unique(subs[idx]))
                assert len(part.subclass_counts[i]) == expect
                assert int(part.subclass_counts[i].sum()) == idx.size

        # depth-eight trees are the deepest allowed
        TreeParams(h=256).validate("kd")
        try:
            TreeParams(h=512).validate("kd")
        except ValueError:
            pass
        else:
            raise AssertionError("h=512 needs depth 9 and must be rejected")


# ------------------------------------------------------------ criterion 8


def brute_force_roc(pairs):
    scores = np.asarray([s for s, _ in pairs])
    same = np.asarray([y for _, y in pairs])
    thresholds = np.concatenate([[scores.max() + 1.0], np.unique(scores)[::-1]])
    fars, tars = [], []
    for t in thresholds:
        accepted = scores >= t
        fars.append(np.count_nonzero(accepted & ~same) / np.count_nonzero(~same))
        tars.append(np.count_nonzero(accepted & same) / np.count_nonzero(same))
    return thresholds, np.asarray(fars), np.asarray(tars)


def test_criterion_08_roc_matches_brute_force():
    with criterion(8, "ROC staircase equals a brute-force counter; EER anchors hold"):
        rng = np.random.default_rng(20240508)
        for trial in range(10):
            same = rng.random(50)
            diff = rng.random(50)
            if trial % 2 == 0:
                # duplicated scores exercise threshold grouping
                same, diff = np.round(same, 1), np.round(diff, 1)
            pairs = [(float(s), True) for s in same] + [(float(s), False) for s in diff]
            rep = verification_roc(pairs)
            thresholds, fars, tars = brute_force_roc(pairs)
            got = np.asarray(rep.points)
            assert got.shape == (thresholds.size, 2)
            assert np.array_equal(got[:, 0], fars)
            assert np.array_equal(got[:, 1], tars)
            assert np.array_equal(np.asarray(rep.thresholds), thresholds)

        separated = [(0.9 + 0.001 * i, True) for i in range(40)] + [
            (0.1 + 0.001 * i, False) for i in range(40)
        ]
        assert abs(verification_roc(separated).eer - 0.0) <= 0.02

        shared = np.linspace(0.0, 1.0, 50)
        overlapped = [(float(s), True) for s in shared] + [(float(s), False) for s in shared]
        assert abs(verification_roc(overlapped).eer - 0.5) <= 0.02


# ------------------------------------------------------------ criterion 9


def test_criterion_09_cli_determinism(tmp_path):
    with criterion(9, "train + eval-id reruns produce byte-identical CSVs"):
        outputs = {}
        for run in ("one", "two"):
            out_dir = str(tmp_path / run)
            argv = [
                "train", "--synth", "--seed", "7", "--classes", "8", "--subclasses", "2",
                "--samples-per-subclass", "5", "--dim", "16", "--d", "6",
                "--strategy", "kmeans", "--h", "2", "--out-dir", out_dir,
            ]
            assert cli_main(argv) == 0
            argv = [
                "eval-id", "--synth", "--seed", "7", "--classes", "8", "--subclasses", "2",
                "--samples-per-subclass", "5", "--dim", "16",
                "--model", os.path.join(out_dir, "model.wssda"),
                "--rotations", "2", "--d-sweep", "1,3,6", "--out-dir", out_dir,
            ]
            assert cli_main(argv) == 0
            blobs = {}
            for name in ("spectrum.csv", "partition.csv", "identification.csv", "model.wssda"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    blobs[name] = fh.read()
            outputs[run] = blobs
        for name in outputs["one"]:
            assert outputs["one"][name] == outputs["two"][name], name


# ------------------------------------------------------------ criterion 10


def test_criterion_10_single_subclass_reduction():
    with criterion(10, "h=1 pipeline matches a whole-class oracle built from scratch"):
        rng = np.random.default_rng(20240510)
        c, per_class, dim, d = 6, 10, 20, 5
        centers = rng.normal(size=(c, dim)) * 5.0
        labels = np.repeat(np.arange(c), per_class)
        samples = centers[labels] + rng.normal(size=(labels.size, dim))
        ds = LabeledDataset(samples, labels)

        part = partition_dataset(ds, TreeParams(h=1, seed=0), "kd")
        fx, _ = train_detailed(ds, part, TrainConfig(d=d))

        def eigh_descending(mat):
            vals, vecs = np.linalg.eigh(mat)
            vals = np.clip(vals[::-1].copy(), 0.0, None)
            vecs = vecs[:, ::-1].copy()
            peaks = np.argmax(np.abs(vecs), axis=0)
            flip = vecs[peaks, np.arange(vecs.shape[1])] < 0
            vecs[:, flip] *= -1.0
            rank = int(np.count_nonzero(vals > vals[0] * 1e-12)) if vals[0] > 0 else 0
            return Eigenspectrum(vals, vecs, rank)

        # whole-class pipeline, assembled by hand: pooled scatter about class
        # means, regularized whitening, total scatter about the mean of means
        sw = np.zeros((dim, dim))
        for i in range(c):
            cls = samples[labels == i]
            dev = cls - cls.mean(axis=0)
            sw += dev.T @ dev
        sw /= labels.size

        es = eigh_descending(sw)
        m = find_pivot(es).m
        alpha, beta = fit_model(es, m)
        model = regularize(es, m, alpha, beta)
        whitener = es.eigenvectors * model.weights
        whitened = samples @ whitener

        cmeans = np.stack([whitened[labels == i].mean(axis=0) for i in range(c)])
        global_mean = cmeans.mean(axis=0)
        st = np.zeros((dim, dim))
        for i in range(c):
            dev = whitened[labels == i] - global_mean
            st += (dev.T @ dev) / (c * per_class)
        es2 = eigh_descending(st)
        u_oracle = (whitener @ es2.eigenvectors)[:, :d]

        scale = max(1.0, float(np.max(np.abs(u_oracle))))
        assert np.max(np.abs(fx.projection - u_oracle)) <= 1e-10 * scale
