import numpy as np

from wssda import LabeledDataset, TrainingError, scatter
from wssda.partition import SubclassPartition
from wssda.pipeline import TrainConfig, _spectrum_model
from wssda.scatter import within_subclass_contrasts
from wssda.spectrum import Eigenspectrum, SpectrumModel

# filled in by test_acceptance.py; echoed after the run so every criterion
# gets its own visible pass/fail line
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def geometric_noise_dataset(seed, c=10, h=2, g=4, dim=30, rho=0.6, spread=4.0):
    """Classes of subclasses whose noise variance decays geometrically by axis.

    The within-subclass eigenspectrum then falls off fast enough that the
    hyperbolic tail model dominates it beyond the pivot, which is the regime
    the whitening bound is about.  g=2 keeps the scatter rank below dim and
    leaves a genuine null space.
    """
    rng = np.random.default_rng(seed)
    scales = np.sqrt(rho ** np.arange(dim))
    rows, classes, subs = [], [], []
    for i in range(c):
        center = rng.normal(size=dim) * 6.0
        for j in range(h):
            mean = center + spread * rng.normal(size=dim) / np.sqrt(dim)
            amp = rng.uniform(0.7, 1.3)
            for _ in range(g):
                rows.append(mean + amp * scales * rng.normal(size=dim))
                classes.append(i)
                subs.append(j)
    return LabeledDataset(np.asarray(rows), np.asarray(classes), np.asarray(subs))


# per-group scans, the references the library's whole-array grouping is checked against


def class_indices(ds, label):
    """Rows of one class, in dataset order."""
    return np.flatnonzero(ds.class_labels == label)


def group_indices(part, class_id, subclass_id):
    """Rows of one (class, subclass) group, in dataset order."""
    return np.flatnonzero((part.class_labels == class_id) & (part.subclass_labels == subclass_id))


def within_subclass_rows(ds, part):
    """(n, dim) weighted deviations from subclass means, B with within-subclass
    scatter B^T B: the factor the dense training path and the first dual path
    built stage 1 from, before both used the Helmert contrasts.

    Each row of subclass (i, j) is weighted 1/(C * H_i * G_ij); rows of
    singleton subclasses are zero.  The means come from whatever
    wssda.scatter.group_means is at call time.
    """
    ids = part.group_ids
    sizes = np.concatenate(part.subclass_counts)
    dev = ds.samples - scatter.group_means(ds.samples, ids, sizes.size)[ids]
    weights = 1.0 / (part.class_count * part.subclasses_per_class[ds.class_labels] * sizes[ids])
    return dev * np.sqrt(weights)[:, None]


# ------------------------------------------------------------------ comparing trained models
# The assert_*_close helpers compare the (spectrum, model, projection,
# second-stage eigenvalues, second-stage rank) tuples that pipeline._dense and
# pipeline._dual return.


def outcome(stages, ds, part, config):
    """stages(ds, part, config) with NumPy's floating-point warnings off, as
    train_detailed runs it, or the text of the TrainingError it raises."""
    try:
        with np.errstate(all="ignore"):
            return stages(ds, part, config)
    except TrainingError as exc:
        return str(exc)


# pipeline._range_error, the error of the range rules training had before it
# prescaled each stage, kept verbatim for the oracles' copies of those rules
def _range_error(ds: LabeledDataset) -> TrainingError:
    scale = float(np.abs(ds.samples).max())
    return TrainingError(
        f"samples of magnitude up to {scale:.3g} take a training scatter "
        "or the spectrum model outside the float64 range; rescale the data"
    )


# pipeline._spectrum_model with its finite check of that time, for oracle_dual
def checked_spectrum_model(
    ds: LabeledDataset, es: Eigenspectrum, config: TrainConfig
) -> SpectrumModel:
    model = _spectrum_model(es, config)
    # fit_model multiplies two eigenvalues, which leaves the float64 range for
    # a spectrum past the square root of either end of it
    if not (np.isfinite(model.lambda_reg).all() and np.isfinite(model.weights).all()):
        raise _range_error(ds)
    return model


# the library's zero-scatter error, raised at a first stage of rank 0
ZERO_SCATTER = (
    "within-subclass scatter is zero in float64 (every subclass is a singleton, "
    "or its rows coincide or differ below the float64 range); nothing to whiten"
)


# pipeline._refuse_zero_scatter, the zero-scatter rule training had before
# coinciding subclasses gave exact zero contrasts, kept verbatim (but for the
# message, today's ZERO_SCATTER) for oracle_dense, oracle_dual and the
# zero-scatter property
def _refuse_zero_scatter(ds: LabeledDataset, part: SubclassPartition) -> None:
    """The zero-scatter TrainingError where every row of ds equals its
    subclass's first row.  The rule is exact: the contrasts of seven or more
    coinciding rows can round to non-zero."""
    _, first = np.unique(part.group_ids, return_index=True)
    if np.array_equal(ds.samples, ds.samples[first[part.group_ids]]):
        raise TrainingError(ZERO_SCATTER)


# pipeline._check_range, the range rule of the first stage before every
# eigensolver input got one finite check, kept verbatim (but for the comment
# on a true zero scatter) for oracle_dense and oracle_dual
def _check_range(ds: LabeledDataset, part: SubclassPartition, scatter: np.ndarray) -> None:
    """_range_error(ds) where float64 cannot hold the within-subclass scatter
    of ds, or its Gram matrix: an entry overflowed, or every entry fell below
    the smallest normal float64 although some subclass holds two distinct
    rows.  The largest entry of a positive semidefinite matrix lies on its
    diagonal."""
    peak = np.diagonal(scatter).max()
    if peak < np.finfo(np.float64).tiny:  # NaN is not below it
        if not within_subclass_contrasts(ds, part).any():
            return  # a true zero scatter, which the oracles refuse first
    elif np.isfinite(peak):
        return
    raise _range_error(ds)


# second-stage eigenvalues closer than this (relative to the largest) form one
# cluster, whose eigenvectors either path may rotate within the cluster
CLUSTER_RTOL = 1e-6


def rank_of(values):
    return int(np.count_nonzero(values > values[0] * 1e-12)) if values[0] > 0 else 0


def clusters(values, count):
    """Runs of near-equal leading eigenvalues, as index ranges over [0, count)."""
    gap = CLUSTER_RTOL * values[0]
    edges = [0] + [k for k in range(1, count) if values[k - 1] - values[k] > gap]
    return [range(a, b) for a, b in zip(edges, edges[1:] + [count])]


def assert_first_stage_close(got, want):
    """Equal rank, mode and pivot; eigenvalues, the modeled spectrum,
    the weights, alpha and beta within 1e-10 relative, the spectra also within
    1e-12 of the largest eigenvalue; range projectors within 1e-8."""
    (es_b, model_b), (es_a, model_a) = got[:2], want[:2]
    assert es_b.rank == es_a.rank
    fields = ("mode", "pivot")
    assert [getattr(model_b, f) for f in fields] == [getattr(model_a, f) for f in fields]
    spectrum = dict(rtol=1e-10, atol=1e-12 * es_a.eigenvalues[0])
    np.testing.assert_allclose(es_b.eigenvalues, es_a.eigenvalues, **spectrum)
    np.testing.assert_allclose(model_b.lambda_reg, model_a.lambda_reg, **spectrum)
    np.testing.assert_allclose(model_b.weights, model_a.weights, rtol=1e-10)
    for got_value, want_value in ((model_b.alpha, model_a.alpha), (model_b.beta, model_a.beta)):
        assert (got_value is None) == (want_value is None)
        if want_value is not None:
            np.testing.assert_allclose(got_value, want_value, rtol=1e-10)
    assert es_b.eigenvectors.shape == es_a.eigenvectors.shape
    u_b, u_a = es_b.eigenvectors, es_a.eigenvectors
    assert np.abs(u_b @ u_b.T - u_a @ u_a.T).max() <= 1e-8


def assert_second_stage_close(got, want, scaled=True, signed=False):
    """Equal ranks; eigenvalues within 1e-10 relative, or 1e-12 of the largest
    (an eigenvalue far below it is only accurate to rounding of the largest);
    projection columns within 1e-10 of the largest entry, one by one (up to
    sign unless signed is set) and as a span inside a cluster of tied
    eigenvalues.

    A dual column k is W^2 Y^T q_k / sqrt(lambda_k), so it carries half the
    relative error of lambda_k; with scaled set, got's columns are compared
    rescaled to the oracle's lambda_k, so that error is not counted twice.  A
    dense column W v_k, for a unit eigenvector v_k, carries none of it, and
    is compared as it is (scaled=False)."""
    proj_b, second_b, r2 = got[2:]
    proj_a, second_a, rank_a = want[2:]
    assert r2 == rank_a == rank_of(second_b) == rank_of(second_a)
    np.testing.assert_allclose(second_b[:r2], second_a[:r2], rtol=1e-10, atol=1e-12 * second_a[0])
    assert np.all(proj_b[:, r2:] == 0.0)
    proj_b = proj_b[:, :r2]
    if scaled:
        proj_b = proj_b * np.sqrt(second_b[:r2] / second_a[:r2])
    tol = 1e-10 * np.abs(proj_a).max()
    for group in clusters(second_a, r2):
        a, b = proj_a[:, group], proj_b[:, group]
        if len(group) == 1:
            off = np.abs(b - a).max() if signed else min(np.abs(b - a).max(), np.abs(b + a).max())
            assert off <= tol, group
        else:
            q, _ = np.linalg.qr(a)
            assert np.abs(b - q @ (q.T @ b)).max() <= tol, group
