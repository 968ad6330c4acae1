import numpy as np

from wssda import LabeledDataset

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
