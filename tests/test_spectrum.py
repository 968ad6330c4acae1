import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wssda import SpectrumError
from wssda.spectrum import (
    Eigenspectrum,
    eig_symmetric_full,
    find_pivot,
    fit_model,
    flat_model,
    orient_columns,
    regularize,
    short_tail_model,
    truncated_weights,
)


def spectrum_from(eigenvalues, dim=None):
    """Eigenspectrum with identity eigenvectors, for testing the model ops."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if dim is not None and dim > lam.size:
        lam = np.concatenate([lam, np.zeros(dim - lam.size)])
    return eig_symmetric_full(np.diag(lam))


def random_psd(rng, size):
    a = rng.normal(size=(size, size))
    return a @ a.T


def power_iteration_eigh(s, tol=1e-12, iters=20000):
    """Dominant-eigenpair extraction with deflation; slow but independent."""
    s = s.copy()
    n = s.shape[0]
    rng = np.random.default_rng(12345)
    vals, vecs = [], []
    for _ in range(n):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = s @ v
            norm = np.linalg.norm(w)
            if norm < 1e-300:
                lam = 0.0
                break
            w /= norm
            if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
                v = w
                lam = float(v @ s @ v)
                break
            v = w
        else:
            lam = float(v @ s @ v)
        vals.append(max(lam, 0.0))
        vecs.append(v)
        s = s - lam * np.outer(v, v)
    order = np.argsort(vals)[::-1]
    return np.asarray(vals)[order], np.asarray(vecs)[order].T


# ------------------------------------------------------------------ eigendecomposition


def test_eig_diagonal_case():
    es = eig_symmetric_full(np.diag([3.0, 1.0, 0.0]))
    assert np.allclose(es.eigenvalues, [3.0, 1.0, 0.0])
    assert np.allclose(np.abs(es.eigenvectors), np.eye(3))
    assert es.rank == 2


def test_eig_hand_example():
    es = eig_symmetric_full(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(es.eigenvalues, [1.0, 0.0])
    assert np.allclose(es.eigenvectors[:, 0], [1.0, 0.0])


def test_eig_reconstruction_random_psd():
    rng = np.random.default_rng(8)
    s = random_psd(rng, 10)
    es = eig_symmetric_full(s)
    recon = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T
    assert np.linalg.norm(recon - s) / np.linalg.norm(s) <= 1e-8


def test_eig_matches_power_iteration_oracle():
    rng = np.random.default_rng(21)
    s = random_psd(rng, 5)
    es = eig_symmetric_full(s)
    vals, vecs = power_iteration_eigh(s)
    assert np.allclose(es.eigenvalues, vals, rtol=1e-6, atol=1e-6)
    for k in range(5):
        # eigenvectors match up to sign
        dot = abs(float(es.eigenvectors[:, k] @ vecs[:, k]))
        assert dot > 1.0 - 1e-6


def test_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eig_symmetric_full(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eig_checks_symmetry_where_the_squares_of_entries_overflow():
    big = np.array([[2.0, 1.0], [1.0, 3.0]]) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        es = eig_symmetric_full(big)
        with pytest.raises(ValueError, match="symmetric"):
            eig_symmetric_full(np.array([[1.0, 2.0], [0.0, 1.0]]) * 1e200)
    np.testing.assert_allclose(es.eigenvalues, np.linalg.eigvalsh(big)[::-1], rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_rejects_non_finite_entries(bad):
    # NaN fails the symmetry comparison, so it used to reach LAPACK
    s = np.eye(3)
    s[0, 1] = s[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eig_symmetric_full(s)


def oracle_orient_columns(vectors: np.ndarray) -> np.ndarray:
    """The earlier body of orient_columns, kept verbatim as the oracle."""
    peaks = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[peaks, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0
    return vectors


@st.composite
def sign_matrices(draw):
    """Matrices whose columns tie in magnitude between a positive and a
    negative entry, in either order, or are zero or of one repeated value."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    values = draw(st.sampled_from([[1.0, -1.0, 0.5], [0.0, -0.0], [2.0, -2.0, 0.0, 3.0]]))
    if draw(st.booleans()):
        x = rng.choice(values, size=(rows, cols))
    else:
        x = rng.normal(size=(rows, cols))
    x[:, rng.random(cols) < 0.2] = 0.0
    return x


@pytest.mark.parametrize(
    "x",
    [
        np.array([[-2.0]]),
        np.array([[-0.0]]),
        np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]),  # ties: the first entry decides
        np.random.default_rng(1).normal(size=(50, 3)),
        np.random.default_rng(2).normal(size=(3, 50)),
    ],
    ids=["1x1", "negative zero", "ties and a zero column", "tall", "wide"],
)
def test_orient_columns_matches_the_oracle_on_planted_cases(x):
    got = orient_columns(x.copy())
    assert got.tobytes() == oracle_orient_columns(x.copy()).tobytes()


@given(sign_matrices())
@settings(max_examples=300, deadline=None)
def test_orient_columns_matches_the_argmax_oracle_bit_for_bit(x):
    expect = oracle_orient_columns(x.copy())
    got = x.copy()
    assert orient_columns(got) is got
    assert got.tobytes() == expect.tobytes()


def test_eig_sign_convention():
    s = random_psd(np.random.default_rng(3), 6)
    es = eig_symmetric_full(s)
    for k in range(6):
        col = es.eigenvectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_eig_clamps_negative_roundoff():
    s = random_psd(np.random.default_rng(5), 8)
    # rank-deficient: project away two directions
    q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(8, 6)))
    s = q @ q.T @ s @ q @ q.T
    es = eig_symmetric_full((s + s.T) / 2)
    assert es.eigenvalues.min() >= 0.0
    assert es.rank <= 6


# ------------------------------------------------------------------ pivot


def test_pivot_hand_case_eight():
    es = spectrum_from([100.0, 50.0, 20.0, 10.0, 5.0, 2.0, 1.0, 0.5])
    res = find_pivot(es)
    assert res.m == 5 and not res.flat  # median 7.5, first below at k=5


def test_pivot_hand_case_four():
    es = spectrum_from([4.0, 3.0, 2.0, 1.0])
    res = find_pivot(es)
    assert res.m == 3  # median 2.5, clamped into [2, 3]


def test_pivot_eigenvalue_at_the_median_is_not_below_it():
    es = spectrum_from([9.0, 7.0, 5.0, 3.0, 1.0])
    assert find_pivot(es).m == 4  # median 5: lambda_3 = 5 ties it, lambda_4 = 3 is below


def test_pivot_median_is_taken_over_the_non_null_eigenvalues():
    # with the eight zeros counted the median would be 0.25 and nothing below it
    es = spectrum_from([100.0, 50.0, 20.0, 10.0, 5.0, 2.0, 1.0, 0.5], dim=16)
    assert es.rank == 8
    assert find_pivot(es).m == 5


def test_pivot_with_nothing_below_the_median_sits_at_r_minus_1():
    es = spectrum_from([2.0, 1.0, 1.0, 1.0, 1.0])
    res = find_pivot(es)
    assert res.m == 4 and not res.flat  # median 1, no eigenvalue below it


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=3, max_size=12), st.integers(0, 4))
def test_pivot_is_the_first_eigenvalue_below_the_median(values, nulls):
    # small integers make ties with the median and with each other common
    lam = sorted(values, reverse=True)
    es = spectrum_from([float(v) for v in lam], dim=len(lam) + nulls)
    r = len(lam)
    half = sorted(lam)
    median = (half[(r - 1) // 2] + half[r // 2]) / 2
    m = next((k for k, v in enumerate(lam, start=1) if v < median), r - 1)
    res = find_pivot(es)
    assert res.m == min(max(m, 2), r - 1)
    assert res.flat == (lam[res.m - 1] == lam[0])


def test_pivot_flat_spectrum_flagged():
    es = spectrum_from([2.0, 2.0, 2.0, 2.0])
    assert find_pivot(es).flat


def test_pivot_short_rank_errors():
    es = spectrum_from([3.0, 1.0], dim=4)
    with pytest.raises(SpectrumError, match="rank"):
        find_pivot(es)


# ------------------------------------------------------------------ model fit


def test_fit_closed_form_anchor_case():
    es = spectrum_from([100.0, 90, 80, 70, 60, 50, 4.0, 3, 2, 1])
    alpha, beta = fit_model(es, 7)
    assert alpha == pytest.approx(25.0, rel=1e-12)
    assert beta == pytest.approx(-0.75, rel=1e-12)
    assert alpha / (1 + beta) == pytest.approx(100.0, rel=1e-12)
    assert alpha / (7 + beta) == pytest.approx(4.0, rel=1e-12)


def test_fit_closed_form_second_case():
    lam = np.concatenate([[100.0], np.linspace(50, 2, 8), [1.0]])
    es = spectrum_from(lam)
    alpha, beta = fit_model(es, 10)
    assert alpha == pytest.approx(900.0 / 99.0, rel=1e-12)
    assert beta == pytest.approx(-90.0 / 99.0, rel=1e-12)


def test_fit_rejects_flat():
    es = spectrum_from([5.0, 5.0, 5.0, 5.0])
    with pytest.raises(SpectrumError, match="flat"):
        fit_model(es, 3)


def test_fit_rejects_null_pivot():
    es = spectrum_from([5.0, 4.0, 3.0], dim=6)
    with pytest.raises(ValueError):
        fit_model(es, 5)  # beyond the rank


# ------------------------------------------------------------------ regularized spectrum


def test_regularize_hand_values():
    lam = [100.0, 80, 60, 40, 20, 10, 4, 3, 2, 0, 0, 0]
    es = spectrum_from(lam)
    assert es.rank == 9
    alpha, beta = fit_model(es, 7)
    model = regularize(es, 7, alpha, beta)
    assert model.lambda_reg[:6] == pytest.approx(lam[:6])  # k < m untouched
    assert model.lambda_reg[6] == pytest.approx(4.0)  # anchor at the pivot
    assert model.lambda_reg[7] == pytest.approx(25.0 / 7.25)
    assert model.lambda_reg[8] == pytest.approx(25.0 / 8.25)
    # beyond the rank the model continues one step past r and stays constant
    assert model.lambda_reg[9:] == pytest.approx(np.full(3, 25.0 / 9.25))
    assert model.weights == pytest.approx(1.0 / np.sqrt(model.lambda_reg))


def test_regularize_non_increasing_weights_non_decreasing():
    es = spectrum_from([100.0, 50.0, 20.0, 10.0, 5.0, 2.0, 1.0, 0.5], dim=12)
    res = find_pivot(es)
    alpha, beta = fit_model(es, res.m)
    model = regularize(es, res.m, alpha, beta)
    assert np.all(np.diff(model.lambda_reg) <= 1e-12)
    assert np.all(np.diff(model.weights) >= -1e-12)


@given(st.integers(0, 2**31), st.integers(5, 24))
@settings(max_examples=80, deadline=None)
def test_regularize_property_random_spectra(seed, r):
    rng = np.random.default_rng(seed)
    # strictly decreasing positive spectrum with a null tail
    lam = np.sort(rng.uniform(0.01, 100.0, size=r))[::-1]
    lam *= 1.0 + 1e-6 * np.arange(r)[::-1]  # break accidental ties
    if lam[0] <= lam[-1]:
        return
    es = spectrum_from(lam, dim=r + 4)
    res = find_pivot(es)
    alpha, beta = fit_model(es, res.m)
    model = regularize(es, res.m, alpha, beta)
    assert model.lambda_reg[0] == pytest.approx(lam[0], rel=1e-12)
    assert model.lambda_reg[res.m - 1] == pytest.approx(lam[res.m - 1], rel=1e-12)
    assert np.all(np.diff(model.lambda_reg) <= lam[0] * 1e-12)
    assert np.all(np.diff(model.weights) >= -model.weights[-1] * 1e-12)
    assert np.all(model.lambda_reg > 0)


# ------------------------------------------------------------------ fallback models


def test_truncated_weights_hand_case():
    es = spectrum_from([4.0, 1.0, 0.0])
    model = truncated_weights(es)
    assert model.weights == pytest.approx([0.5, 1.0, 0.0])


def test_truncated_weights_zero_rank_unusable():
    es = spectrum_from([0.0, 0.0])
    model = truncated_weights(es)
    assert np.all(model.weights == 0.0)


def test_flat_model_uniform():
    es = spectrum_from([3.0, 3.0, 3.0], dim=5)
    model = flat_model(es)
    assert model.lambda_reg == pytest.approx(np.full(5, 3.0))


@pytest.mark.parametrize("eps", [1.5e-12, 1e-11])
@pytest.mark.parametrize("rank, dim", [(8, 8), (8, 64), (64, 2048)])
def test_fitted_model_just_short_of_flat_is_the_flat_model(eps, rank, dim):
    # lambda_2..lambda_r = lambda_1 (1 - eps) is just past find_pivot's flat
    # test, so the hyperbola is fitted; it must be within rounding of its
    # limit, flat_model, which training takes on the flat side
    lam = np.zeros(dim)
    lam[0] = 2.5
    lam[1:rank] = 2.5 * (1.0 - eps)
    es = Eigenspectrum(lam, np.eye(dim, rank), rank)
    pivot = find_pivot(es)
    assert not pivot.flat
    fitted = regularize(es, pivot.m, *fit_model(es, pivot.m))
    np.testing.assert_allclose(fitted.weights, flat_model(es).weights, rtol=1e-9, atol=0)


def test_short_tail_model_extends_last_eigenvalue():
    es = spectrum_from([9.0, 4.0], dim=5)
    model = short_tail_model(es)
    assert model.lambda_reg == pytest.approx([9.0, 4.0, 4.0, 4.0, 4.0])
    assert model.weights == pytest.approx([1 / 3, 0.5, 0.5, 0.5, 0.5])
