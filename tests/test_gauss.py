import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfa.gauss import norm_cdf, norm_pdf, norm_quantile, two_sided_pvalue

# High-precision reference values (40-digit erfc evaluation, frozen).
CDF_CASES = [
    (3.0, 0.99865010196836990547),
    (-1.959964, 0.024999999096442404302),
    (-1.0, 0.15865525393145705141),
    (2.5, 0.99379033467422386483),
    (-8.0, 6.2209605742717841235e-16),
]
QUANTILE_CASES = [
    (0.0005, -3.2905267314918947932),
    (0.025, -1.9599639845400542355),
    (0.3, -0.52440051270804078404),
    (1e-9, -5.9978070150076868716),
]


@pytest.mark.parametrize("x, expected", CDF_CASES)
def test_cdf_matches_reference(x, expected):
    assert norm_cdf(x) == pytest.approx(expected, abs=1e-12)


def test_cdf_center():
    assert norm_cdf(0.0) == 0.5


@pytest.mark.parametrize("q, expected", QUANTILE_CASES)
def test_quantile_matches_reference(q, expected):
    assert norm_quantile(q) == pytest.approx(expected, abs=1e-9)


def test_quantile_center():
    assert norm_quantile(0.5) == 0.0


def test_quantile_against_bisection_on_cdf():
    # Independent route: bisect the CDF itself down to machine width.
    for q in (0.0005, 0.025, 0.4, 0.97):
        lo, hi = -40.0, 40.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if norm_cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        assert norm_quantile(q) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
def test_quantile_domain(q):
    with pytest.raises(ValueError):
        norm_quantile(q)


def test_quantile_of_an_array():
    q = np.array([0.025, 0.5, 1e-12])
    assert norm_quantile(q).tolist() == [norm_quantile(value) for value in q]
    assert type(norm_quantile(0.025)) is float
    with pytest.raises(ValueError, match=r"quantile argument must lie in \(0, 1\), got 1.0"):
        norm_quantile(np.array([0.5, 1.0, 0.0]))


def test_pdf_values():
    assert norm_pdf(0.0) == pytest.approx(0.39894228040143267794, abs=1e-15)
    assert norm_pdf(1.3) == pytest.approx(0.17136859204780735696, abs=1e-15)
    assert norm_pdf(1.0) == norm_pdf(-1.0)
    assert norm_pdf(40.0) == 0.0


def test_two_sided_pvalue_values():
    assert two_sided_pvalue(0.0) == 1.0
    assert two_sided_pvalue(1.959964) == pytest.approx(0.049999998192884808605, rel=1e-12)
    assert two_sided_pvalue(-1.959964) == two_sided_pvalue(1.959964)


def test_roundtrip_log_spaced_grid():
    qs = np.exp(np.linspace(np.log(1e-10), np.log(0.5), 500))
    qs = np.concatenate([qs, 1.0 - qs])
    for q in qs:
        assert abs(norm_cdf(norm_quantile(q)) - q) <= 1e-9


@settings(max_examples=200)
@given(st.floats(min_value=-37.0, max_value=37.0))
def test_symmetry(x):
    assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=100)
@given(st.floats(min_value=-20.0, max_value=20.0), st.floats(min_value=0.0, max_value=5.0))
def test_cdf_monotone(x, step):
    assert norm_cdf(x + step) >= norm_cdf(x)


@settings(max_examples=100)
@given(st.floats(min_value=0.0, max_value=30.0), st.floats(min_value=0.0, max_value=5.0))
def test_pvalue_nonincreasing_in_magnitude(z, step):
    assert two_sided_pvalue(z + step) <= two_sided_pvalue(z) + 1e-300
