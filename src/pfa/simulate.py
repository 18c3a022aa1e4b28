"""Data generation for the simulation studies.

A Scenario describes one of six dependence structures for the raw design
matrix. One sampled design yields a sample correlation matrix (the known
covariance of the test statistics) and per-column standard deviations, from
which `pfa.harness.prepare_scenario` builds the mean shifts of the false
nulls; test statistics drawn from N(mu, Sigma) follow the conditional law of
the standardized marginal-regression coefficients given the design.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .gauss import two_sided_pvalue
from .linalg import CorrelationMatrix

__all__ = [
    "SCENARIO_KINDS",
    "ConstantColumnError",
    "Scenario",
    "generate_design",
    "standardize",
    "sample_correlation",
    "realized_counts",
]

SCENARIO_KINDS = (
    "equal_correlation",
    "fan_song",
    "independent_cauchy",
    "three_factor",
    "two_factor",
    "nonlinear_factor",
)

# Share of trailing columns tied to the leading block in the fan_song design.
_FAN_SONG_DEPENDENT_SHARE = 0.05
_FAN_SONG_SOURCE_COLUMNS = 10


class ConstantColumnError(ValueError):
    """A design column has zero sample standard deviation."""


def check_keys(data, what: str, required: tuple[str, ...], allowed: tuple[str, ...]) -> None:
    """Raise ValueError naming a required key missing from `data` or one not allowed."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{what} is missing required key {missing[0]!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}; expected one of {', '.join(allowed)}")


@dataclass(frozen=True)
class Scenario:
    """One dependence structure with its sampling parameters."""

    kind: str
    p: int = 2000
    n: int = 100
    p1: int = 10
    beta: float = 1.0
    sigma: float = 2.0
    rho: float = 0.5

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; expected one of {SCENARIO_KINDS}")
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 0 <= self.p1 <= self.p:
            raise ValueError(f"p1 must lie in [0, p], got {self.p1}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.kind == "equal_correlation" and not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        check_keys(data, "scenario", ("kind",), tuple(field.name for field in fields(cls)))
        return cls(**data)

    def with_p(self, p: int) -> "Scenario":
        return replace(self, p=p)


def generate_design(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """n x p design matrix; each row is an independent draw of the p-vector.

    Factor coefficients (where the structure has them) are drawn fresh per
    call, so repeated calls give independent designs from the same family.
    """
    n, p = scenario.n, scenario.p
    kind = scenario.kind
    if kind == "equal_correlation":
        rho = scenario.rho
        common = rng.standard_normal((n, 1))
        noise = rng.standard_normal((n, p))
        return np.sqrt(rho) * common + np.sqrt(1.0 - rho) * noise
    if kind == "fan_song":
        dependent = int(round(_FAN_SONG_DEPENDENT_SHARE * p))
        independent = p - dependent
        if dependent > 0 and independent < _FAN_SONG_SOURCE_COLUMNS:
            raise ValueError(
                f"fan_song needs at least {_FAN_SONG_SOURCE_COLUMNS} independent columns, got {independent}"
            )
        design = np.empty((n, p))
        design[:, :independent] = rng.standard_normal((n, independent))
        if dependent > 0:
            signs = (-1.0) ** np.arange(2, 2 + _FAN_SONG_SOURCE_COLUMNS)  # +, -, +, ...
            combo = design[:, :_FAN_SONG_SOURCE_COLUMNS] @ (signs / 5.0)
            load = _FAN_SONG_SOURCE_COLUMNS / 25.0
            design[:, independent:] = combo[:, None] + np.sqrt(1.0 - load) * rng.standard_normal(
                (n, dependent)
            )
        return design
    if kind == "independent_cauchy":
        # Inverse-CDF sampling; only sample correlations of the columns are
        # consumed downstream, so the heavy tails are harmless.
        return np.tan(np.pi * (rng.random((n, p)) - 0.5))
    if kind == "three_factor":
        coeffs = rng.uniform(-1.0, 1.0, size=(3, p))
        factors = rng.standard_normal((n, 3)) + np.array([-2.0, 1.0, 4.0])
        return factors @ coeffs + rng.standard_normal((n, p))
    if kind == "two_factor":
        coeffs = rng.uniform(-1.0, 1.0, size=(2, p))
        factors = rng.standard_normal((n, 2))
        return factors @ coeffs + rng.standard_normal((n, p))
    if kind == "nonlinear_factor":
        coeffs = rng.uniform(-1.0, 1.0, size=(2, p))
        factors = rng.standard_normal((n, 2))
        linear = np.sin(factors[:, :1] @ coeffs[:1])
        curved = np.sign(coeffs[1]) * np.exp(np.abs(coeffs[1]) * factors[:, 1:])
        return linear + curved + rng.standard_normal((n, p))
    raise AssertionError(f"unhandled scenario kind {kind!r}")


def standardize(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered design with unit-SD columns, and the column SDs (denominator n-1).

    Over sqrt(n-1), its Gram matrix is the sample correlation matrix.
    """
    design = np.asarray(design, dtype=float)
    n = design.shape[0]
    centered = design - design.mean(axis=0)
    sds = np.sqrt(np.sum(np.square(centered), axis=0) / (n - 1))
    if np.any(sds == 0.0):
        bad = int(np.flatnonzero(sds == 0.0)[0])
        raise ConstantColumnError(f"design column {bad} is constant")
    return centered / sds, sds


def sample_correlation(design: np.ndarray) -> tuple[CorrelationMatrix, np.ndarray]:
    """Sample correlation matrix and per-column sample SDs (denominator n-1)."""
    standardized, sds = standardize(design)
    return CorrelationMatrix.from_gram((standardized.T @ standardized) / (standardized.shape[0] - 1)), sds


def realized_counts(z: np.ndarray, true_nulls: np.ndarray, t: float) -> tuple:
    """(V, S, R): false, true, and total discoveries at threshold t.

    Counts along the last axis of z, so one statistic vector gives three
    integers and a (reps, p) batch gives three length-reps arrays.
    """
    rejected = two_sided_pvalue(np.asarray(z, dtype=float)) <= t
    total = np.count_nonzero(rejected, axis=-1)
    false_discoveries = np.count_nonzero(rejected[..., np.asarray(true_nulls, dtype=np.intp)], axis=-1)
    return false_discoveries, total - false_discoveries, total
