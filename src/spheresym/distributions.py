"""Seeded samplers for the distribution families used in the studies.

Every family is a frozen dataclass; :func:`sample` dispatches on the type and
draws n rows deterministically from an :class:`~spheresym.rng.RngStream`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Sample
from .oracle import CovSpec
from .rng import RngStream


@dataclass(frozen=True)
class Gaussian:
    """Centered Gaussian; either equicorrelation rho or an explicit matrix.

    With ``rho`` set, the scatter matrix is (1 - rho) I + rho 11^T.  A nonzero
    ``rho`` with ``sigma`` given is refused: one of them would be ignored.
    ``sigma`` must pass :class:`~spheresym.oracle.CovSpec`'s checks (finite,
    symmetric, positive semi-definite) and have the Cholesky factor that
    sampling draws with (``_sigma_factor``).
    """

    d: int
    rho: float = 0.0
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.sigma is not None:
            if self.rho != 0.0:
                raise ValueError(f"give rho or sigma, not both; got rho={self.rho} with sigma")
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.shape != (self.d, self.d):
                raise ValueError(f"sigma must be {self.d} x {self.d}")
            sigma = CovSpec(sigma).sigma
            try:
                _sigma_factor(sigma)
            except np.linalg.LinAlgError:
                raise ValueError("sigma cannot be sampled: sigma + 1e-14 I has no Cholesky factor, "
                                 "so sigma is numerically indefinite") from None
            object.__setattr__(self, "sigma", sigma)

    def covariance(self) -> np.ndarray:
        if self.sigma is not None:
            return self.sigma
        return (1.0 - self.rho) * np.eye(self.d) + self.rho * np.ones((self.d, self.d))


@dataclass(frozen=True)
class SphericalT:
    """Spherical multivariate t with nu degrees of freedom; nu = 1 is Cauchy."""

    d: int
    nu: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not (1 <= self.nu < math.inf):
            raise ValueError(f"nu must be finite and >= 1, got {self.nu}")


@dataclass(frozen=True)
class LpSymmetric:
    """X = R * Y / ||Y||_p with R ~ Unif(9, 10).

    p = inf: Y uniform on the unit hypercube (sup-norm direction).
    p = 1:   Y with independent standard Laplace coordinates.
    """

    d: int
    p: float  # 1 or math.inf

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.p not in (1, math.inf):
            raise ValueError(f"p must be 1 or inf, got {self.p}")


@dataclass(frozen=True)
class AngularSymmetric:
    """X = R U on S^4 with R | U = u uniform on (0, theta_u).

    theta_u is 10, 50 or 100 depending on the signs of the coordinates of u.
    """

    d: int = 5

    def __post_init__(self):
        if self.d != 5:
            raise ValueError("angular-symmetric family is defined for d = 5")


@dataclass(frozen=True)
class FourComponentMixture:
    """Equal mixture of four unit-covariance normals in R^5.

    Means are +-(1,1,1,1,1) and +-(1,-1,1,-1,1).
    """

    d: int = 5

    def __post_init__(self):
        if self.d != 5:
            raise ValueError("four-component mixture is defined for d = 5")


# The largest spike scale at which a 10-standard-deviation draw, squared, stays finite.
SPIKE_LIMIT = math.sqrt(sys.float_info.max) / 10.0


@dataclass(frozen=True)
class Spiked:
    """Gaussian with diagonal covariance (d^gamma, 1, ..., 1).

    ``gamma`` must be finite, and the spike scale d ** (gamma / 2) at most
    :data:`SPIKE_LIMIT`, so that even a 10-standard-deviation draw has a finite
    squared row norm.
    """

    d: int
    gamma: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        try:
            scale = self.d ** (self.gamma / 2.0)  # the spike scale sample() multiplies by
        except OverflowError:
            scale = math.inf
        if not (math.isfinite(self.gamma) and scale <= SPIKE_LIMIT):
            raise ValueError(f"gamma must be finite, with d ** (gamma / 2) <= {SPIKE_LIMIT:.4g} "
                             f"(row norms would overflow float64), got {self.gamma}")


@dataclass(frozen=True)
class Contaminated:
    """Mixture (1 - delta) F + delta G, component drawn per observation."""

    delta: float
    component_f: "DistributionSpec"
    component_g: "DistributionSpec"

    def __post_init__(self):
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if self.component_f.d != self.component_g.d:
            raise ValueError("mixture components must share the dimension")

    @property
    def d(self) -> int:
        return self.component_f.d


@dataclass(frozen=True, eq=False)
class Subsample:
    """Rows drawn without replacement from a fixed data matrix.

    ``label`` names the data in result records.  Instances compare by
    identity: an elementwise ``==`` on the matrix has no single truth value.
    ``data`` must pass :class:`~spheresym.core.Sample`'s checks (2-d,
    non-empty, finite), so a bad matrix is refused before any draw.
    """

    data: np.ndarray
    label: str

    def __post_init__(self):
        object.__setattr__(self, "data", Sample(self.data).data)

    @property
    def d(self) -> int:
        return self.data.shape[1]


DistributionSpec = Union[
    Gaussian, SphericalT, LpSymmetric, AngularSymmetric, FourComponentMixture, Spiked, Contaminated, Subsample
]


def describe(spec: DistributionSpec) -> str:
    """Short printable descriptor used in result records."""
    if isinstance(spec, Gaussian):
        if spec.sigma is not None:
            return f"gaussian(sigma=custom,d={spec.d})"
        return f"gaussian(rho={spec.rho},d={spec.d})"
    if isinstance(spec, SphericalT):
        return f"t(nu={spec.nu},d={spec.d})"
    if isinstance(spec, LpSymmetric):
        p = "inf" if spec.p == math.inf else str(int(spec.p))
        return f"lp(p={p},d={spec.d})"
    if isinstance(spec, AngularSymmetric):
        return f"angular(d={spec.d})"
    if isinstance(spec, FourComponentMixture):
        return f"mixture4(d={spec.d})"
    if isinstance(spec, Spiked):
        return f"spiked(gamma={spec.gamma},d={spec.d})"
    if isinstance(spec, Contaminated):
        return f"contaminated(delta={spec.delta},f={describe(spec.component_f)},g={describe(spec.component_g)})"
    if isinstance(spec, Subsample):
        return f"subsample({spec.label})"
    raise TypeError(f"unknown distribution spec: {spec!r}")


def _laplace_inverse_cdf(u: np.ndarray) -> np.ndarray:
    # standard Laplace quantile function, for platform-stable draws
    centered = u - 0.5
    return -np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


def _sigma_factor(sigma: np.ndarray) -> np.ndarray:
    """The Cholesky factor of sigma + 1e-14 I that a ``Gaussian(sigma=...)`` draw multiplies by."""
    return np.linalg.cholesky(sigma + 1e-14 * np.eye(len(sigma)))


def _sample_rows(spec: DistributionSpec, n: int, gen: np.random.Generator) -> np.ndarray:
    d = spec.d
    if isinstance(spec, Gaussian):
        z = gen.standard_normal((n, d))
        if spec.sigma is not None:
            return z @ _sigma_factor(spec.sigma).T
        if spec.rho == 0.0:
            return z
        z0 = gen.standard_normal(n)
        return np.sqrt(1.0 - spec.rho) * z + np.sqrt(spec.rho) * z0[:, None]

    if isinstance(spec, SphericalT):
        z = gen.standard_normal((n, d))
        w = gen.chisquare(spec.nu, size=n)
        return z / np.sqrt(w / spec.nu)[:, None]

    if isinstance(spec, LpSymmetric):
        r = gen.uniform(9.0, 10.0, size=n)
        if spec.p == math.inf:
            y = gen.uniform(-1.0, 1.0, size=(n, d))
            norms = np.abs(y).max(axis=1)
        else:
            y = _laplace_inverse_cdf(gen.uniform(0.0, 1.0, size=(n, d)))
            norms = np.abs(y).sum(axis=1)
        return r[:, None] * y / norms[:, None]

    if isinstance(spec, AngularSymmetric):
        z = gen.standard_normal((n, d))
        u = z / np.linalg.norm(z, axis=1)[:, None]
        theta = np.where(
            u[:, 0] * u[:, 1] > 0,
            10.0,
            np.where(u[:, 2] * u[:, 3] * u[:, 4] > 0, 50.0, 100.0),
        )
        r = gen.uniform(0.0, theta)
        return r[:, None] * u

    if isinstance(spec, FourComponentMixture):
        beta = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        means = np.stack([np.ones(5), -np.ones(5), beta, -beta])
        comp = gen.integers(0, 4, size=n)
        return gen.standard_normal((n, d)) + means[comp]

    if isinstance(spec, Spiked):
        z = gen.standard_normal((n, d))
        z[:, 0] *= spec.d ** (spec.gamma / 2.0)
        return z

    if isinstance(spec, Contaminated):
        if spec.delta == 0.0:
            return _sample_rows(spec.component_f, n, gen)
        if spec.delta == 1.0:
            return _sample_rows(spec.component_g, n, gen)
        pick_g = gen.uniform(size=n) < spec.delta
        rows_f = _sample_rows(spec.component_f, n, gen)
        rows_g = _sample_rows(spec.component_g, n, gen)
        return np.where(pick_g[:, None], rows_g, rows_f)

    if isinstance(spec, Subsample):
        return spec.data[gen.choice(len(spec.data), size=n, replace=False)]

    raise TypeError(f"unknown distribution spec: {spec!r}")


def sample(spec: DistributionSpec, n: int, rng: RngStream) -> Sample:
    """Draw n i.i.d. rows from the family; deterministic given the stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Sample(_sample_rows(spec, n, rng.generator()))
