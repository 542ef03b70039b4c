"""Single-site disorder distributions with exact moment data.

Each distribution knows its raw moments, its absolute moments (exact, or a
certified upper bound), a growth certificate ``(C, a)`` with
``E|x|^k <= C * a^k * k^k``, and an inverse-CDF transform so that disorder
values are a pure function of the underlying uniform stream.

Two-point and uniform laws carry `fractions.Fraction` parameters and return
exact rational moments; Gaussian moments are floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtri

__all__ = [
    "SiteDistribution",
    "TwoPoint",
    "Uniform",
    "Gaussian",
    "rademacher",
    "distribution_from_config",
]

_TINY = 2.0**-53  # keeps the Gaussian inverse CDF away from u = 0


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact value of the binary float
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class SiteDistribution:
    """Common interface; see the concrete laws below."""

    kind = "abstract"

    def moment(self, k: int):
        """Raw moment E(x^k); exact Fraction where the law is rational."""
        raise NotImplementedError

    def abs_moment(self, k: int):
        """Absolute moment E|x|^k, exact or a certified upper bound."""
        raise NotImplementedError

    def growth_constants(self) -> tuple[float, float]:
        """(C, a) with E|x|^k <= C * a^k * k^k for all k >= 1."""
        raise NotImplementedError

    def support(self) -> tuple[float, float] | None:
        """Support interval hull, or None when unbounded."""
        raise NotImplementedError

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF applied to uniforms on [0, 1)."""
        raise NotImplementedError

    @property
    def is_exact(self) -> bool:
        """True when moment() returns exact rationals."""
        return False

    @property
    def label(self) -> str:
        raise NotImplementedError

    def variance(self):
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1


@dataclass(frozen=True)
class TwoPoint(SiteDistribution):
    """Two-point law: value ``a`` with probability ``prob_a``, else ``b``."""

    a: Fraction
    b: Fraction
    prob_a: Fraction

    kind = "two_point"

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        object.__setattr__(self, "prob_a", _as_fraction(self.prob_a))
        if self.a == self.b:
            raise ValueError("two_point needs a != b (non-degenerate)")
        if not (0 < self.prob_a < 1):
            raise ValueError("two_point needs 0 < prob_a < 1")

    def moment(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        return self.prob_a * self.a**k + (1 - self.prob_a) * self.b**k

    def abs_moment(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        return self.prob_a * abs(self.a) ** k + (1 - self.prob_a) * abs(self.b) ** k

    def growth_constants(self) -> tuple[float, float]:
        return 1.0, float(max(Fraction(1), abs(self.a), abs(self.b)))

    def support(self) -> tuple[float, float]:
        lo, hi = sorted((self.a, self.b))
        return float(lo), float(hi)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(u) < float(self.prob_a), float(self.a), float(self.b))

    @property
    def is_exact(self) -> bool:
        return True

    @property
    def label(self) -> str:
        return f"two_point({self.a},{self.b},{self.prob_a})"


@dataclass(frozen=True)
class Uniform(SiteDistribution):
    """Continuous uniform law on [lo, hi]."""

    lo: Fraction
    hi: Fraction

    kind = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_fraction(self.lo))
        object.__setattr__(self, "hi", _as_fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError("uniform needs lo < hi")

    def moment(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)
        return (self.hi ** (k + 1) - self.lo ** (k + 1)) / ((k + 1) * (self.hi - self.lo))

    def abs_moment(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1)

        def signed_power(x: Fraction) -> Fraction:
            p = abs(x) ** (k + 1)
            return p if x >= 0 else -p

        return (signed_power(self.hi) - signed_power(self.lo)) / (
            (k + 1) * (self.hi - self.lo)
        )

    def growth_constants(self) -> tuple[float, float]:
        return 1.0, float(max(Fraction(1), abs(self.lo), abs(self.hi)))

    def support(self) -> tuple[float, float]:
        return float(self.lo), float(self.hi)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        lo, hi = float(self.lo), float(self.hi)
        return lo + (hi - lo) * np.asarray(u)

    @property
    def is_exact(self) -> bool:
        return True

    @property
    def label(self) -> str:
        return f"uniform({self.lo},{self.hi})"


@dataclass(frozen=True)
class Gaussian(SiteDistribution):
    """Normal law N(mean, std^2)."""

    mean: float
    std: float

    kind = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "std", float(self.std))
        if not self.std > 0:
            raise ValueError("gaussian needs std > 0")

    @staticmethod
    def _std_normal_moment(j: int) -> int:
        # E(Z^j) = (j-1)!! for even j, 0 for odd j
        if j % 2 == 1:
            return 0
        out = 1
        for m in range(j - 1, 0, -2):
            out *= m
        return out

    @staticmethod
    def _std_normal_abs_moment(j: int) -> float:
        # E|Z|^j = 2^(j/2) Gamma((j+1)/2) / sqrt(pi)
        if j == 0:
            return 1.0
        return 2.0 ** (j / 2.0) * math.gamma((j + 1) / 2.0) / math.sqrt(math.pi)

    def moment(self, k: int) -> float:
        total = 0.0
        for j in range(0, k + 1, 2):
            total += (
                math.comb(k, j)
                * self.mean ** (k - j)
                * self.std**j
                * self._std_normal_moment(j)
            )
        return total

    def abs_moment(self, k: int) -> float:
        # E|mean + std Z|^k <= E(|mean| + std |Z|)^k, exact when mean == 0
        total = 0.0
        for j in range(k + 1):
            total += (
                math.comb(k, j)
                * abs(self.mean) ** (k - j)
                * self.std**j
                * self._std_normal_abs_moment(j)
            )
        return total

    def growth_constants(self) -> tuple[float, float]:
        # verified against abs_moment for k <= 40 in the test suite
        return 1.0, 2.0 * self.std + abs(self.mean) + 1.0

    def support(self) -> None:
        return None

    def ppf(self, u: np.ndarray) -> np.ndarray:
        u = np.clip(np.asarray(u), _TINY, 1.0 - _TINY)
        return self.mean + self.std * ndtri(u)

    @property
    def label(self) -> str:
        return f"gaussian({self.mean!r},{self.std!r})"


def rademacher() -> TwoPoint:
    """Symmetric +/-1 disorder."""
    return TwoPoint(Fraction(1), Fraction(-1), Fraction(1, 2))


def distribution_from_config(cfg) -> SiteDistribution:
    """Build a distribution from a config mapping or a shorthand name."""
    if isinstance(cfg, str):
        if cfg == "rademacher":
            return rademacher()
        raise ValueError(f"unknown distribution shorthand {cfg!r}")
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError("ssd config must be a mapping with a 'kind' field")
    kind = cfg["kind"]
    try:
        if kind == "two_point":
            return TwoPoint(
                _as_fraction(cfg["a"]), _as_fraction(cfg["b"]), _as_fraction(cfg["prob_a"])
            )
        if kind == "uniform":
            return Uniform(_as_fraction(cfg["lo"]), _as_fraction(cfg["hi"]))
        if kind == "gaussian":
            return Gaussian(float(cfg["mean"]), float(cfg["std"]))
    except KeyError as exc:
        raise ValueError(f"ssd config for kind={kind!r} is missing field {exc}") from exc
    raise ValueError(f"unknown ssd kind {kind!r}")
