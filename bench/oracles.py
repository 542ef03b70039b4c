"""Independent oracles that the benchmark checks pass outputs against.

Nothing here reuses the library's assembly, spectral or enumeration code: the
Hamiltonian is rebuilt from site coordinates and disorder values, spectra come
from dense ``numpy.linalg.eigvalsh``, exact expectations from brute-force
integer enumeration, and spectral-measure moments from a walk count written
independently of ``andersonclt.walks``.  Every oracle assumes Rademacher
(+/-1, probability 1/2) disorder, which is the only law the workloads use.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

# thresholds of the CLI normality verdicts, as clt.normality_thresholds states
# them: 3 asymptotic null SDs for skewness and excess kurtosis, 1.95 for the
# sqrt(R)-scaled Kolmogorov-Smirnov statistic
NORMALITY_THRESHOLDS = {
    "skewness": lambda r: 3.0 * math.sqrt(6.0 / r),
    "excess-kurtosis": lambda r: 3.0 * math.sqrt(24.0 / r),
    "ks": lambda r: 1.95,
}


def adjacency(sites: np.ndarray) -> np.ndarray:
    """0/1 matrix of nearest-neighbor pairs (l1 distance 1) among ``sites``."""
    sites = np.asarray(sites, dtype=np.int64)
    dist = np.abs(sites[:, None, :] - sites[None, :, :]).sum(axis=2)
    return (dist == 1).astype(np.float64)


def dense_spectrum(adj: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(adj + np.diag(np.asarray(values, dtype=np.float64)))


def normality_statistics(x: np.ndarray) -> dict:
    """Skewness, excess kurtosis and KS distance of centered samples.

    Moment estimators are the biased (population) ones; the KS statistic is
    taken against the standard normal after scaling by sqrt(sum x^2 / (R-1)).
    """
    x = np.asarray(x, dtype=np.float64)
    r = len(x)
    dev = x - x.mean()
    m2 = float(np.mean(dev**2))
    m3 = float(np.mean(dev**3))
    m4 = float(np.mean(dev**4))
    z = np.sort(x / math.sqrt(float(np.sum(x * x)) / (r - 1)))
    cdf = ndtr(z)
    i = np.arange(1, r + 1)
    ks = float(max(np.max(i / r - cdf), np.max(cdf - (i - 1) / r)))
    return {
        "skewness": m3 / m2**1.5,
        "excess-kurtosis": m4 / m2**2 - 3.0,
        "ks": ks * math.sqrt(r),
    }


def rademacher_configs(n_sites: int) -> np.ndarray:
    """All 2^n sign vectors, one per row."""
    return np.array(list(itertools.product((1, -1), repeat=n_sites)), dtype=np.int64)


def exact_trace_power_variance(sites: np.ndarray, power: int) -> Fraction:
    """Var(Tr H^power) over all Rademacher configurations, in exact integers."""
    adj = adjacency(sites).astype(np.int64)
    configs = rademacher_configs(len(sites))
    mats = np.broadcast_to(adj, (len(configs),) + adj.shape).copy()
    idx = np.arange(len(sites))
    mats[:, idx, idx] = configs
    prod = mats
    for _ in range(power - 1):
        prod = prod @ mats
    traces = [int(t) for t in np.trace(prod, axis1=1, axis2=2)]
    n = len(traces)
    mean = Fraction(sum(traces), n)
    return Fraction(sum(t * t for t in traces), n) - mean * mean


def float_trace_variance(sites: np.ndarray, fn) -> float:
    """Var(Tr fn(H)) over all Rademacher configurations, by dense spectra."""
    adj = adjacency(sites)
    configs = rademacher_configs(len(sites)).astype(np.float64)
    mats = np.broadcast_to(adj, (len(configs),) + adj.shape).copy()
    idx = np.arange(len(sites))
    mats[:, idx, idx] = configs
    traces = np.sum(fn(np.linalg.eigvalsh(mats)), axis=1)
    return float(np.mean((traces - np.mean(traces)) ** 2))


def rademacher_dos_moment(d: int, k: int) -> int:
    """E <delta_0, H^k delta_0> on Z^d with Rademacher disorder, by walk count.

    A word in hops and pauses contributes 1 exactly when it returns to the
    origin and pauses an even number of times at every site (E v^j = 1 for
    even j, 0 for odd j); states track the set of sites with an odd count.
    """
    origin = (0,) * d
    moves = []
    for axis in range(d):
        for step in (-1, 1):
            moves.append(tuple(step if a == axis else 0 for a in range(d)))
    state = {(origin, frozenset()): 1}
    for _ in range(k):
        nxt = {}
        for (pos, odd), count in state.items():
            for mv in moves:
                key = (tuple(p + m for p, m in zip(pos, mv)), odd)
                nxt[key] = nxt.get(key, 0) + count
            key = (pos, odd ^ {pos})
            nxt[key] = nxt.get(key, 0) + count
        state = nxt
    return state.get((origin, frozenset()), 0)
