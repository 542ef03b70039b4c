"""Finite lattice cubes, disorder fields, and tight-binding Hamiltonians.

The cube of half-side L in dimension d is the set of integer points with every
coordinate in [-L, L], enumerated in lexicographic order.  The Hamiltonian on
the cube is the discrete Laplacian (unit hopping between nearest neighbors,
open boundary: couplings to sites outside the cube are simply dropped) plus
the diagonal disorder field.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import rng
from .dists import SiteDistribution

__all__ = [
    "DEFAULT_SITE_BUDGET",
    "DENSE_BYTE_BUDGET",
    "LatticeCube",
    "DisorderField",
    "Hamiltonian",
    "enumerate_cube",
    "interior_cube",
    "sample_disorder",
    "nested_disorder",
    "scale_sites",
    "assemble_hamiltonian",
    "spectrum_support",
]

DEFAULT_SITE_BUDGET = 1_000_000
# largest dense N x N float64 matrix (in bytes) that may be allocated: 1 GiB
DENSE_BYTE_BUDGET = 1 << 30


class LatticeCube:
    """Cube of half-side L in Z^d with a fixed lexicographic site order.

    Attributes:
        d: dimension (>= 1).
        L: half-side (>= 0); the cube has (2L+1)^d sites.
        sites: (N, d) int array, rows sorted lexicographically.

    ``index(site)`` maps coordinates back to their row by stride arithmetic.
    """

    def __init__(self, d: int, L: int, sites: np.ndarray):
        self.d = d
        self.L = L
        self.sites = sites
        self.sites.setflags(write=False)
        self._neighbor_pairs = None

    def index(self, site) -> int:
        """Row of ``site``: the base-(2L+1) number with digits ``c + L``.

        Raises KeyError for a site outside the cube or with other than d
        coordinates.
        """
        coords = tuple(site)
        if len(coords) != self.d or not all(c == int(c) and abs(c) <= self.L for c in coords):
            raise KeyError(site)
        row = 0
        for c in coords:
            row = row * (2 * self.L + 1) + int(c) + self.L
        return row

    def __len__(self) -> int:
        return len(self.sites)

    def __repr__(self) -> str:
        return f"LatticeCube(d={self.d}, L={self.L}, sites={len(self)})"

    def neighbor_pairs(self) -> np.ndarray:
        """(m, 2) array of index pairs (i, j), i < j, at l1 distance 1.

        In lexicographic order the neighbor one step up along ``axis`` sits
        (2L+1)^(d-1-axis) rows further down, whenever that coordinate is < L.
        """
        if self._neighbor_pairs is None:
            rows = np.arange(len(self), dtype=np.int64)
            blocks = []
            for axis in range(self.d):
                i = rows[self.sites[:, axis] < self.L]
                blocks.append(np.stack([i, i + (2 * self.L + 1) ** (self.d - 1 - axis)], axis=1))
            arr = np.concatenate(blocks)
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            arr.setflags(write=False)
            self._neighbor_pairs = arr
        return self._neighbor_pairs

    def degree(self, index: int) -> int:
        """Number of cube neighbors of the site at ``index``."""
        site = self.sites[index]
        return int(np.sum(site > -self.L) + np.sum(site < self.L))


def enumerate_cube(d: int, L: int, max_sites: int = DEFAULT_SITE_BUDGET) -> LatticeCube:
    """Enumerate the cube of half-side L in Z^d.

    Raises ValueError when (2L+1)^d exceeds ``max_sites`` (memory guard).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if L < 0:
        raise ValueError(f"half-side must be >= 0, got {L}")
    n_sites = (2 * L + 1) ** d
    if n_sites > max_sites:
        raise ValueError(
            f"cube with (2*{L}+1)^{d} = {n_sites} sites exceeds the budget of "
            f"{max_sites}"
        )
    grids = np.meshgrid(*[np.arange(-L, L + 1, dtype=np.int64)] * d, indexing="ij")
    sites = np.stack([g.ravel() for g in grids], axis=1)
    return LatticeCube(d, L, sites)


def interior_cube(cube: LatticeCube, p: int) -> set[int]:
    """Indices of sites with every |coordinate| < L - p; empty when p >= L."""
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    bound = cube.L - p
    if bound <= 0:
        return set()
    mask = np.all(np.abs(cube.sites) < bound, axis=1)
    return set(np.nonzero(mask)[0].tolist())


class DisorderField:
    """One disorder realization on a cube.

    ``values[i]`` is the potential at ``cube.sites[i]``.  ``provenance`` is
    the (master_seed, replicate, distribution label) triple that regenerates
    the field bit-for-bit; fields derived by transformations keep the
    provenance and extend ``lineage``.
    """

    def __init__(self, cube: LatticeCube, values: np.ndarray, provenance, lineage: str = ""):
        if len(values) != len(cube):
            raise ValueError("field values must be indexed exactly by cube sites")
        self.cube = cube
        self.values = np.asarray(values, dtype=np.float64)
        self.values.setflags(write=False)
        self.provenance = provenance
        self.lineage = lineage

    def value_at(self, site) -> float:
        return float(self.values[self.cube.index(site)])


def sample_disorder(
    dist: SiteDistribution, cube: LatticeCube, master_seed: int, replicate: int
) -> DisorderField:
    """Draw i.i.d. site values; pure function of (seed, replicate, site index, dist)."""
    uniforms = rng.uniform_stream(
        master_seed, f"disorder|{dist.label}", replicate, len(cube)
    )
    values = dist.ppf(uniforms)
    return DisorderField(cube, values, (master_seed, replicate, dist.label))


def nested_disorder(
    dist: SiteDistribution, cube: LatticeCube, master_seed: int
) -> DisorderField:
    """Draw the restriction of a single infinite realization to the cube.

    Values are keyed by the site coordinates themselves, so enlarging the cube
    never changes the values on the smaller one.
    """
    uniforms = rng.uniform_at_sites(master_seed, f"nested|{dist.label}", cube.sites)
    values = dist.ppf(uniforms)
    return DisorderField(cube, values, (master_seed, "nested", dist.label))


def scale_sites(field: DisorderField, sites, u: float) -> DisorderField:
    """Multiply the values on ``sites`` (coordinate tuples) by u in [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"scale factor must lie in [0, 1], got {u}")
    values = field.values.copy()
    count = 0
    for site in sites:
        key = tuple(int(c) for c in np.atleast_1d(site))
        try:
            values[field.cube.index(key)] *= u
        except KeyError:
            raise ValueError(f"site {key} is outside the cube") from None
        count += 1
    return DisorderField(
        field.cube,
        values,
        field.provenance,
        lineage=field.lineage + f"|scaled(u={u},sites={count})",
    )


class Hamiltonian:
    """The cube-restricted operator: Laplacian plus the diagonal disorder.

    Only the diagonal is stored.  Row/column i of ``matrix`` corresponds to
    ``cube.sites[i]``; off-diagonal entries are 1 exactly on nearest-neighbor
    pairs and 0 elsewhere.
    """

    def __init__(self, cube: LatticeCube, diagonal: np.ndarray, provenance=None):
        self.cube = cube
        self.diagonal = np.asarray(diagonal, dtype=np.float64)
        self.diagonal.setflags(write=False)
        self.provenance = provenance

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense matrix, built on first access and cached read-only; raises
        ValueError before allocating more than ``DENSE_BYTE_BUDGET`` bytes."""
        n = len(self.cube)
        if n * n * 8 > DENSE_BYTE_BUDGET:
            raise ValueError(
                f"a dense {n} x {n} matrix needs {n * n * 8} bytes, over the "
                f"budget of {DENSE_BYTE_BUDGET} bytes"
            )
        matrix = np.zeros((n, n), dtype=np.float64)
        pairs = self.cube.neighbor_pairs()
        matrix[pairs[:, 0], pairs[:, 1]] = 1.0
        matrix[pairs[:, 1], pairs[:, 0]] = 1.0
        matrix[np.arange(n), np.arange(n)] = self.diagonal
        matrix.setflags(write=False)
        return matrix

    @property
    def is_chain(self) -> bool:
        """True when the matrix is tridiagonal (d = 1 in canonical order)."""
        return self.cube.d == 1

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) bands; only valid for chains."""
        if not self.is_chain:
            raise ValueError("tridiagonal form is only available for d = 1")
        return self.diagonal, np.ones(len(self.cube) - 1)


def assemble_hamiltonian(cube: LatticeCube, field: DisorderField) -> Hamiltonian:
    """Laplacian plus diagonal disorder, open boundary."""
    if field.cube is not cube and (
        field.cube.d != cube.d or field.cube.L != cube.L
    ):
        raise ValueError(
            f"field lives on a (d={field.cube.d}, L={field.cube.L}) cube, "
            f"expected (d={cube.d}, L={cube.L})"
        )
    return Hamiltonian(cube, field.values, provenance=field.provenance)


def spectrum_support(dist: SiteDistribution, d: int) -> tuple[float, float] | None:
    """Interval hull [-2d, 2d] + supp(dist); None when the support is unbounded."""
    supp = dist.support()
    if supp is None:
        return None
    return -2.0 * d + supp[0], 2.0 * d + supp[1]
