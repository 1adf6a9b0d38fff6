"""Probability densities on a grid.

Construction from samples (Gaussian-kernel KDE, binned and convolved
by FFT), trapezoidal moments, KL divergence and L1 distance, Tikhonov
smoothing, and the two-column CSV interchange format.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputDataError
from .grid import Grid, flux_bands

__all__ = [
    "DensityField",
    "MomentSet",
    "kde_estimate",
    "auto_bandwidth",
    "moments",
    "kl_divergence",
    "kl_divergence_rows",
    "l1_distance",
    "tikhonov_smooth",
    "write_density_csv",
    "read_density_csv",
    "read_csv_columns",
]

# floor added to the second argument of KL so log stays finite
KL_FLOOR = 1e-12

# binned KDE: lattice points per bandwidth, refinement cap, kernel reach
_KDE_POINTS_PER_BW = 8
_KDE_MAX_REFINE = 64
_KDE_REACH = 9.0


@dataclass(frozen=True)
class DensityField:
    """PDF values at grid nodes, frozen at one model time.

    Values are finite, nonnegative, and read-only. Producers in this
    package normalize to unit trapezoidal mass, except that a solve's
    rows keep the mass of its initial density; ``mass`` lets consumers
    check, and is integrated once per field.
    """

    grid: Grid
    values: np.ndarray
    time_stamp: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {v.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        if np.any(v < 0):
            raise ValueError("density values must be >= 0")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "time_stamp", float(self.time_stamp))

    @cached_property
    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid.nodes))

    @classmethod
    def normalized(cls, grid: Grid, values: np.ndarray, time_stamp: float) -> "DensityField":
        """Clip negatives to zero, renormalize to unit mass, construct."""
        v = np.clip(np.asarray(values, dtype=float), 0.0, None)
        m = np.trapezoid(v, grid.nodes)
        if not np.isfinite(m) or m <= 0.0:
            raise ValueError("cannot normalize: nonpositive or non-finite mass")
        return cls(grid=grid, values=v / m, time_stamp=time_stamp)


@dataclass(frozen=True)
class MomentSet:
    """Mean and variance of one density."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance >= 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance!r}")


def auto_bandwidth(samples: np.ndarray) -> float:
    """Normal-reference bandwidth 1.06 * sigma_hat * m**(-1/5).

    sigma_hat is the robust spread min(sample std, IQR/1.349); the
    sample std uses the unbiased (ddof=1) estimator.
    """
    s = np.asarray(samples, dtype=float)
    sd = float(np.std(s, ddof=1))
    q75, q25 = np.percentile(s, [75.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.349)
    if spread <= 0.0:
        raise ValueError(
            "zero sample spread: auto bandwidth undefined; pass an explicit "
            "bandwidth to build a delta-like density around the sample value"
        )
    return 1.06 * spread * s.size ** (-0.2)


def kde_estimate(
    samples,
    grid: Grid,
    bandwidth="auto",
    time_stamp: float = 0.0,
) -> DensityField:
    """Gaussian-kernel density estimate on the grid, unit mass.

    Binned FFT KDE (Silverman, Appl. Stat. AS 176, 1982; Wand, J.
    Comput. Graph. Stat. 3, 1994). The grid spacing dx is refined by
    r = min(64, ceil(8 dx / bw)), the lattice is padded by 9 bandwidths
    on each side, the samples are linearly binned onto it, the counts
    are convolved with the sampled Gaussian by FFT, and every r-th
    point is kept. Work is O(N + r n log(r n)) for N samples on n
    nodes, and memory is O(r n), independent of N.

    For bw >= dx / 8 the lattice holds at least 8 points per bandwidth
    and the result is within 1e-3 in L1 of the exact Gaussian sum at
    the nodes (the tests check bw / dx from 0.25 to 8). Below
    bw = dx / 8 the refinement stops at 64, each sample's weight is
    shared between its two neighbouring lattice points, and the result
    is no longer the exact nodal sum. Samples more than 9 bandwidths
    beyond the grid are dropped: at that distance the kernel is below
    e**-40 of its peak. The padding is also capped at 32 (n - 1)
    lattice points per side, so that memory stays O(r n) for any
    bandwidth. The cap binds only when bw exceeds about 3.5 grid
    widths; the estimate on the grid is then nearly flat, and the
    samples it drops move it by a few 1e-3 in L1.

    Parameters
    ----------
    samples : array_like
        Finite sample values. With ``bandwidth="auto"`` at least 10
        samples with nonzero spread are required (the bandwidth rule
        needs them); an explicit positive bandwidth lifts both limits.
    grid : Grid
        Evaluation grid. Should cover the samples out to 3 bandwidths;
        a warning is emitted otherwise.
    bandwidth : "auto" or positive float
    time_stamp : float
        Model time recorded on the result.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("no samples")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise ValueError(f"unknown bandwidth spec {bandwidth!r}")
        if s.size < 10:
            raise ValueError("auto bandwidth needs >= 10 samples")
        bw = auto_bandwidth(s)
    else:
        bw = float(bandwidth)
        if not bw > 0.0:
            raise ValueError("bandwidth must be > 0")
    if grid.x_min > s.min() - 3.0 * bw or grid.x_max < s.max() + 3.0 * bw:
        warnings.warn(
            "grid does not cover samples +- 3 bandwidths; KDE mass will be truncated",
            stacklevel=2,
        )
    n = grid.n_points
    refine = int(min(_KDE_MAX_REFINE, max(1.0, np.ceil(_KDE_POINTS_PER_BW * grid.spacing / bw))))
    h = grid.spacing / refine
    pad = int(min(np.ceil(_KDE_REACH * bw / h), _KDE_MAX_REFINE * (n - 1) // 2))
    # lattice point k sits at x_min + (k - pad) h; grid node i is point pad + r i
    size = refine * (n - 1) + 1 + 2 * pad
    u = (s - grid.x_min) / h + pad
    u = u[(u >= 0.0) & (u <= size - 1)]
    left = np.minimum(u.astype(np.intp), size - 2)
    frac = u - left
    counts = np.bincount(left, 1.0 - frac, size) + np.bincount(left + 1, frac, size)
    # circular convolution: no wrap reaches the nodes, which sit >= pad from both ends
    nfft = 1 << (size - 1).bit_length()
    half = np.exp(-0.5 * (np.arange(pad + 1) * (h / bw)) ** 2)
    kernel = np.zeros(nfft)
    kernel[: pad + 1] = half
    kernel[nfft - pad :] = half[:0:-1]
    smooth = np.fft.irfft(np.fft.rfft(counts, nfft) * np.fft.rfft(kernel), nfft)
    return DensityField.normalized(grid, smooth[pad : size - pad : refine], time_stamp)


def moments(f: DensityField) -> MomentSet:
    """Trapezoidal mean and variance.

    The input must be normalized: mass deviating from 1 by more than
    1e-3 is rejected.
    """
    m = f.mass
    if abs(m - 1.0) > 1e-3:
        raise ValueError(f"unnormalized density: mass {m!r}")
    x = f.grid.nodes
    mean = float(np.trapezoid(x * f.values, x))
    variance = float(np.trapezoid((x - mean) ** 2 * f.values, x))
    return MomentSet(mean=mean, variance=max(variance, 0.0))


def _require_comparable(p: DensityField, q: DensityField) -> None:
    if p.grid != q.grid:
        raise ValueError("density grids differ")


def kl_divergence(p: DensityField, q: DensityField) -> float:
    """KL(p || q) by trapezoidal quadrature, with a 1e-12 floor on q.

    Nodes where p <= 1e-12 contribute zero. Both densities must be on
    the same grid and normalized (mass within 1e-3 of 1). The result is
    one row of kl_divergence_rows, which scores many pairs in one pass,
    clamped at zero so that the reported score is never negative.
    """
    _require_comparable(p, q)
    return max(kl_divergence_rows(p.values[None], q.values[None], p.grid.nodes)[0], 0.0)


def kl_divergence_rows(
    p: np.ndarray, q: np.ndarray, x: np.ndarray, support: np.ndarray | None = None
) -> list[float]:
    """KL(p[i] || q[i]) for each row pair of two (m, n) arrays on nodes x.

    Row for row the arithmetic of kl_divergence, which calls it, but
    not clamped at zero: a q that carries more mass than p (a solve
    keeps its initial density's mass, up to 1e-3 off 1) lowers every
    row by about that excess and may take it below zero, and clamping
    would make such rows tie. Before scoring, the trapezoidal mass of
    every row is checked in order, p's before q's, and the first one
    off 1 by more than 1e-3 raises ValueError. A caller that scores
    many q against one p may pass support, ``p > KL_FLOOR``, once it
    has checked p's masses itself; then only q's are checked.
    """
    masses = np.trapezoid(q, x).tolist()
    if support is None:
        masses = [m for pair in zip(np.trapezoid(p, x).tolist(), masses) for m in pair]
        support = p > KL_FLOOR
    for mass in masses:
        if abs(mass - 1.0) > 1e-3:
            raise ValueError(f"unnormalized density: mass {mass!r}")
    ratio = np.ones_like(p)
    np.divide(p, q + KL_FLOOR, out=ratio, where=support)
    integrand = np.where(support, p * np.log(ratio), 0.0)
    return np.trapezoid(integrand, x).tolist()


def l1_distance(p: DensityField, q: DensityField) -> float:
    """Integral of |p - q| over the grid (trapezoidal)."""
    _require_comparable(p, q)
    return float(np.trapezoid(np.abs(p.values - q.values), p.grid.nodes))


def tikhonov_smooth(f: DensityField, lam: float = 1e-6) -> DensityField:
    """Roughness-penalized smoothing: solve (I + lam * E^T E) fhat = f.

    E is the solver's second difference, E2 of ``grid.flux_bands``:
    (1, -2, 1)/h^2 inside and the zero-flux (-2, 2)/h^2 at the walls.
    The system is symmetric positive definite for lam > 0 and
    pentadiagonal, so it is assembled in band storage and solved by
    banded Cholesky factorization in O(n); the result is clipped at zero
    and renormalized.
    """
    if not lam > 0.0:
        raise ValueError("lam must be > 0")
    n = f.grid.n_points
    _, e = flux_bands(f.grid)
    # upper band storage: entry (i, i + s) of E^T E sits at [2 - s, i + s];
    # it sums E[i + r, i] * E[i + r, i + s] over the rows i + r both
    # reach, and E's band holds zeros beyond the walls
    ab = np.zeros((3, n))
    for s in range(3):
        for r in range(s - 1, 2):
            ab[2 - s, s:] += e[1 + r, : n - s] * e[1 + r - s, s:]
    ab *= lam
    ab[2] += 1.0
    import scipy.linalg  # loaded at first use only

    try:
        fhat = scipy.linalg.solveh_banded(ab, f.values)
    except scipy.linalg.LinAlgError as exc:  # defensive: SPD by construction
        raise ValueError(f"smoothing system not positive definite: {exc}") from exc
    return DensityField.normalized(f.grid, fhat, f.time_stamp)


def write_density_csv(f: DensityField, path) -> None:
    """Write the `x,f` two-column format; floats as shortest round-trip."""
    rows = zip(f.grid.nodes.tolist(), f.values.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("x,f\n")
        fh.write("".join([f"{xi!r},{fi!r}\n" for xi, fi in rows]))


def _load_csv_table(path, dtype: np.dtype) -> np.ndarray | None:
    """Body of a plain numeric CSV as a structured array, or None.

    Accepts only files whose header splits on commas into exactly the
    field names of ``dtype``, whose body lines all hold that many
    unquoted fields parsing as the field types, and whose float fields
    are finite. Any other file, including one without data rows,
    returns None, and read_csv_columns hands it to _read_csv_rows,
    which accepts or rejects it with a message naming the line.
    """
    try:
        with open(path) as fh:
            if [c.strip() for c in fh.readline().split(",")] != list(dtype.names):
                return None
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if table.size == 0:
        return None
    for name in dtype.names:
        if dtype[name].kind == "f" and not np.all(np.isfinite(table[name])):
            return None
    return table


_DENSITY_DTYPE = np.dtype([("x", float), ("f", float)])


def _read_csv_rows(path, dtype: np.dtype) -> list[np.ndarray]:
    """Row-by-row parse for files the array parse does not take.

    Returns one array per field of ``dtype``. Integer fields are read
    by ``int`` at any size (an object array once a value leaves int64),
    float fields by ``float`` and must be finite. Blank rows are
    skipped; errors name the file and line.
    """
    names = list(dtype.names)
    readers = [float if dtype[name].kind == "f" else int for name in names]
    columns: list[list] = [[] for _ in names]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != names:
            raise InputDataError(f"{path}: expected header '{','.join(names)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise InputDataError(f"{path}:{lineno}: expected {len(names)} fields")
            try:
                values = [read(field) for read, field in zip(readers, row)]
            except ValueError as exc:
                raise InputDataError(f"{path}:{lineno}: {exc}") from exc
            if not all(np.isfinite(v) for read, v in zip(readers, values) if read is float):
                raise InputDataError(f"{path}:{lineno}: non-finite value")
            for column, value in zip(columns, values):
                column.append(value)
    arrays = []
    for name, column in zip(names, columns):
        try:
            arrays.append(np.array(column, dtype=dtype[name]))
        except OverflowError:
            arrays.append(np.array(column, dtype=object))
    return arrays


def read_csv_columns(path, dtype: np.dtype) -> list[np.ndarray]:
    """One array per field of ``dtype``: the array parse's columns when
    it takes the file, the row parser's otherwise."""
    table = _load_csv_table(path, dtype)
    if table is None:
        return _read_csv_rows(path, dtype)
    return [table[name] for name in dtype.names]


def read_density_csv(path, time_stamp: float = 0.0) -> DensityField:
    """Read the `x,f` format back; the x column must be uniform."""
    x, f = read_csv_columns(path, _DENSITY_DTYPE)
    if x.size < 8:
        raise InputDataError(f"{path}: fewer than 8 rows")
    steps = np.diff(x)
    if np.any(steps <= 0) or np.max(np.abs(steps - steps.mean())) > 1e-9 * abs(steps.mean()):
        raise InputDataError(f"{path}: x column is not a uniform increasing grid")
    grid = Grid(x[0], x[-1], len(x))
    try:
        return DensityField(grid=grid, values=f, time_stamp=time_stamp)
    except ValueError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
