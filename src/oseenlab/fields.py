"""Periodic-box grids, field containers, spectral transforms, and dealiased products.

The computational domain is the box [0, 2*pi*L)^dim with periodic boundary
conditions, so admissible wavenumbers are integer multiples of 1/L per axis.
Coefficients follow the forward-normalized convention: the coefficient at the
zero wavenumber equals the box mean of the field.

Nyquist modes (|m| = N/2) carry no usable derivative information on a real
grid; first-derivative multipliers are zeroed there, and every composite
operator downstream (Laplacian, Leray projector, Oseen symbols) is built from
the same zeroed wavenumbers so that operator compositions are exact
coefficientwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np
from scipy import fft as _sfft

_fft_workers = 1


def set_fft_workers(count: int) -> None:
    """Set the worker count used by all FFT calls in this package."""
    global _fft_workers
    count = int(count)
    if count < 1:
        raise ValueError("fft worker count must be a positive integer")
    _fft_workers = count


def get_fft_workers() -> int:
    """Return the current FFT worker count."""
    return _fft_workers


def _fftn(values: np.ndarray, dim: int) -> np.ndarray:
    axes = tuple(range(-dim, 0))
    return _sfft.fftn(values, axes=axes, norm="forward", workers=_fft_workers)


def _ifftn(coefficients: np.ndarray, dim: int) -> np.ndarray:
    axes = tuple(range(-dim, 0))
    return _sfft.ifftn(coefficients, axes=axes, norm="forward", workers=_fft_workers)


def _rfftn(values: np.ndarray, dim: int) -> np.ndarray:
    axes = tuple(range(-dim, 0))
    return _sfft.rfftn(values, axes=axes, norm="forward", workers=_fft_workers)


def _irfftn(coefficients: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    axes = tuple(range(-len(shape), 0))
    return _sfft.irfftn(
        coefficients, s=shape, axes=axes, norm="forward", workers=_fft_workers
    )


def _lock(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the box [0, 2*pi*half_period)^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    half_period : float
        The length scale L; the box edge is 2*pi*L.
    points_per_axis : int
        Even number of grid points per axis.
    dealias_fraction : float
        Fraction of the Nyquist range retained by dealiasing; the retained
        cutoff is floor(dealias_fraction * N / 2) in integer mode units.
    """

    dim: int
    half_period: float
    points_per_axis: int
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        n = self.points_per_axis
        if not isinstance(n, (int, np.integer)) or n <= 0 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be a positive even integer, got {n}")
        if not self.half_period > 0:
            raise ValueError(f"half_period must be positive, got {self.half_period}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @cached_property
    def spacing(self) -> float:
        return 2.0 * np.pi * self.half_period / self.points_per_axis

    @cached_property
    def volume(self) -> float:
        return (2.0 * np.pi * self.half_period) ** self.dim

    @cached_property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @cached_property
    def box_edge(self) -> float:
        return 2.0 * np.pi * self.half_period

    @cached_property
    def center(self) -> tuple[float, ...]:
        return (np.pi * self.half_period,) * self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Grid coordinates along one axis, shape (N,)."""
        n = self.points_per_axis
        return np.arange(n) * self.spacing

    def coordinates(self) -> list[np.ndarray]:
        """Sparse broadcastable coordinate arrays, one per axis."""
        x = self.axis_coordinates()
        return list(np.meshgrid(*([x] * self.dim), indexing="ij", sparse=True))

    @cached_property
    def mode_numbers(self) -> np.ndarray:
        """Integer mode indices per axis in FFT layout, shape (N,)."""
        n = self.points_per_axis
        return _lock(np.rint(_sfft.fftfreq(n) * n).astype(np.int64))

    def _axis_profile(self, values: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * self.dim
        shape[axis] = values.size
        return values.reshape(shape)

    def wavenumber(self, axis: int) -> np.ndarray:
        """Broadcastable wavenumber xi_axis = m/L with the Nyquist mode zeroed.

        ``axis`` is zero-based.  The Nyquist mode is zeroed because an odd
        derivative of the real Nyquist component is not representable on the
        grid; all derivative-like multipliers share this convention.
        """
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis must lie in [0, {self.dim}), got {axis}")
        m = self.mode_numbers.astype(np.float64)
        m = np.where(np.abs(self.mode_numbers) == self.points_per_axis // 2, 0.0, m)
        return self._axis_profile(m / self.half_period, axis)

    @cached_property
    def derivative_symbols(self) -> dict[int, tuple[np.ndarray, ...]]:
        """D^alpha multipliers (i xi)^alpha in the real-FFT half layout.

        Maps each derivative order 1 and 2 to one broadcastable multiplier per
        multi-index |alpha| = order, in ``combinations_with_replacement``
        order.  The last axis holds modes 0..N/2 only; the Nyquist mode is
        zeroed on every axis, as in :meth:`wavenumber`.
        """
        n = self.points_per_axis
        factors = []
        for axis in range(self.dim):
            m = self.mode_numbers if axis < self.dim - 1 else np.arange(n // 2 + 1)
            xi = np.where(np.abs(m) == n // 2, 0.0, m.astype(np.float64))
            factors.append(1j * self._axis_profile(xi / self.half_period, axis))
        symbols = {}
        for order in (1, 2):
            products = []
            for alpha in combinations_with_replacement(range(self.dim), order):
                multiplier = factors[alpha[0]]
                for axis in alpha[1:]:
                    multiplier = multiplier * factors[axis]
                products.append(_lock(multiplier))
            symbols[order] = tuple(products)
        return symbols

    @cached_property
    def ksq(self) -> np.ndarray:
        """|xi|^2 built from the zeroed-Nyquist wavenumbers, shape ``shape``."""
        out = np.zeros(self.shape)
        for axis in range(self.dim):
            out = out + self.wavenumber(axis) ** 2
        return _lock(out)

    @cached_property
    def dealias_cutoff(self) -> int:
        return int(np.floor(self.dealias_fraction * self.points_per_axis / 2.0))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean retained-mode mask: |m_i| <= cutoff on every axis."""
        keep = np.abs(self.mode_numbers) <= self.dealias_cutoff
        mask = np.ones(self.shape, dtype=bool)
        for axis in range(self.dim):
            mask = mask & self._axis_profile(keep, axis)
        return _lock(mask)


def _owned_copy(values, dtype) -> np.ndarray:
    """A fresh C-ordered array, so a field never locks or aliases caller data."""
    return np.array(values, dtype=dtype, order="C")


def _as_field_array(values, expected_shape: tuple[int, ...], name: str) -> np.ndarray:
    array = _owned_copy(values, np.float64)
    if array.shape != expected_shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {expected_shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return _lock(array)


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a GridSpec grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", _as_field_array(self.values, self.grid.shape, "values")
        )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)


@dataclass(frozen=True)
class VectorField:
    """Real vector samples, components stacked on the leading axis."""

    grid: GridSpec
    components: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.dim,) + self.grid.shape
        object.__setattr__(
            self,
            "components",
            _as_field_array(self.components, expected, "components"),
        )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VectorField":
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    def component(self, index: int) -> ScalarField:
        return ScalarField(self.grid, self.components[index])

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.components ** 2, axis=0))

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_same_grid(self, other)
        return VectorField(self.grid, self.components + other.components)

    def __sub__(self, other: "VectorField") -> "VectorField":
        _check_same_grid(self, other)
        return VectorField(self.grid, self.components - other.components)

    def __mul__(self, scalar: float) -> "VectorField":
        return VectorField(self.grid, self.components * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(self.grid, -self.components)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients with a leading component axis.

    ``coefficients`` has shape (ncomp,) + grid.shape in FFT mode layout;
    ncomp is 1 for scalar data and grid.dim for vector data.
    """

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        array = _owned_copy(self.coefficients, np.complex128)
        if array.ndim != self.grid.dim + 1 or array.shape[1:] != self.grid.shape:
            raise ValueError(
                f"coefficients have shape {array.shape}, expected "
                f"(ncomp,) + {self.grid.shape}"
            )
        if array.shape[0] not in (1, self.grid.dim):
            raise ValueError(
                f"component count must be 1 or {self.grid.dim}, got {array.shape[0]}"
            )
        if not np.all(np.isfinite(array.view(np.float64))):
            raise ValueError("coefficients contain non-finite values")
        object.__setattr__(self, "coefficients", _lock(array))

    @property
    def ncomp(self) -> int:
        return self.coefficients.shape[0]


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def to_spectral(field: ScalarField | VectorField) -> SpectralField:
    """Forward transform; coefficient at the zero mode equals the box mean."""
    if isinstance(field, ScalarField):
        data = field.values[None]
    elif isinstance(field, VectorField):
        data = field.components
    else:
        raise TypeError(f"cannot transform {type(field).__name__}")
    return SpectralField(field.grid, _fftn(data, field.grid.dim))


def from_spectral(spectral: SpectralField) -> ScalarField | VectorField:
    """Inverse transform, discarding the roundoff-level imaginary residue."""
    values = _ifftn(spectral.coefficients, spectral.grid.dim).real
    if spectral.ncomp == 1:
        return ScalarField(spectral.grid, values[0])
    return VectorField(spectral.grid, values)


def hermitian_defect(spectral: SpectralField) -> float:
    """Max |c(-xi) - conj(c(xi))| over all coefficients (0 for real fields)."""
    c = spectral.coefficients
    reversed_c = c
    for axis in range(1, spectral.grid.dim + 1):
        reversed_c = np.roll(np.flip(reversed_c, axis=axis), 1, axis=axis)
    return float(np.max(np.abs(reversed_c - np.conj(c))))


def spectral_derivative(spectral: SpectralField, axis: int) -> SpectralField:
    """Derivative along ``axis`` (1-based), as multiplication by i*xi_axis."""
    grid = spectral.grid
    if not 1 <= axis <= grid.dim:
        raise ValueError(f"axis must lie in 1..{grid.dim}, got {axis}")
    xi = grid.wavenumber(axis - 1)
    return SpectralField(grid, spectral.coefficients * (1j * xi))


def derivative(field: ScalarField | VectorField, axis: int) -> ScalarField | VectorField:
    """Physical-space spectral derivative along ``axis`` (1-based)."""
    return from_spectral(spectral_derivative(to_spectral(field), axis))


def gradient(field: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    grid = field.grid
    coeff = to_spectral(field).coefficients[0]
    parts = [coeff * (1j * grid.wavenumber(axis)) for axis in range(grid.dim)]
    values = _ifftn(np.stack(parts), grid.dim).real
    return VectorField(grid, values)


def divergence(field: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    grid = field.grid
    coeff = to_spectral(field).coefficients
    out = np.zeros(grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        out = out + coeff[axis] * (1j * grid.wavenumber(axis))
    return ScalarField(grid, _ifftn(out[None], grid.dim).real[0])


def truncate_modes(spectral: SpectralField) -> SpectralField:
    """Zero all coefficients above the grid's dealias cutoff."""
    return SpectralField(
        spectral.grid, spectral.coefficients * spectral.grid.dealias_mask
    )


def _truncate_samples(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Physical samples projected onto the retained modes, any leading axes."""
    return _ifftn(_fftn(values, grid.dim) * grid.dealias_mask, grid.dim).real


def dealias(field: ScalarField | VectorField) -> ScalarField | VectorField:
    """Physical-space projection onto retained (dealiased) modes."""
    return from_spectral(truncate_modes(to_spectral(field)))


def dealiased_product(a, b):
    """Pointwise product with modes above the cutoff zeroed before and after.

    Both inputs must share the grid and the type (two scalars or two vectors);
    vector inputs are multiplied componentwise.
    """
    if type(a) is not type(b):
        raise ValueError("dealiased_product requires two fields of the same kind")
    _check_same_grid(a, b)
    ta = dealias(a)
    tb = dealias(b)
    if isinstance(a, ScalarField):
        raw = ScalarField(a.grid, ta.values * tb.values)
    elif isinstance(a, VectorField):
        raw = VectorField(a.grid, ta.components * tb.components)
    else:
        raise TypeError(f"cannot multiply {type(a).__name__}")
    return dealias(raw)


class TimePeriodicField:
    """Finite Fourier stack in time over spatial fields.

    A real time-periodic field with period T is stored through its complex
    time modes u_k(x), k = -K..K, with u(t, x) = sum_k u_k(x) exp(i omega_k t)
    and omega_k = 2 pi k / T.  Reality forces u_{-k} = conj(u_k), which is
    validated on construction and preserved exactly by all operations here.
    The constructor keeps a copy of ``modes``, never the caller's array.
    """

    def __init__(self, grid: GridSpec, period: float, modes: np.ndarray) -> None:
        self._take(grid, period, _owned_copy(modes, np.complex128))

    @classmethod
    def _adopt(
        cls, grid: GridSpec, period: float, modes: np.ndarray
    ) -> "TimePeriodicField":
        """Wrap a stack the package just built and holds nowhere else.

        The constructor copies its input so that it never locks or rewrites a
        caller's array; a fresh stack needs no copy and is snapped and locked
        in place.
        """
        field = cls.__new__(cls)
        field._take(grid, period, np.ascontiguousarray(modes, dtype=np.complex128))
        return field

    def _take(self, grid: GridSpec, period: float, modes: np.ndarray) -> None:
        if not period > 0:
            raise ValueError(f"period must be positive, got {period}")
        if modes.ndim != grid.dim + 2 or modes.shape[2:] != grid.shape:
            raise ValueError(
                f"modes have shape {modes.shape}, expected "
                f"(2K+1, ncomp) + {grid.shape}"
            )
        if modes.shape[0] % 2 != 1:
            raise ValueError("mode stack must have odd length 2K+1")
        if modes.shape[1] not in (1, grid.dim):
            raise ValueError(
                f"component count must be 1 or {grid.dim}, got {modes.shape[1]}"
            )
        if not np.all(np.isfinite(modes.view(np.float64))):
            raise ValueError("modes contain non-finite values")
        self.grid = grid
        self.period = float(period)
        self.max_mode = (modes.shape[0] - 1) // 2
        self._symmetrize_reality(modes)
        self.modes = _lock(modes)

    def _symmetrize_reality(self, modes: np.ndarray) -> None:
        """Reject non-real stacks; snap roundoff-level Hermitian defects.

        Conjugate-pair defects at the roundoff level are averaged away so
        that the pairing is exact by construction; this keeps differences of
        nearly equal stacks (whose own scale can be arbitrarily small) valid.
        """
        scale = np.max(np.abs(modes)) or 1.0
        center = self.max_mode
        for k in range(center + 1):
            defect = np.max(np.abs(modes[center - k] - np.conj(modes[center + k])))
            if defect > 1e-12 * scale:
                raise ValueError(
                    f"mode(-{k}) != conj(mode({k})): defect {defect:.3e}, "
                    "stack does not represent a real signal"
                )
            if k == 0:
                modes[center] = modes[center].real
            else:
                paired = 0.5 * (modes[center + k] + np.conj(modes[center - k]))
                modes[center + k] = paired
                modes[center - k] = np.conj(paired)

    @property
    def ncomp(self) -> int:
        return self.modes.shape[1]

    def mode(self, k: int) -> np.ndarray:
        """Complex spatial mode for time frequency index k in [-K, K]."""
        if abs(k) > self.max_mode:
            raise ValueError(f"|k| must be <= {self.max_mode}, got {k}")
        return self.modes[k + self.max_mode]

    def omega(self, k: int) -> float:
        return 2.0 * np.pi * k / self.period

    @classmethod
    def from_modes(
        cls, grid: GridSpec, period: float, nonneg_modes: list[np.ndarray]
    ) -> "TimePeriodicField":
        """Build from modes k = 0..K; negative modes are the exact conjugates."""
        k_max = len(nonneg_modes) - 1
        stack = [np.conj(nonneg_modes[k]) for k in range(k_max, 0, -1)]
        stack.extend(nonneg_modes)
        return cls._adopt(grid, period, np.stack(stack))

    @classmethod
    def from_steady(
        cls, field: ScalarField | VectorField, period: float, max_mode: int = 0
    ) -> "TimePeriodicField":
        """Embed a steady field as the k = 0 mode of a stack with 2K+1 slots."""
        if isinstance(field, ScalarField):
            data = field.values[None]
        else:
            data = field.components
        shape = (2 * max_mode + 1,) + data.shape
        modes = np.zeros(shape, dtype=np.complex128)
        modes[max_mode] = data
        return cls._adopt(field.grid, period, modes)

    @classmethod
    def from_time_samples(
        cls, grid: GridSpec, period: float, samples: np.ndarray, max_mode: int
    ) -> "TimePeriodicField":
        """Collocation in time: DFT of uniform samples, truncated to |k| <= K.

        ``samples`` has shape (nt, ncomp) + grid.shape with nt >= 2K+1;
        sample j sits at time j * period / nt.
        """
        samples = np.asarray(samples, dtype=np.float64)
        nt = samples.shape[0]
        if nt < 2 * max_mode + 1:
            raise ValueError(
                f"need at least {2 * max_mode + 1} time samples, got {nt}"
            )
        transformed = np.fft.fft(samples, axis=0) / nt
        nonneg = [transformed[k] for k in range(max_mode + 1)]
        return cls.from_modes(grid, period, nonneg)

    def sample_times(self, num_samples: int) -> np.ndarray:
        """Real samples at t_j = j * period / num_samples, shape (nt, ncomp, ...)."""
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        t = np.arange(num_samples) * (self.period / num_samples)
        out = np.empty((num_samples,) + self.modes.shape[1:], dtype=np.float64)
        k_range = np.arange(1, self.max_mode + 1)
        phases = np.exp(1j * 2.0 * np.pi * np.outer(t, k_range) / self.period)
        mode0 = self.mode(0).real
        for j in range(num_samples):
            acc = mode0.copy()
            for idx, k in enumerate(k_range):
                acc = acc + 2.0 * (phases[j, idx] * self.mode(k)).real
            out[j] = acc
        return out

    def steady_part(self) -> ScalarField | VectorField:
        """The k = 0 (time-average) mode as a real field."""
        values = self.mode(0).real
        if self.ncomp == 1:
            return ScalarField(self.grid, values[0])
        return VectorField(self.grid, values)

    def time_derivative(self) -> "TimePeriodicField":
        """d/dt through i*omega_k multipliers on the mode stack."""
        nonneg = [
            1j * self.omega(k) * self.mode(k) for k in range(self.max_mode + 1)
        ]
        return TimePeriodicField.from_modes(self.grid, self.period, nonneg)

    def __add__(self, other: "TimePeriodicField") -> "TimePeriodicField":
        self._check_compatible(other)
        return TimePeriodicField._adopt(
            self.grid, self.period, self.modes + other.modes
        )

    def __sub__(self, other: "TimePeriodicField") -> "TimePeriodicField":
        self._check_compatible(other)
        return TimePeriodicField._adopt(
            self.grid, self.period, self.modes - other.modes
        )

    def __mul__(self, scalar: float) -> "TimePeriodicField":
        return TimePeriodicField._adopt(
            self.grid, self.period, self.modes * float(scalar)
        )

    __rmul__ = __mul__

    def __neg__(self) -> "TimePeriodicField":
        return TimePeriodicField._adopt(self.grid, self.period, -self.modes)

    def _check_compatible(self, other: "TimePeriodicField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.period != other.period or self.max_mode != other.max_mode:
            raise ValueError("time-periodic fields have mismatched period or modes")
