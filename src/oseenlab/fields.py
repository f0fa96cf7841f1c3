"""Periodic-box grids, field containers, spectral transforms, and time stacks.

The computational domain is the box [0, 2*pi*L)^dim with periodic boundary
conditions, so admissible wavenumbers are integer multiples of 1/L per axis.
Coefficients follow the forward-normalized convention: the coefficient at the
zero wavenumber equals the box mean of the field.

Nyquist modes (|m| = N/2) carry no usable derivative information on a real
grid; first-derivative multipliers are zeroed there, and every composite
operator downstream (Laplacian, Leray projector, Oseen symbols) is built from
the same zeroed wavenumbers so that operator compositions are exact
coefficientwise.  :func:`derivative`, :func:`gradient` and :func:`divergence`
multiply the real-FFT (half layout) coefficients by the cached symbols of
:attr:`GridSpec.derivative_symbols`, which are those wavenumbers times i.

Spatial fields are stored as real samples only; spectral coefficients are
plain arrays from the forward-normalized transforms here.  A time-periodic
field stores its time modes k = 0..K only: for a real signal the mode at -k
is the conjugate of the mode at k, and :meth:`TimePeriodicField.mode` derives
it on request.  All three kinds share one arithmetic: sums and differences of
two fields of one kind on one grid (stacks also share period and ``max_mode``),
negation, and scaling by a real number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np
from scipy import fft as _sfft

_fft_workers = 1
# Fraction of the Nyquist range that dealiasing keeps (the 2/3 rule).
_DEALIAS_FRACTION = 2.0 / 3.0


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
    """

    dim: int
    half_period: float
    points_per_axis: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim not in (2, 3):
            raise ValueError(f"dim must be the integer 2 or 3, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        n = self.points_per_axis
        if not isinstance(n, (int, np.integer)) or n <= 0 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be a positive even integer, got {n}")
        if not 0 < self.half_period < np.inf:
            raise ValueError(
                f"half_period must be positive and finite, got {self.half_period}"
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
    def center(self) -> tuple[float, ...]:
        return (np.pi * self.half_period,) * self.dim

    def coordinates(self) -> list[np.ndarray]:
        """Sparse broadcastable coordinate arrays, one per axis."""
        x = np.arange(self.points_per_axis) * self.spacing
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
        return self._wavenumbers[axis]

    @cached_property
    def _wavenumbers(self) -> tuple[np.ndarray, ...]:
        m = self.mode_numbers.astype(np.float64)
        m = np.where(np.abs(self.mode_numbers) == self.points_per_axis // 2, 0.0, m)
        xi = m / self.half_period
        return tuple(_lock(self._axis_profile(xi, a)) for a in range(self.dim))

    @cached_property
    def derivative_symbols(self) -> dict[int, tuple[np.ndarray, ...]]:
        """D^alpha multipliers (i xi)^alpha in the real-FFT half layout.

        Maps each derivative order 1 and 2 to one broadcastable multiplier per
        multi-index |alpha| = order, in ``combinations_with_replacement``
        order, built from the wavenumbers of :meth:`wavenumber` with the last
        axis cut to modes 0..N/2.
        """
        factors = [1j * xi for xi in self._wavenumbers]
        factors[-1] = factors[-1][..., : self.points_per_axis // 2 + 1]
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
        return int(np.floor(_DEALIAS_FRACTION * self.points_per_axis / 2.0))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean retained-mode mask: |m_i| <= cutoff on every axis."""
        keep = np.abs(self.mode_numbers) <= self.dealias_cutoff
        mask = np.ones(self.shape, dtype=bool)
        for axis in range(self.dim):
            mask = mask & self._axis_profile(keep, axis)
        return _lock(mask)

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        """:attr:`dealias_mask` in the real-FFT half layout (last axis 0..N/2)."""
        half = self.dealias_mask[..., : self.points_per_axis // 2 + 1]
        return _lock(np.ascontiguousarray(half))


def _owned_copy(values, dtype) -> np.ndarray:
    """A fresh C-ordered array, so a field never locks or aliases caller data."""
    return np.array(values, dtype=dtype, order="C")


def _check_count(value, name: str, least: int) -> int:
    """``value`` as an int; refused unless it is an integer >= ``least``."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _as_field_array(values, expected_shape: tuple[int, ...], name: str) -> np.ndarray:
    array = _owned_copy(values, np.float64)
    if array.shape != expected_shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {expected_shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return _lock(array)


class _FieldAlgebra:
    """Arithmetic on ``_data``: ``_like`` wraps a result as a field of the same
    kind; ``_check_compatible`` rejects another kind (``TypeError``) or grid.
    """

    def _like(self, data: np.ndarray):
        return type(self)(self.grid, data)

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(self._data + other._data)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(self._data - other._data)

    def __mul__(self, scalar: float):
        return self._like(self._data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self._data)


@dataclass(frozen=True)
class ScalarField(_FieldAlgebra):
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

    _data = property(lambda self: self.values)


@dataclass(frozen=True)
class VectorField(_FieldAlgebra):
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

    _data = property(lambda self: self.components)


def _component_array(field: ScalarField | VectorField) -> np.ndarray:
    """Samples with a leading component axis: (1,) + shape or (dim,) + shape."""
    if isinstance(field, ScalarField):
        return field.values[None]
    if isinstance(field, VectorField):
        return field.components
    raise TypeError(f"expected a spatial field, got {type(field).__name__}")


def _from_component_array(
    grid: GridSpec, values: np.ndarray
) -> ScalarField | VectorField:
    """Inverse of :func:`_component_array`: one component is a scalar field."""
    if values.shape[0] == 1:
        return ScalarField(grid, values[0])
    return VectorField(grid, values)


def derivative(field: ScalarField | VectorField, axis: int) -> ScalarField | VectorField:
    """Physical-space spectral derivative along ``axis`` (1-based)."""
    grid = field.grid
    if not 1 <= axis <= grid.dim:
        raise ValueError(f"axis must lie in 1..{grid.dim}, got {axis}")
    coeff = _rfftn(_component_array(field), grid.dim)
    symbol = grid.derivative_symbols[1][axis - 1]
    return _from_component_array(grid, _irfftn(coeff * symbol, grid.shape))


def gradient(field: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    grid = field.grid
    coeff = _rfftn(field.values, grid.dim)
    parts = [coeff * symbol for symbol in grid.derivative_symbols[1]]
    return VectorField(grid, _irfftn(np.stack(parts), grid.shape))


def divergence(field: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    grid = field.grid
    coeff = _rfftn(field.components, grid.dim)
    out = sum(c * symbol for c, symbol in zip(coeff, grid.derivative_symbols[1]))
    return ScalarField(grid, _irfftn(out, grid.shape))


def _truncate_samples(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Physical samples projected onto the retained modes, any leading axes."""
    return _ifftn(_fftn(values, grid.dim) * grid.dealias_mask, grid.dim).real


def _fold_modes(terms):
    """Sum over the time modes k = -K..K of terms (numbers or arrays) given for
    k = 0..K in order: the mode at -k of a real signal, the conjugate of the mode
    at k, adds the same amount, so mode 0 counts once and modes 1..K twice."""
    total = 0.0
    for k, term in enumerate(terms):
        total += term if k == 0 else 2.0 * term
    return total


class TimePeriodicField(_FieldAlgebra):
    """Finite Fourier stack in time over spatial fields.

    A real time-periodic field with period T is u(t, x) = sum_k u_k(x)
    exp(i omega_k t) over k = -K..K, with omega_k = 2 pi k / T.  Reality
    forces u_{-k} = conj(u_k), so ``modes`` stores only k = 0..K, shape
    (K+1, ncomp) + grid.shape; :meth:`mode` derives the negative modes.  Mode
    0 must be real: it is validated on construction and snapped to exactly
    real.  The constructor keeps a copy of ``modes``, never the caller's
    array.
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
        if not 0 < period < np.inf:
            raise ValueError(f"period must be positive and finite, got {period}")
        if (
            modes.ndim != grid.dim + 2
            or modes.shape[2:] != grid.shape
            or modes.shape[0] < 1
        ):
            raise ValueError(
                f"modes have shape {modes.shape}, expected "
                f"(K+1, ncomp) + {grid.shape}"
            )
        if modes.shape[1] not in (1, grid.dim):
            raise ValueError(
                f"component count must be 1 or {grid.dim}, got {modes.shape[1]}"
            )
        if not np.all(np.isfinite(modes.view(np.float64))):
            raise ValueError("modes contain non-finite values")
        # Mode 0 of a real signal is real; roundoff-level imaginary parts are
        # snapped away so that differences of nearly equal stacks stay valid.
        # A zero defect passes against any positive scale, so the scan of the
        # whole stack for its scale runs only when the defect is nonzero.
        defect = 2.0 * np.max(np.abs(modes[0].imag))
        if defect > 0.0 and defect > 1e-12 * (np.max(np.abs(modes)) or 1.0):
            raise ValueError(
                f"mode 0 is not real: defect {defect:.3e}, "
                "stack does not represent a real signal"
            )
        modes[0] = modes[0].real
        self.grid = grid
        self.period = float(period)
        self.max_mode = modes.shape[0] - 1
        self.modes = _lock(modes)

    @property
    def ncomp(self) -> int:
        return self.modes.shape[1]

    def mode(self, k: int) -> np.ndarray:
        """Complex spatial mode for time frequency index k in [-K, K].

        A negative k gives conj(mode(-k)), the only place a negative mode is
        formed.
        """
        if abs(k) > self.max_mode:
            raise ValueError(f"|k| must be <= {self.max_mode}, got {k}")
        return self.modes[k] if k >= 0 else np.conj(self.modes[-k])

    def omega(self, k: int) -> float:
        return 2.0 * np.pi * k / self.period

    @classmethod
    def from_modes(
        cls, grid: GridSpec, period: float, nonneg_modes: list[np.ndarray]
    ) -> "TimePeriodicField":
        """Build from modes k = 0..K; :meth:`mode` derives the negative ones."""
        return cls._adopt(grid, period, np.stack(nonneg_modes))

    @classmethod
    def from_steady(
        cls, field: ScalarField | VectorField, period: float, max_mode: int = 0
    ) -> "TimePeriodicField":
        """Embed a steady field as the k = 0 mode of a stack with K+1 slots."""
        max_mode = _check_count(max_mode, "max_mode", 0)
        data = _component_array(field)
        modes = np.zeros((max_mode + 1,) + data.shape, dtype=np.complex128)
        modes[0] = data
        return cls._adopt(field.grid, period, modes)

    @classmethod
    def from_time_samples(
        cls, grid: GridSpec, period: float, samples: np.ndarray, max_mode: int
    ) -> "TimePeriodicField":
        """Collocation in time: DFT of uniform samples, truncated to |k| <= K.

        ``samples`` has shape (nt, ncomp) + grid.shape with nt >= 2K+1;
        sample j sits at time j * period / nt.
        """
        max_mode = _check_count(max_mode, "max_mode", 0)
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
        num_samples = _check_count(num_samples, "num_samples", 1)
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

    _data = property(lambda self: self.modes)

    def _like(self, modes: np.ndarray) -> "TimePeriodicField":
        return TimePeriodicField._adopt(self.grid, self.period, modes)

    def _check_compatible(self, other) -> None:
        super()._check_compatible(other)
        if self.period != other.period or self.max_mode != other.max_mode:
            raise ValueError("time-periodic fields have mismatched period or modes")
