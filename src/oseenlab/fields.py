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

Both kinds of field keep one layout.  A :class:`SpatialField` holds real
samples of shape (ncomp,) + grid.shape, with ncomp 1 for a scalar and dim for
a vector.  A :class:`TimePeriodicField` holds its time modes k = 0..K in the
same layout, (K+1, ncomp) + grid.shape, so a spatial field is one mode of a
stack; for a real signal the mode at -k is the conjugate of the mode at k,
and :meth:`TimePeriodicField.mode` derives it on request.  A spatial field
owns its spectrum, :attr:`SpatialField.coefficients`: the forward real-FFT
half layout (last axis cut to modes 0..N/2), taken on first read and kept
while the field lives.  A stack owns none; its kernels transform its samples.

Both kinds share one ownership contract.  The public constructor copies its
input, so it never locks or aliases a caller's array; the private ``_adopt``
wraps an array the package has just built and holds nowhere else, without a
copy.  Either way the field checks the shared layout rule
(:func:`_check_components`) and locks the array it keeps; the private
``SpatialField._from_coefficients`` keeps a just-built spectrum so, and
arithmetic results start without one.  Both share one arithmetic: sums and
differences of two fields of one kind, grid and component count (stacks also
share period and ``max_mode``), negation, and scaling by a real number.

The spatial transforms call scipy's ``pypocketfft`` extension, loaded by file
without importing ``scipy.fft`` (or through it where the file is not found),
with the arguments of ``scipy.fft``'s n-d functions, so the bits equal theirs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np


def _load_pocketfft():
    """scipy's pocketfft extension, by file location, else through scipy.fft."""
    name = "scipy.fft._pocketfft.pypocketfft"
    scipy = importlib.util.find_spec("scipy")
    for folder in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "fft", "_pocketfft", "pypocketfft" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    from scipy.fft._pocketfft import pypocketfft
    return pypocketfft


_pocketfft = _load_pocketfft()
_fft_workers = 1
# Fraction of the Nyquist range that dealiasing keeps (the 2/3 rule).
_DEALIAS_FRACTION = 2.0 / 3.0


def set_fft_workers(count: int) -> None:
    """Set the thread count of the package's pocketfft calls (scipy.fft's
    ``workers``); the ``numpy.fft`` time DFT of :func:`_time_modes` has one."""
    global _fft_workers
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise TypeError(f"fft worker count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("fft worker count must be a positive integer")
    _fft_workers = int(count)


def get_fft_workers() -> int:
    """Return the current FFT worker count."""
    return _fft_workers


# The pocketfft calls of scipy.fft's c2cn, r2cn and c2rn at norm="forward".
def _fftn(values: np.ndarray, dim: int) -> np.ndarray:
    axes = range(values.ndim - dim, values.ndim)
    return _pocketfft.c2c(values, axes, True, 2, None, _fft_workers)


def _ifftn(coefficients: np.ndarray, dim: int, overwrite_x: bool = False) -> np.ndarray:
    axes = range(coefficients.ndim - dim, coefficients.ndim)
    out = coefficients if overwrite_x and coefficients.dtype.kind == "c" else None
    return _pocketfft.c2c(coefficients, axes, False, 0, out, _fft_workers)


def _rfftn(values: np.ndarray, dim: int) -> np.ndarray:
    axes = range(values.ndim - dim, values.ndim)
    return _pocketfft.r2c(values, axes, True, 2, None, _fft_workers)


def _irfftn(coefficients: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    axes = range(coefficients.ndim - len(shape), coefficients.ndim)
    return _pocketfft.c2r(coefficients, axes, shape[-1], False, 0, None, _fft_workers)


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
        return _lock((np.arange(n, dtype=np.int64) + n // 2) % n - n // 2)

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
        return _lock(sum(xi**2 for xi in self._wavenumbers))

    @cached_property
    def active(self) -> np.ndarray:
        """Where :attr:`ksq` > 0: the modes that derivatives can see."""
        return _lock(self.ksq > 0)

    @cached_property
    def safe(self) -> np.ndarray:
        """:attr:`ksq` with its zeros replaced by one, a safe divisor."""
        return _lock(np.where(self.active, self.ksq, 1.0))

    @cached_property
    def half_inverse_wavenumber(self) -> np.ndarray:
        """1/|xi| in the half layout of :attr:`derivative_symbols`; 0 at xi = 0."""
        ksq = sum(np.square(symbol.imag) for symbol in self.derivative_symbols[1])
        out = np.zeros(ksq.shape)
        return _lock(np.divide(1.0, np.sqrt(ksq), out=out, where=ksq > 0))

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
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _check_components(grid: GridSpec, array: np.ndarray, name: str, lead: int) -> None:
    """The layout rule of both field kinds: ``lead`` nonempty leading axes (a
    stack's time modes; none for a spatial field), then a component axis of
    length 1 (scalar) or dim (vector), then the grid axes; every value finite.
    """
    layout = "(K+1, ncomp)" if lead else "(ncomp,)"
    if (
        array.ndim != lead + 1 + grid.dim
        or array.shape[lead + 1 :] != grid.shape
        or 0 in array.shape[:lead]
    ):
        raise ValueError(
            f"{name} have shape {array.shape}, expected {layout} + {grid.shape}"
        )
    if array.shape[lead] not in (1, grid.dim):
        raise ValueError(
            f"component count must be 1 or {grid.dim}, got {array.shape[lead]}"
        )
    if not np.all(np.isfinite(array.view(np.float64))):
        raise ValueError(f"{name} contain non-finite values")


class _FieldAlgebra:
    """Arithmetic on ``_data``: ``_like`` wraps a fresh result as a field of the
    same kind; ``_check_compatible`` rejects another kind (``TypeError``), or
    another grid, time axis or component count (``ValueError``).
    """

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        self._check_time_axis(other)
        if self.ncomp != other.ncomp:
            raise ValueError("fields differ in component count")

    def _check_time_axis(self, other) -> None:
        """A spatial field has no time axis to compare."""

    @property
    def ncomp(self) -> int:
        return self._data.shape[-1 - self.grid.dim]

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


class SpatialField(_FieldAlgebra):
    """Real samples of a scalar or vector field, shape (ncomp,) + grid.shape
    with ncomp 1 or dim: the layout of one mode of a time stack.

    The constructor keeps a real copy of ``components``, never the caller's
    array, and refuses complex input.
    """

    def __init__(self, grid: GridSpec, components) -> None:
        if np.iscomplexobj(components):
            raise TypeError("components must be real, got a complex array")
        self._take(grid, _owned_copy(components, np.float64))

    @classmethod
    def _adopt(cls, grid: GridSpec, components: np.ndarray) -> "SpatialField":
        """Wrap samples the package just built and holds nowhere else; they
        are locked in place, not copied."""
        field = cls.__new__(cls)
        field._take(grid, np.ascontiguousarray(components, dtype=np.float64))
        return field

    @classmethod
    def _from_coefficients(cls, grid: GridSpec, coeff: np.ndarray) -> "SpatialField":
        """Invert a half-layout spectrum the package just built and holds
        nowhere else; the field keeps that array, locked, as its spectrum."""
        field = cls._adopt(grid, _irfftn(coeff, grid.shape))
        field.__dict__["coefficients"] = _lock(coeff)
        return field

    def _take(self, grid: GridSpec, components: np.ndarray) -> None:
        _check_components(grid, components, "components", 0)
        self.grid = grid
        self.components = _lock(components)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The half-layout real-FFT spectrum of ``components``, taken once, locked."""
        return _lock(_rfftn(self.components, self.grid.dim))

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.components ** 2, axis=0))

    _data = property(lambda self: self.components)

    def _like(self, components: np.ndarray) -> "SpatialField":
        return SpatialField._adopt(self.grid, components)


def derivative(field: SpatialField, axis: int) -> SpatialField:
    """Physical-space spectral derivative along ``axis`` (1-based)."""
    grid = field.grid
    if not 1 <= axis <= grid.dim:
        raise ValueError(f"axis must lie in 1..{grid.dim}, got {axis}")
    coeff = field.coefficients * grid.derivative_symbols[1][axis - 1]
    return SpatialField._adopt(grid, _irfftn(coeff, grid.shape))


def gradient(field: SpatialField) -> SpatialField:
    """Spectral gradient of a scalar field."""
    if field.ncomp != 1:
        raise ValueError("the gradient takes a scalar field")
    grid = field.grid
    coeff = field.coefficients[0]
    parts = [coeff * symbol for symbol in grid.derivative_symbols[1]]
    return SpatialField._adopt(grid, _irfftn(np.stack(parts), grid.shape))


def divergence(field: SpatialField) -> SpatialField:
    """Spectral divergence of a vector field."""
    grid = field.grid
    if field.ncomp != grid.dim:
        raise ValueError("the divergence takes a vector field")
    symbols = grid.derivative_symbols[1]
    out = sum(c * symbol for c, symbol in zip(field.coefficients, symbols))
    return SpatialField._adopt(grid, _irfftn(out, grid.shape)[None])


def _truncate_samples(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Physical samples projected onto the retained modes, any leading axes."""
    coeff = _fftn(values, grid.dim)
    coeff *= grid.dealias_mask
    return _ifftn(coeff, grid.dim, overwrite_x=True).real


def _fold_modes(terms):
    """Sum over the time modes k = -K..K of terms (numbers or arrays) given for
    k = 0..K in order: the mode at -k of a real signal, the conjugate of the mode
    at k, adds the same amount, so mode 0 counts once and modes 1..K twice."""
    total = 0.0
    for k, term in enumerate(terms):
        total += term if k == 0 else 2.0 * term
    return total


_SLAB_COLUMNS = 4096


def _time_modes(samples: np.ndarray, max_mode: int) -> np.ndarray:
    """Modes 0..K of the time DFT (axis 0) of real samples, divided by nt; the
    transform runs slab by slab over the spatial columns, never the grid."""
    flat = samples.reshape(len(samples), -1)
    modes = np.empty((max_mode + 1, flat.shape[1]), dtype=np.complex128)
    for start in range(0, flat.shape[1], _SLAB_COLUMNS):
        cols = slice(start, start + _SLAB_COLUMNS)
        modes[:, cols] = np.fft.fft(flat[:, cols], axis=0)[: max_mode + 1] / len(flat)
    return modes.reshape((max_mode + 1,) + samples.shape[1:])


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
        """Wrap a stack the package just built and holds nowhere else; it is
        snapped and locked in place, not copied."""
        field = cls.__new__(cls)
        field._take(grid, period, np.ascontiguousarray(modes, dtype=np.complex128))
        return field

    def _take(self, grid: GridSpec, period: float, modes: np.ndarray) -> None:
        if not 0 < period < np.inf:
            raise ValueError(f"period must be positive and finite, got {period}")
        _check_components(grid, modes, "modes", 1)
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
        if len(nonneg_modes) == 0:
            raise ValueError("nonneg_modes must hold at least mode 0, got none")
        return cls._adopt(grid, period, np.stack(nonneg_modes))

    @classmethod
    def from_steady(
        cls, field: SpatialField, period: float, max_mode: int = 0
    ) -> "TimePeriodicField":
        """Embed a steady field as the k = 0 mode of a stack with K+1 slots."""
        max_mode = _check_count(max_mode, "max_mode", 0)
        modes = np.zeros((max_mode + 1,) + field.components.shape, dtype=np.complex128)
        modes[0] = field.components
        return cls._adopt(field.grid, period, modes)

    @classmethod
    def from_time_samples(
        cls, grid: GridSpec, period: float, samples: np.ndarray, max_mode: int
    ) -> "TimePeriodicField":
        """Collocation in time: DFT of uniform samples, truncated to |k| <= K.

        ``samples`` is real, of shape (nt, ncomp) + grid.shape with nt >= 2K+1;
        sample j sits at time j * period / nt.  The stack adopts the array of
        :func:`_time_modes`: modes 0..K of the transform, scaled by 1/nt.
        """
        max_mode = _check_count(max_mode, "max_mode", 0)
        if np.iscomplexobj(samples):
            raise TypeError("samples must be real, got a complex array")
        samples = np.asarray(samples, dtype=np.float64)
        nt = samples.shape[0]
        if nt < 2 * max_mode + 1:
            raise ValueError(
                f"need at least {2 * max_mode + 1} time samples, got {nt}"
            )
        return cls._adopt(grid, period, _time_modes(samples, max_mode))

    def sample_times(self, num_samples: int) -> np.ndarray:
        """Real samples at t_j = j * period / num_samples, shape (nt, ncomp, ...)."""
        num_samples = _check_count(num_samples, "num_samples", 1)
        out = np.empty((num_samples,) + self.modes.shape[1:], dtype=np.float64)
        for j, sample in enumerate(self._instants(num_samples)):
            out[j] = sample
        return out

    def _instants(self, num_samples: int):
        """Yield the samples of :meth:`sample_times` one instant at a time."""
        t = np.arange(num_samples) * (self.period / num_samples)
        k_range = np.arange(1, self.max_mode + 1)
        phases = np.exp(1j * 2.0 * np.pi * np.outer(t, k_range) / self.period)
        mode0 = self.mode(0).real
        for j in range(num_samples):
            acc = mode0.copy()
            for idx, k in enumerate(k_range):
                acc = acc + 2.0 * (phases[j, idx] * self.mode(k)).real
            yield acc

    _data = property(lambda self: self.modes)

    def _like(self, modes: np.ndarray) -> "TimePeriodicField":
        return TimePeriodicField._adopt(self.grid, self.period, modes)

    def _check_time_axis(self, other) -> None:
        if self.period != other.period or self.max_mode != other.max_mode:
            raise ValueError("time-periodic fields have mismatched period or modes")
