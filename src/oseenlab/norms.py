"""Lebesgue, Sobolev, negative-order, wake-weighted, and maximal-regularity norms.

All L^q integrals use plain grid averaging (the rectangle rule, which is the
natural quadrature for periodic data); a grid-refinement oracle in the test
suite guards its accuracy.  Steady homogeneous seminorms follow the sum-
over-multi-indices convention |u|_{k,q} = sum_{|alpha|=k} ||D^alpha u||_q,
with each multi-index counted once.  The full W^{k,q} norm and the space-time
norms (``maxreg_norm`` and the gradient norm :func:`_bochner_gradient_norm`)
combine the multi-index derivative blocks in the l^q sense instead, which
makes every q = 2 quantity Plancherel-exact and every integrand in t a
trigonometric polynomial at an even integer q.

Derivative norms are evaluated from real-FFT coefficients: each field takes
one forward ``rfftn``, and each derivative block D^alpha u comes back through
one ``irfftn`` after a multiply by the grid's cached half-layout symbol
(:attr:`GridSpec.derivative_symbols`).  At q = 2 a seminorm needs no inverse
transform: Parseval sums |symbol|^2 |u_m|^2 over the half layout, counting
the last-axis planes 0 and N/2 once and every other plane twice for its
conjugate mirror.  ``lambda_norm`` shares the one forward transform between
its two seminorms.  ``maxreg_norm`` writes the K+1 stored
time modes as 2K+1 real fields B_b, with u(t) = sum_b W_b(t) B_b for cosine
and sine weights W_b.  It transforms each derivative block of those fields
once and forms every time sample by a small (nt x (2K+1)) weight matrix, so
its spatial transform count does not grow with the number of time samples.
The time derivative is the same sum with the weights differentiated in t and
needs no spatial transform; the gradient norm is the order-1 part of the same
loop.  An exactly zero time average (every oscillatory part) is left out,
which only drops exact zeros from each sample.

One instant rule serves every space-time norm.  The rectangle rule on nt
instants integrates exp(imt) exactly for |m| < nt; for an even integer q,
|u(t)|^q, |D^alpha u(t)|^q and |du/dt|^q have degree qK in t, so an even q
takes qK + 1 instants, which are exact.  Any other q takes 4K + 8.

The same rule holds in space.  For u band-limited to |m_i| <= B and an even
integer e, |D^alpha u|^e has degree eB per axis, so the rectangle rule on
N > eB points per axis is exact; :func:`_exact_grid` picks the coarsest such
grid whose dealias cutoff still holds the band.  Two callers evaluate there:
``harness.fit_smallness_constant`` draws its samples on it (band: the
default mode cap), transforms each once, and takes its linear probes and
its convective products there, which N > 4B forms without aliasing; only
each product's strong norm goes back to the full grid, by zero-padding.
``harness._run_bilinear_ensemble`` draws and evaluates its whole ensemble
on it (band: twice the draws' largest |m_i|, which the convective products
reach).  ``_lambda_pieces`` and ``_negative_l2_from_coefficients`` take
coefficients a caller has already formed.

At r = 2 ``negative_norm_surrogate`` is a Parseval sum as well, of the
half-layout coefficients times the grid's cached 1/|xi|; any other r inverts
the (ncomp, dim) Riesz tensor (:func:`_negative_norm_by_transforms`).
``picard.data_size`` keeps that path at r = 2 too, and ``lq_norm`` at least
4K + 8 instants, synthesized one at a time, on the full grid: they scale the
Picard forcing, so a roundoff-level change in them would move every iterate.

Parseval sums over the time modes k = -K..K (``spacetime_l2_plancherel``, the
residual, the maximal-regularity mode sum) take one fold, ``fields._fold_modes``:
mode 0 counts once and the stored modes 1..K twice, for their conjugates.

The negative-order functional is a surrogate: |f|_{-1,r} is computed as
||grad (-Delta)^{-1} f||_r with the zero mode projected out.  At r = 2 this
equals the exact dual norm of the homogeneous H^1 space on the box.
"""
from __future__ import annotations

import numpy as np

from .exponents import s_exponent
from .fields import (
    GridSpec,
    SpatialField,
    TimePeriodicField,
    _fftn,
    _fold_modes,
    _ifftn,
    _irfftn,
    _rfftn,
)


def _check_exponent(value: float, name: str) -> float:
    value = float(value)
    if not 1.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and exceed 1, got {value}")
    return value


def _lq_of_array(grid: GridSpec, components: np.ndarray, q: float) -> float:
    """L^q norm of a (ncomp, ...) sample array via grid averaging."""
    # Row by row in np.sum(axis=0)'s order, with no (ncomp, ...) temporary.
    magnitude_sq = np.square(components[0])
    for row in components[1:]:
        magnitude_sq += row * row
    if q == 2.0:
        mean_pow = float(np.mean(magnitude_sq))
    else:
        mean_pow = float(np.mean(magnitude_sq ** (q / 2.0)))
    return (mean_pow * grid.volume) ** (1.0 / q) if mean_pow > 0 else 0.0


def lq_norm(field, q: float) -> float:
    """L^q norm; vector fields use the pointwise Euclidean magnitude.

    Time-periodic input is measured in the period-averaged space-time sense
    ((1/T) int_0^T ||u(t)||_q^q dt)^(1/q), on the instants of
    :func:`maxreg_norm` but never fewer than 4K + 8.
    """
    q = _check_exponent(q, "q")
    if isinstance(field, TimePeriodicField):
        count = max(_default_time_samples(field.max_mode, q), 4 * field.max_mode + 8)
        instants = field._instants(count)
        powers = [_lq_of_array(field.grid, sample, q) ** q for sample in instants]
        return float(np.mean(powers)) ** (1.0 / q)
    return _lq_of_array(field.grid, field.components, q)


def _derivative_blocks(grid: GridSpec, coeff: np.ndarray, order: int):
    """Yield the physical samples of D^alpha u for each |alpha| = order.

    ``coeff`` holds real-FFT (half layout) coefficients with any leading
    axes; each multi-index costs one ``irfftn`` over all of them.
    """
    for symbol in grid.derivative_symbols[order]:
        yield _irfftn(coeff * symbol, grid.shape)


def _seminorm_from_coefficients(
    grid: GridSpec, coeff: np.ndarray, k: int, q: float
) -> float:
    if q == 2.0:
        return sum(
            _l2_from_coefficients(grid, coeff * symbol)
            for symbol in grid.derivative_symbols[k]
        )
    return sum(
        _lq_of_array(grid, block, q) for block in _derivative_blocks(grid, coeff, k)
    )


def _l2_from_coefficients(grid: GridSpec, coeff: np.ndarray) -> float:
    """L^2 norm by Parseval from real-FFT (half layout) coefficients.

    The last-axis planes 0 and N/2 stand for themselves; every other plane
    also stands for its conjugate mirror, so it counts twice.
    """
    power = np.square(coeff.real) + np.square(coeff.imag)
    mean_pow = float(
        2.0 * np.sum(power) - np.sum(power[..., 0]) - np.sum(power[..., -1])
    )
    return (mean_pow * grid.volume) ** 0.5 if mean_pow > 0 else 0.0


def _check_order(k: int) -> None:
    if k not in (0, 1, 2):
        raise ValueError(f"derivative order k must be 0, 1, or 2, got {k}")


def sobolev_seminorm(field: SpatialField, k: int, q: float) -> float:
    """Homogeneous seminorm |u|_{k,q} = sum over multi-indices |alpha| = k."""
    q = _check_exponent(q, "q")
    _check_order(k)
    grid = field.grid
    components = field.components
    if k == 0:
        return _lq_of_array(grid, components, q)
    return _seminorm_from_coefficients(grid, _rfftn(components, grid.dim), k, q)


def sobolev_full_norm(field: SpatialField, k: int, q: float) -> float:
    """Full W^{k,q} norm of a spatial field (orders 0 through k).

    The multi-index blocks are combined in the l^q sense.
    """
    q = _check_exponent(q, "q")
    _check_order(k)
    grid = field.grid
    components = field.components
    total = _lq_of_array(grid, components, q) ** q
    if k > 0:
        coeff = _rfftn(components, grid.dim)
        for order in range(1, k + 1):
            for block in _derivative_blocks(grid, coeff, order):
                total += _lq_of_array(grid, block, q) ** q
    return total ** (1.0 / q)


def negative_norm_surrogate(field: SpatialField, r: float) -> float:
    """Surrogate |f|_{-1,r} = ||grad (-Delta)^{-1} f||_r, mean projected out;
    at r = 2 by Parseval, the half-layout sum of |f_m|^2 / |xi|^2."""
    r = _check_exponent(r, "r")
    if r != 2.0:
        return _negative_norm_by_transforms(field, r)
    return _negative_l2_from_coefficients(
        field.grid, _rfftn(field.components, field.grid.dim)
    )


def _negative_l2_from_coefficients(grid: GridSpec, coeff: np.ndarray) -> float:
    """The r = 2 surrogate from half-layout coefficients, which it overwrites."""
    coeff *= grid.half_inverse_wavenumber
    return _l2_from_coefficients(grid, coeff)


def _negative_norm_by_transforms(field: SpatialField, r: float) -> float:
    """The surrogate from the physical samples of the (ncomp, dim) Riesz tensor."""
    r = _check_exponent(r, "r")
    grid = field.grid
    coeff = _fftn(field.components, grid.dim)
    # The (ncomp, dim) coefficients of grad (-Delta)^{-1} f; the modes blind
    # to derivatives (the mean, pure Nyquist combinations) are projected out.
    tensor = np.empty((len(coeff), grid.dim) + grid.shape, dtype=np.complex128)
    for axis in range(grid.dim):
        multiplier = np.where(grid.active, 1j * grid.wavenumber(axis) / grid.safe, 0.0)
        tensor[:, axis] = coeff * multiplier
    del coeff
    # The fresh tensor is read nowhere else, so it is transformed in place.
    flat = tensor.reshape((-1,) + grid.shape)
    samples = _ifftn(flat, grid.dim, overwrite_x=True).real
    return _lq_of_array(grid, samples, r)


def lambda_norm_pieces(field: SpatialField, q: float, r: float) -> tuple[float, float]:
    """The drift-free pieces (|v|_{2,q} + |v|_{1,r}, ||v||_s) of the wake norm.

    Both seminorms share one forward transform.  :func:`lambda_norm` at any
    drift follows from these by :func:`lambda_norm_from_pieces`, so a caller
    sweeping the drift evaluates them once per field.
    """
    grid, components = field.grid, field.components
    return _lambda_pieces(grid, components, _rfftn(components, grid.dim), q, r)


def _lambda_pieces(
    grid: GridSpec, components: np.ndarray, coeff: np.ndarray, q: float, r: float
) -> tuple[float, float]:
    """:func:`lambda_norm_pieces` of the samples ``components``, whose half-layout
    coefficients ``coeff`` the caller has already formed."""
    q = _check_exponent(q, "q")
    s = s_exponent(grid.dim, r)
    smooth = _seminorm_from_coefficients(
        grid, coeff, 2, q
    ) + _seminorm_from_coefficients(grid, coeff, 1, r)
    return smooth, _lq_of_array(grid, components, s)


def lambda_norm_from_pieces(
    pieces: tuple[float, float], lam: float, n: int
) -> float:
    """|v|_{2,q} + |v|_{1,r} + lambda^{1/(n+1)} ||v||_s from its pieces."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    smooth, s_norm = pieces
    weighted = lam ** (1.0 / (n + 1)) * s_norm if lam > 0 else 0.0
    return smooth + weighted


def lambda_norm(field: SpatialField, lam: float, q: float, r: float) -> float:
    """Wake-weighted norm |v|_{2,q} + |v|_{1,r} + lambda^{1/(n+1)} ||v||_s.

    ``n`` is the grid dimension; s = (n+1) r / (n+1-r) requires r < n+1.
    """
    return lambda_norm_from_pieces(
        lambda_norm_pieces(field, q, r), lam, field.grid.dim
    )


def _is_even_integer(value: float) -> bool:
    return float(value).is_integer() and int(value) % 2 == 0


def _default_time_samples(max_mode: int, q: float) -> int:
    # For an even integer q the integrand |v(t)|^q has degree qK in t, so
    # qK + 1 instants are exact; any other q takes 4K + 8, which resolves
    # fractional powers comfortably.
    return int(q) * max_mode + 1 if _is_even_integer(q) else 4 * max_mode + 8


def _exact_grid(grid: GridSpec, band: int, exponents) -> GridSpec:
    """Coarsest grid whose rectangle rule is exact for fields of the given band.

    For u band-limited to |m_i| <= ``band``, |D^alpha u|^e is a trigonometric
    polynomial of degree e * band per axis, integrated exactly by N > e * band
    points.  This returns the smallest even such N (for the largest e) whose
    dealias cutoff still holds the band, or ``grid`` itself when an exponent
    is not an even integer or the exact grid would not be coarser.
    """
    if not all(_is_even_integer(e) for e in exponents):
        return grid
    points = int(max(exponents)) * band + 1
    coarse = GridSpec(grid.dim, grid.half_period, points + points % 2)
    while coarse.dealias_cutoff < band:
        coarse = GridSpec(grid.dim, grid.half_period, coarse.points_per_axis + 2)
    return coarse if coarse.points_per_axis < grid.points_per_axis else grid


def maxreg_norm(field: TimePeriodicField, q: float) -> float:
    """Maximal-regularity norm: Bochner L^q of W^{2,q} plus L^q of d/dt.

    Time integrals are period-averaged rectangle-rule sums over a uniform
    grid; the time derivative acts through i*omega_k multipliers.  A field
    with only the k = 0 mode reduces to its steady W^{2,q} norm.  An even
    integer q takes qK + 1 instants, which integrate its degree-qK integrands
    exactly; any other q takes 4K + 8.
    """
    if not isinstance(field, TimePeriodicField):
        raise TypeError(f"field must be time-periodic, not {type(field).__name__}")
    q = _check_exponent(q, "q")
    return _maxreg_norm(field, q, _default_time_samples(field.max_mode, q))


def _maxreg_norm(
    field: TimePeriodicField, q: float, nt: int, oscillatory: bool = False
) -> float:
    """:func:`maxreg_norm` on ``nt`` uniform instants, at least 2K + 1; an
    ``oscillatory`` call measures the field less its time average, reading
    the stack in place (the bits of ``oseen.project_oscillatory``'s copy)."""
    if nt < 2 * field.max_mode + 1:
        raise ValueError(
            f"need at least {2 * field.max_mode + 1} time samples, got {nt}"
        )
    grid = field.grid
    basis, weights, dt_weights = _real_time_basis(field, nt, oscillatory)
    powers = _sample_powers(weights, basis.swapaxes(0, 1), q)
    dt_power = float(np.mean(_sample_powers(dt_weights, basis.swapaxes(0, 1), q)))
    coeff = _rfftn(basis, grid.dim).swapaxes(0, 1)
    del basis
    _add_block_powers(powers, grid, coeff, weights, q, (1, 2))
    bochner = (float(np.mean(powers)) * grid.volume) ** (1.0 / q)
    return bochner + (dt_power * grid.volume) ** (1.0 / q)


def _bochner_gradient_norm(field: TimePeriodicField, q: float) -> float:
    """Space-time L^q norm of the gradient of a scalar stack, the order-1 part
    of :func:`maxreg_norm`: ((1/T) int_0^T sum_i ||d_i p(t)||_q^q dt)^(1/q),
    on the same instants."""
    grid = field.grid
    nt = _default_time_samples(field.max_mode, q)
    basis, weights, _ = _real_time_basis(field, nt)
    coeff = _rfftn(basis, grid.dim).swapaxes(0, 1)
    del basis
    powers = np.zeros(nt)
    _add_block_powers(powers, grid, coeff, weights, q, (1,))
    return (float(np.mean(powers)) * grid.volume) ** (1.0 / q)


def _add_block_powers(
    powers: np.ndarray, grid: GridSpec, coeff: np.ndarray, weights, q: float, orders
) -> None:
    """Add to ``powers`` the grid means of |D^alpha v_j|^q for every |alpha| in
    ``orders``, in symbol order, where v_j = sum_b weights[j, b] B_b and
    ``coeff`` holds the (ncomp, nb) real-FFT coefficients of the fields B_b."""
    for order in orders:
        for symbol in grid.derivative_symbols[order]:
            blocks = (_irfftn(part * symbol, grid.shape) for part in coeff)
            powers += _sample_powers(weights, blocks, q)


def _real_time_basis(
    field: TimePeriodicField, nt: int, oscillatory: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real fields B_b and weights for the samples at t_j = j * period / nt.

    With B_0 = u_0, B_{2k-1} = 2 Re u_k and B_{2k} = -2 Im u_k, the samples
    are u(t_j) = sum_b weights[j, b] B_b and du/dt(t_j) = sum_b
    dt_weights[j, b] B_b.  An exactly zero u_0 is dropped with its columns;
    ``oscillatory`` takes u_0 as zero.
    """
    size = 2 * field.max_mode + 1
    basis = np.empty((size,) + field.modes.shape[1:])
    basis[0] = 0.0 if oscillatory else field.mode(0).real
    for k in range(1, field.max_mode + 1):
        mode = field.mode(k)
        basis[2 * k - 1] = 2.0 * mode.real
        basis[2 * k] = -2.0 * mode.imag
    weights = np.zeros((nt, size))
    dt_weights = np.zeros((nt, size))
    weights[:, 0] = 1.0
    phase = 2.0 * np.pi * np.arange(nt) / nt
    for k in range(1, field.max_mode + 1):
        cos, sin = np.cos(k * phase), np.sin(k * phase)
        omega = field.omega(k)
        weights[:, 2 * k - 1] = cos
        weights[:, 2 * k] = sin
        dt_weights[:, 2 * k - 1] = -omega * sin
        dt_weights[:, 2 * k] = omega * cos
    if size > 1 and not basis[0].any():
        return basis[1:], weights[:, 1:], dt_weights[:, 1:]
    return basis, weights, dt_weights


def _sample_powers(weights: np.ndarray, components, q: float) -> np.ndarray:
    """Grid means of |v_j|^q for v_j = sum_b weights[j, b] B_b, where
    ``components`` yields the (nb, ...) fields B_b one component at a time."""
    # einsum rather than a BLAS product: at these sizes BLAS wakes worker
    # threads that busy-wait on the other cores, so CPU time far exceeds wall
    # time (the package otherwise runs on one core unless FFT workers are set).
    mag_sq = None
    for fields in components:
        samples = np.einsum("jb,b...->j...", weights, fields)
        np.square(samples, out=samples)
        mag_sq = samples if mag_sq is None else np.add(mag_sq, samples, out=mag_sq)
        del samples
    if q != 2.0:
        np.power(mag_sq, q / 2.0, out=mag_sq)
    return np.mean(mag_sq.reshape(len(weights), -1), axis=1)


def spacetime_l2_plancherel(field: TimePeriodicField) -> float:
    """Space-time L^2 norm evaluated directly from the time-mode stack.

    Parseval in time turns the period average into a sum over the modes
    k = -K..K (:func:`_fold_modes`).  This is an exact cross-check for
    quadrature-based L^2 quantities.
    """
    total = _fold_modes(
        float(np.mean(np.sum(np.abs(mode) ** 2, axis=0))) for mode in field.modes
    )
    return float(np.sqrt(total * field.grid.volume))
