"""Circle sampling, Laurent coefficients, and scalar Wiener-Hopf splitting.

Transform convention (fixed package-wide): a row sequence u_x maps to
u(z) = sum_x u_x z^(-x), so the "plus" part (sum over x >= 0) carries
Laurent orders n <= 0 and is analytic outside the annulus, while the
"minus" part (x < 0) carries orders n >= 1 and is analytic inside and
vanishes at z = 0.  Additive splitting is therefore a lossless partition
of coefficients at n = 0 | n = 1.

Multiplicative factorization K = K_plus * K_minus goes through the
unwrapped logarithm: split log K additively, K_minus = exp(minus part),
K_plus = K / K_minus.  This requires winding number 0 and no zeros on the
contour, and fixes K_minus(0) = 1 (the minus-type log part vanishes at 0).

Coefficients are computed with the FFT on grids z_k = rho * exp(2*pi*i*k/Nq);
stored coefficients are true Laurent coefficients (radius-independent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DivergentSeries,
    LengthMismatch,
    NonzeroWinding,
    PhaseStepTooLarge,
    ZeroOnContour,
)

__all__ = [
    "CircleGrid",
    "LaurentSeries",
    "SplitPair",
    "sample",
    "coefficients",
    "row_coefficients",
    "row_values",
    "plus_values",
    "additive_split",
    "winding_number",
    "mult_factorize",
    "FactorizationReport",
    "half_transform_exp",
    "series_to_csv",
]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class CircleGrid:
    """Uniform sampling circle: nodes z_k = radius * exp(2*pi*i*k/count).

    The node, order and radius-power tables are computed on first use and
    kept, read-only, for the life of the grid.
    """

    radius: float = 1.0
    count: int = 4096

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("grid radius must be positive")
        if self.count <= 0 or self.count % 2 != 0:
            raise ValueError("grid count must be a positive even integer")

    @cached_property
    def nodes(self) -> np.ndarray:
        k = np.arange(self.count)
        return _read_only(self.radius * np.exp(2j * np.pi * k / self.count))

    @cached_property
    def orders(self) -> np.ndarray:
        """Laurent orders resolved by this grid: [-count/2, count/2)."""
        return _read_only(np.arange(-self.count // 2, self.count // 2))

    @cached_property
    def radius_powers(self) -> np.ndarray:
        """radius**n at each order n: the synthesis scale."""
        return _read_only(self.radius ** self.orders.astype(float))

    @cached_property
    def inverse_radius_powers(self) -> np.ndarray:
        """radius**(-n) at each order n: the analysis scale."""
        return _read_only(self.radius ** (-self.orders.astype(float)))


@dataclass(frozen=True)
class LaurentSeries:
    """Laurent coefficients a_n for n in [-Nq/2, Nq/2) on a defining radius.

    coeff[i] is the coefficient of z**n with n = i - len(coeff)//2.
    """

    coeff: np.ndarray
    radius: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 0:
            raise ValueError("coefficient array must be 1-D with even length")
        object.__setattr__(self, "coeff", c)

    @property
    def orders(self) -> np.ndarray:
        n = self.coeff.size
        return np.arange(-n // 2, n // 2)

    def coefficient(self, n: int) -> complex:
        i = n + self.coeff.size // 2
        if not 0 <= i < self.coeff.size:
            return 0j
        return complex(self.coeff[i])

    def values_on(self, grid: CircleGrid) -> np.ndarray:
        """Exact synthesis sum_n a_n z_k^n at the grid nodes (FFT)."""
        if grid.count != self.coeff.size:
            raise LengthMismatch("grid count does not match series length")
        return row_values(self.coeff, grid)

    def __call__(self, z):
        """Evaluate sum_n a_n z^n at arbitrary z (scalar or array)."""
        za = np.asarray(z, dtype=complex)
        half = self.coeff.size // 2
        # nonnegative orders 0..half-1, then negative orders -1..-half in 1/z
        pos = np.polyval(self.coeff[half:][::-1], za)
        neg = np.polyval(self.coeff[:half], za ** -1.0) * za ** -1.0 \
            if np.any(self.coeff[:half]) else np.zeros_like(za)
        out = pos + neg
        return complex(out) if za.ndim == 0 else out


@dataclass(frozen=True)
class SplitPair:
    """Additive split: plus holds orders n <= 0, minus holds n >= 1."""

    plus: LaurentSeries
    minus: LaurentSeries


def sample(func, grid: CircleGrid) -> np.ndarray:
    """Evaluate func on all grid nodes in one call, preserving order.

    func takes the array of nodes.  Values may be scalars, vectors or
    matrices per node: the result has shape (count,), (count, d) or
    (count, d, d).  A result without a leading axis of length count
    raises LengthMismatch.
    """
    nodes = grid.nodes
    vals = np.asarray(func(nodes), dtype=complex)
    if vals.shape[:1] != nodes.shape:
        raise LengthMismatch(f"expected {grid.count} values along the first axis, "
                             f"got shape {vals.shape}")
    return vals


def coefficients(samples, grid: CircleGrid) -> LaurentSeries:
    """Laurent coefficients from samples on the grid (inverse DFT).

    The returned coefficients satisfy values_on(grid) == samples to
    rounding; they are exact when the sampled function is band-limited
    to orders [-Nq/2, Nq/2) on this circle.
    """
    vals = np.asarray(samples, dtype=complex)
    if vals.shape != (grid.count,):
        raise LengthMismatch(f"expected {grid.count} samples, got {vals.shape}")
    return LaurentSeries(row_coefficients(vals, grid), grid.radius)


def _swap_halves(coeff: np.ndarray) -> np.ndarray:
    """fftshift by slices: FFT order (n at index n % count) to centred order, or back."""
    half = coeff.shape[-1] // 2
    return np.concatenate((coeff[..., half:], coeff[..., :half]), axis=-1)


def row_coefficients(samples, grid: CircleGrid, orders=None, out=None) -> np.ndarray:
    """Laurent coefficients of every row of samples, shape (..., count).

    One FFT along the last axis, scaled by 1/count inside it (exact on
    power-of-two grids), transforms all rows, into out if given (samples
    itself too).  Without orders the result holds every order of
    grid.orders, as coefficients() does; with orders (each in
    [-count/2, count/2)) just those, read by index so that the radius
    scale reaches no others.  Each value is bit-identical to the one
    coefficients() gives for that row; on the unit circle the radius
    scale is 1 and is not applied.
    """
    raw = np.fft.fft(samples, axis=-1, norm="forward", out=out)
    if orders is None:
        coeff, index = _swap_halves(raw), slice(None)
    else:
        n = np.asarray(orders)
        half = grid.count // 2
        if n.size and not (-half <= n.min() and n.max() < half):
            raise LengthMismatch(f"orders outside [-{half}, {half}) on this grid")
        coeff, index = np.take(raw, n % grid.count, axis=-1), n + half
    return coeff if grid.radius == 1.0 else coeff * grid.inverse_radius_powers[index]


def row_values(coeff, grid: CircleGrid) -> np.ndarray:
    """Samples on the grid of every row of coefficients, shape (..., count).

    The batched form of LaurentSeries.values_on: one unscaled inverse FFT
    along the last axis, each row bit-identical to values_on of that row.
    """
    fft_order = _swap_halves(coeff if grid.radius == 1.0 else coeff * grid.radius_powers)
    return np.fft.ifft(fft_order, axis=-1, norm="forward", out=fft_order)


def plus_values(samples, grid: CircleGrid) -> np.ndarray:
    """Samples of the plus part (orders n <= 0) of every row of samples, split
    in FFT order, where the two transforms' radius scales cancel unapplied."""
    raw = np.fft.fft(samples, axis=-1, norm="forward")
    raw[..., 1:grid.count // 2] = 0.0
    return np.fft.ifft(raw, axis=-1, norm="forward", out=raw)


def additive_split(series: LaurentSeries) -> SplitPair:
    """Lossless partition: plus gets n <= 0 (including a_0), minus gets n >= 1."""
    plus, minus = series.coeff.copy(), series.coeff.copy()
    plus[series.coeff.size // 2 + 1:] = minus[:series.coeff.size // 2 + 1] = 0.0
    return SplitPair(plus=LaurentSeries(plus, series.radius),
                     minus=LaurentSeries(minus, series.radius))


def _phase_steps(samples: np.ndarray, modulus: np.ndarray) -> tuple[np.ndarray, int]:
    """Cyclic node-to-node phase increments, angles of neighbours' ratios, checked
    (no zero on the contour, before dividing; no step above pi/2), and their winding."""
    if np.any(modulus < 1e-14):
        raise ZeroOnContour("sample with modulus < 1e-14 on the contour")
    steps = np.angle(np.concatenate((samples[1:], samples[:1])) / samples)
    worst = float(np.max(np.abs(steps)))
    if worst > np.pi / 2:
        raise PhaseStepTooLarge(f"max phase step {worst:.3f} rad exceeds pi/2")
    return steps, int(round(float(np.sum(steps)) / (2.0 * np.pi)))


def winding_number(samples) -> int:
    """Net phase turns of the sample loop around the origin.

    Accumulates per-step unwrapped increments; the grid must resolve the
    function well enough that no step exceeds pi/2.
    """
    vals = np.asarray(samples, dtype=complex)
    return _phase_steps(vals, np.abs(vals))[1]


@dataclass(frozen=True)
class FactorizationReport:
    winding: int
    reconstruction_residual: float
    leakage_plus: float
    leakage_minus: float
    count: int
    radius: float
    # K_plus and K_minus synthesized on the grid for the residual, kept so
    # that callers need not transform the factors again
    plus_samples: np.ndarray | None = field(default=None, repr=False, compare=False)
    minus_samples: np.ndarray | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "winding": self.winding,
            "reconstruction_residual": self.reconstruction_residual,
            "leakage_plus": self.leakage_plus,
            "leakage_minus": self.leakage_minus,
            "count": self.count,
            "radius": self.radius,
        }


def mult_factorize(samples, grid: CircleGrid):
    """Multiplicative factorization K = K_plus * K_minus on the grid.

    K_plus is analytic and invertible outside the sampling circle
    (coefficients at n <= 0 only), K_minus inside with K_minus(0) = 1.
    Returns (K_plus, K_minus, report); the report carries the max relative
    reconstruction error of the truncated factor series against the input
    samples and the wrong-side coefficient leakage that was discarded.

    log K is split in FFT order (order n at index n % count); one
    exponential, of its minus part, gives K_minus on the nodes and K_plus =
    K / K_minus there, before both are transformed and truncated.  On
    power-of-two unit-circle grids all is bit-identical to those steps
    taken through additive_split of coefficients().

    Raises NonzeroWinding if the index is not 0 (this factorization form
    does not exist then), ZeroOnContour for vanishing samples and
    LengthMismatch for samples that are not one per grid node.
    """
    vals = np.asarray(samples, dtype=complex)
    if vals.shape != (grid.count,):
        raise LengthMismatch(f"expected {grid.count} samples, got {vals.shape}")
    modulus = np.abs(vals)
    steps, wn = _phase_steps(vals, modulus)  # one pass for the winding and the phase
    if wn != 0:
        raise NonzeroWinding(wn)

    phase = np.angle(vals[0]) + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    log_k = np.log(modulus) + 1j * phase
    # log K's minus part sits at 1 .. half - 1; K_minus = exp of it, K_plus = K / K_minus
    half = grid.count // 2
    np.fft.fft(log_k, norm="forward", out=log_k)
    log_k[0] = log_k[half:] = 0.0
    factors = np.empty((2, grid.count), dtype=complex)
    np.exp(np.fft.ifft(log_k, norm="forward", out=log_k), out=factors[1])
    np.divide(vals, factors[1], out=factors[0])
    np.fft.fft(factors, norm="forward", out=factors)  # the factors' coefficients
    if grid.radius != 1.0:  # true coefficients; the split above needed no scale
        factors *= _swap_halves(grid.inverse_radius_powers)

    def _leak(coeff, wrong):
        # wrong-side share of the factor, then discard it
        scale = float(np.max(np.abs(coeff)))
        leak = float(np.max(np.abs(coeff[wrong]))) / scale
        coeff[wrong] = 0.0
        return leak

    # plus factor keeps orders n <= 0; minus keeps n >= 0
    leak_plus = _leak(factors[0], slice(1, half))
    leak_minus = _leak(factors[1], slice(half, None))
    plus_coeff, minus_coeff = _swap_halves(factors)  # the two series returned
    if grid.radius != 1.0:
        factors *= _swap_halves(grid.radius_powers)
    plus_vals, minus_vals = np.fft.ifft(factors, norm="forward", out=factors)
    recon = plus_vals * minus_vals
    residual = float(np.max(np.abs(recon - vals) / modulus))
    report = FactorizationReport(
        winding=wn,
        reconstruction_residual=residual,
        leakage_plus=leak_plus,
        leakage_minus=leak_minus,
        count=grid.count,
        radius=grid.radius,
        plus_samples=plus_vals,
        minus_samples=minus_vals,
    )
    return LaurentSeries(plus_coeff, grid.radius), LaurentSeries(minus_coeff, grid.radius), report


def half_transform_exp(amplitude: complex, phase: complex, side: str, strict: bool = True):
    """Closed-form half-range transform of the exponential A q^x.

    With q = exp(i*kx), the incident row A exp(-i*kx*x) transforms to

        minus (x <= -1):  A q z / (1 - q z),     valid for |q z| < 1,
        plus  (x >=  0):  A q z / (q z - 1),     valid for |q z| > 1.

    Returns a callable of z.  With strict=True (default) evaluation
    outside the stated region raises DivergentSeries; strict=False
    evaluates the analytic continuation (used for forcing assembly on
    contours where the defining sum diverges but the function continues).
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    a = complex(amplitude)
    q = complex(phase)

    minus = side == "minus"

    def transform(z):
        za = np.asarray(z, dtype=complex)
        qz = q * za
        if strict and np.any(np.abs(qz) >= 1.0 if minus else np.abs(qz) <= 1.0):
            raise DivergentSeries(f"{side} transform requires |q z| {'<' if minus else '>'} 1")
        out = a * qz / (1.0 - qz) if minus else a * qz / (qz - 1.0)
        return complex(out) if za.ndim == 0 else out

    return transform


def series_to_csv(series: LaurentSeries, path, header_lines=()):
    """Write coefficients as CSV columns n, re, im."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("n,re,im\n")
        np.savetxt(fh, np.column_stack([series.orders, series.coeff.real, series.coeff.imag]),
                   fmt=["%d", "%.17e", "%.17e"], delimiter=",")
