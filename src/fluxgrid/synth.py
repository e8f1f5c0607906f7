"""Synthetic field generators with known analytic properties.

Constant/affine fields for exactness checks, power-law Gaussian random
fields for spectral-slope closure, and an explicit periodic
advection-diffusion stepper (first-order upwind advection, centered
diffusion, forward Euler) for physically consistent scenario pairs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StabilityError
from .findiff import check_stabilizer
from .grid_core import Grid2D, make_pair


@dataclass
class GrfSpec:
    """Power-law Gaussian random field parameters."""

    height: int
    width: int
    target_slope: float
    seed: int
    amplitude: float = 1.0

    def __post_init__(self):
        if not -np.inf < self.target_slope < 0:
            raise ValueError(f"target_slope must be finite and < 0, got {self.target_slope}")
        if self.height < 16 or self.width < 16:
            raise ValueError(
                f"random-field dims must be >= 16 for a usable spectrum, "
                f"got {self.height}x{self.width}")
        check_stabilizer("amplitude", self.amplitude)


@dataclass
class AdvDiffSpec:
    """Constant-velocity advection-diffusion scenario on a periodic grid."""

    u_x: float
    u_y: float
    diffusivity: float
    dt: float
    steps: int
    initial: Grid2D

    def __post_init__(self):
        if not np.isfinite([self.u_x, self.u_y]).all():
            raise ValueError(f"u_x and u_y must be finite, got {self.u_x}, {self.u_y}")
        if not 0 <= self.diffusivity < np.inf:
            raise ValueError(f"diffusivity must be finite and >= 0, got {self.diffusivity}")
        check_stabilizer("dt", self.dt)
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


def gen_constant(height, width, value, dx=1.0, dy=1.0):
    return Grid2D(height, width, dx, dy, np.full((height, width), float(value)))


def gen_affine(height, width, a, b, c, dx=1.0, dy=1.0):
    """T = a*x + b*y + c sampled at cell centers x=(j+0.5)dx, y=(i+0.5)dy."""
    x = (np.arange(width) + 0.5) * dx
    y = (np.arange(height) + 0.5) * dy
    vals = a * x[None, :] + b * y[:, None] + c
    return Grid2D(height, width, dx, dy, np.broadcast_to(vals, (height, width)).copy())


def gen_grf(spec, dx=1.0, dy=1.0):
    """Zero-mean random field whose radial power spectrum follows
    k**target_slope.

    White noise is transformed, shaped by k**(slope/2) with the DC
    amplitude forced to zero, and inverse-transformed. Starting from a
    real noise field keeps the spectrum exactly Hermitian, so the inverse
    transform is real to machine precision. Deterministic per seed; the
    result is rescaled to standard deviation = amplitude.
    """
    h, w = spec.height, spec.width
    rng = np.random.default_rng(spec.seed)
    noise_hat = np.fft.fft2(rng.standard_normal((h, w)))

    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.fftfreq(w)[None, :]
    k = np.sqrt(fx * fx + fy * fy)
    shaping = np.zeros_like(k)
    nonzero = k > 0
    shaping[nonzero] = k[nonzero] ** (spec.target_slope / 2.0)

    field = np.fft.ifft2(noise_hat * shaping).real
    field -= field.mean()
    field *= spec.amplitude / field.std()
    return Grid2D(h, w, dx, dy, field)


def _cfl_numbers(spec):
    g = spec.initial
    adv = abs(spec.u_x) * spec.dt / g.dx + abs(spec.u_y) * spec.dt / g.dy
    diff = spec.diffusivity * spec.dt * (1.0 / g.dx ** 2 + 1.0 / g.dy ** 2)
    return adv, diff


def step_advdiff(spec):
    """Evolve the initial field under periodic advection-diffusion.

    Upwind advection is stable up to an advective CFL of 1 (and is exact
    for unit-CFL integer shifts); centered diffusion needs its own number
    <= 0.25. Total heat is conserved by construction on the periodic
    domain.
    """
    adv_cfl, diff_cfl = _cfl_numbers(spec)
    if adv_cfl > 1.0 + 1e-12 or diff_cfl > 0.25 + 1e-12:
        raise StabilityError(
            f"unstable time step: advective CFL {adv_cfl:.6g} (limit 1.0), "
            f"diffusive CFL {diff_cfl:.6g} (limit 0.25)")
    g = spec.initial
    t = g.values.copy()
    dx, dy, dt = g.dx, g.dy, spec.dt
    # upwind advection written as interpolation toward the upwind
    # neighbor, so a unit-CFL step is a bitwise-exact cyclic shift
    a_x = abs(spec.u_x) * dt / dx
    a_y = abs(spec.u_y) * dt / dy
    shift_x = 1 if spec.u_x >= 0 else -1
    shift_y = 1 if spec.u_y >= 0 else -1
    for _ in range(spec.steps):
        upwind_x = np.roll(t, shift_x, axis=1)
        upwind_y = np.roll(t, shift_y, axis=0)
        lap = ((np.roll(t, 1, axis=1) - 2.0 * t + np.roll(t, -1, axis=1)) / dx ** 2
               + (np.roll(t, 1, axis=0) - 2.0 * t + np.roll(t, -1, axis=0)) / dy ** 2)
        t = ((1.0 - a_x - a_y) * t + a_x * upwind_x + a_y * upwind_y
             + dt * spec.diffusivity * lap)
    return g.with_values(t)


def make_scenario(spec, scale):
    """Run the stepper at fine resolution and pair it with its block mean."""
    fine = step_advdiff(spec)
    return make_pair(fine, scale, scale)
