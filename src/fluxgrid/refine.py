"""Gradient-descent refinement of a fine field.

Minimizes  J(T) = mean((T - T_init)**2) + lambda * flux_ratio_loss(T)
with backtracking line search. objective, gradient and refine evaluate J
through one _Objective, which builds the grid pair and the FluxRatioLoss
once per call. Its numeric gradient (central differences per pixel over
that J) is the reference; the analytic one, FluxRatioLoss.adjoint of the
last evaluation, is gated on agreement with it. Full-grid arrays are
allocated once per call; candidates alternate between two buffers, never
overwriting init.values or the accepted field, and are rejected on overflow.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceStallError
from .findiff import DEFAULT_EPS
from .grid_core import Grid2D, GridPair
from .supergrid import FluxRatioLoss


@dataclass
class RefineConfig:
    lambda_pde: float = 1.0
    step_size: float = 1.0
    max_iters: int = 100
    grad_mode: str = "analytic"  # or "numeric_central"
    fd_h: float = 1e-5
    tol: float = 1e-8
    eps: float = DEFAULT_EPS
    ratio_eps: float | None = None
    cell_override: tuple[int, int] | None = None
    # scale lambda by 1/L_pde(init) so it acts as a relative weight
    normalize_pde: bool = True

    def __post_init__(self):
        if self.lambda_pde < 0:
            raise ValueError(f"lambda_pde must be >= 0, got {self.lambda_pde}")
        if self.step_size <= 0 or self.fd_h <= 0:
            raise ValueError("step_size and fd_h must be positive")
        if self.grad_mode not in ("analytic", "numeric_central"):
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")


@dataclass
class RefineTrace:
    """Per-iteration objective decomposition; index 0 is the initial state."""

    objective: list = field(default_factory=list)
    fidelity: list = field(default_factory=list)
    pde: list = field(default_factory=list)
    iters_run: int = 0
    final_field: Grid2D | None = None
    lambda_used: float = 0.0
    converged: bool = False


class _Objective:
    """J = fidelity + lam * pde_loss of fields of fine's geometry, for one init
    and coarse grid; lam starts at cfg.lambda_pde."""

    def __init__(self, fine, init, coarse, cfg):
        self.flux = FluxRatioLoss(GridPair.from_grids(coarse, fine), cfg.eps,
                                  cfg.cell_override, cfg.ratio_eps)
        self.init, self.cfg, self.lam = init, cfg, cfg.lambda_pde
        self._diff = np.empty(fine.values.shape)

    def __call__(self, fine):
        """(total, fidelity, PdeLossResult) at fine."""
        diff = np.subtract(fine.values, self.init.values, out=self._diff)
        fid = float(np.mean(np.square(diff, out=diff)))
        result = self.flux.forward(fine)
        return fid + self.lam * result.loss, fid, result

    def gradient_into(self, out, fine):
        """J's gradient at fine, in out. The analytic one back-propagates the
        last evaluation, which must have been at fine."""
        if self.cfg.grad_mode == "numeric_central":
            h, vals = self.cfg.fd_h, fine.values.copy()
            for idx in np.ndindex(out.shape):
                orig = vals[idx]
                vals[idx] = orig + h
                j_plus = self(fine.with_values(vals))[0]
                vals[idx] = orig - h
                j_minus = self(fine.with_values(vals))[0]
                vals[idx] = orig
                out[idx] = (j_plus - j_minus) / (2.0 * h)
            return out
        np.subtract(fine.values, self.init.values, out=out)
        out *= 2.0 / out.size
        return out if self.lam == 0.0 else self.flux.adjoint(out, scale=self.lam)


def objective(fine, init, coarse, cfg):
    """(total, fidelity, pde) with total = fidelity + lambda * pde."""
    total, fid, result = _Objective(fine, init, coarse, cfg)(fine)
    return total, fid, result.loss


def gradient(fine, init, coarse, cfg):
    """Gradient of the composite objective with respect to the fine field."""
    obj = _Objective(fine, init, coarse, cfg)
    if cfg.grad_mode == "analytic":
        obj(fine)  # the forward pass the adjoint back-propagates
    return obj.gradient_into(np.empty_like(fine.values), fine)


def refine(init, coarse, cfg):
    """Backtracking gradient descent from the initial fine field."""
    obj = _Objective(init, init, coarse, cfg)
    grad, free, spare = (np.empty(init.values.shape) for _ in range(3))
    _, fid, result = obj(init)
    if cfg.normalize_pde and cfg.lambda_pde > 0 and result.loss > 0:
        obj.lam = cfg.lambda_pde / result.loss
    total = fid + obj.lam * result.loss

    trace = RefineTrace(objective=[total], fidelity=[fid], pde=[result.loss],
                        lambda_used=obj.lam)
    current = init

    for _ in range(cfg.max_iters):
        trace.iters_run += 1
        obj.gradient_into(grad, current)
        if max(grad.max(), -grad.min()) < 1e-15:
            trace.converged = True
            break
        with np.errstate(over="ignore", invalid="ignore"):  # candidates may overflow
            for k in range(31):  # initial step plus up to 30 halvings
                step = cfg.step_size * 0.5 ** k
                np.subtract(current.values, np.multiply(grad, step, out=free), out=free)
                try:
                    cand = current.with_values(free)
                except ValueError:  # inf or NaN values: not a descent step
                    continue
                new_total, fid, result = obj(cand)
                if new_total < total:  # False for a NaN or inf total
                    break
            else:  # no break: every step was rejected
                trace.final_field = current
                raise ConvergenceStallError(
                    f"no descent step found after 30 halvings at iteration "
                    f"{trace.iters_run}", trace)
        current = cand
        free, spare = spare, free  # the next candidate must not overwrite current
        trace.objective.append(new_total)
        trace.fidelity.append(fid)
        trace.pde.append(result.loss)
        rel_drop = (total - new_total) / max(abs(total), 1e-300)
        total = new_total
        if rel_drop < cfg.tol:
            trace.converged = True
            break

    trace.final_field = current
    return trace
