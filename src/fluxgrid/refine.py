"""Gradient-descent refinement of a fine field.

Minimizes  J(T) = mean((T - T_init)**2) + lambda * flux_ratio_loss(T)
with backtracking line search. The numeric gradient (central differences
per pixel) is the reference; the analytic one is the hand-coded adjoint
FluxRatioLoss.adjoint, gated on agreement with the numeric one. refine
builds the coarse reference once and runs one forward pass per candidate;
the gradient at an accepted candidate reuses that pass. Full-grid arrays are
allocated once per call; candidates alternate between two buffers, never
overwriting init.values or the accepted field, and are rejected on overflow.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceStallError
from .findiff import DEFAULT_EPS
from .grid_core import Grid2D, GridPair
from .supergrid import FluxRatioLoss, pde_loss


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


def objective(fine, init, coarse, cfg):
    """(total, fidelity, pde) with total = fidelity + lambda * pde."""
    pair = GridPair.from_grids(coarse, fine)
    fid = _fidelity(fine, init)
    pde = pde_loss(pair, fine, eps=cfg.eps, cell_override=cfg.cell_override,
                   ratio_eps=cfg.ratio_eps).loss
    return fid + cfg.lambda_pde * pde, fid, pde


def _fidelity(fine, init, out=None):
    diff = np.subtract(fine.values, init.values, out=out)
    return float(np.mean(np.square(diff, out=diff)))


def _gradient_into(out, fine, init, lam, flux, result, lines):
    """The objective's analytic gradient, in out; (result, lines) = flux.forward(fine)."""
    np.subtract(fine.values, init.values, out=out)
    out *= 2.0 / out.size
    return out if lam == 0.0 else flux.adjoint(fine, result, lines, out=out, scale=lam)


def gradient(fine, init, coarse, cfg):
    """Gradient of the composite objective with respect to the fine field."""
    if cfg.grad_mode == "numeric_central":
        grad = np.zeros((fine.height, fine.width))
        vals = fine.values.copy()
        for idx in np.ndindex(grad.shape):
            orig = vals[idx]
            vals[idx] = orig + cfg.fd_h
            j_plus, _, _ = objective(fine.with_values(vals), init, coarse, cfg)
            vals[idx] = orig - cfg.fd_h
            j_minus, _, _ = objective(fine.with_values(vals), init, coarse, cfg)
            vals[idx] = orig
            grad[idx] = (j_plus - j_minus) / (2.0 * cfg.fd_h)
        return grad
    pair = GridPair.from_grids(coarse, fine)
    flux = FluxRatioLoss(pair, cfg.eps, cfg.cell_override, cfg.ratio_eps)
    return _gradient_into(np.empty_like(fine.values), fine, init, cfg.lambda_pde, flux,
                          *flux.forward(fine))


def refine(init, coarse, cfg):
    """Backtracking gradient descent from the initial fine field."""
    pair = GridPair.from_grids(coarse, init)
    flux = FluxRatioLoss(pair, cfg.eps, cfg.cell_override, cfg.ratio_eps)
    grad, scratch, free, spare = (np.empty(init.values.shape) for _ in range(4))

    def evaluate(fine):  # fidelity, pde_loss result, edge lines
        result, lines = flux.forward(fine)
        return _fidelity(fine, init, scratch), result, lines

    fid, result, lines = evaluate(init)
    cfg_run = cfg
    if cfg.normalize_pde and cfg.lambda_pde > 0 and result.loss > 0:
        cfg_run = replace(cfg, lambda_pde=cfg.lambda_pde / result.loss,
                          normalize_pde=False)
    lam = cfg_run.lambda_pde

    trace = RefineTrace(lambda_used=lam)
    current = init
    total = fid + lam * result.loss
    trace.objective.append(total)
    trace.fidelity.append(fid)
    trace.pde.append(result.loss)

    for _ in range(cfg_run.max_iters):
        trace.iters_run += 1
        if cfg_run.grad_mode == "numeric_central":
            grad = gradient(current, init, coarse, cfg_run)
        else:
            _gradient_into(grad, current, init, lam, flux, result, lines)
        if max(grad.max(), -grad.min()) < 1e-15:
            trace.converged = True
            break
        with np.errstate(over="ignore", invalid="ignore"):  # candidates may overflow
            for k in range(31):  # initial step plus up to 30 halvings
                step = cfg_run.step_size * 0.5 ** k
                np.subtract(current.values, np.multiply(grad, step, out=free), out=free)
                try:
                    cand = current.with_values(free)
                except ValueError:  # inf or NaN values: not a descent step
                    continue
                cand_fid, cand_result, cand_lines = evaluate(cand)
                new_total = cand_fid + lam * cand_result.loss
                if new_total < total:  # False for a NaN or inf total
                    break
            else:  # no break: every step was rejected
                trace.final_field = current
                raise ConvergenceStallError(
                    f"no descent step found after 30 halvings at iteration "
                    f"{trace.iters_run}", trace)
        current, fid, result, lines = cand, cand_fid, cand_result, cand_lines
        free, spare = spare, free  # the next candidate must not overwrite current
        trace.objective.append(new_total)
        trace.fidelity.append(fid)
        trace.pde.append(result.loss)
        rel_drop = (total - new_total) / max(abs(total), 1e-300)
        total = new_total
        if rel_drop < cfg_run.tol:
            trace.converged = True
            break

    trace.final_field = current
    return trace
