"""Gradient-descent refinement of a fine field.

Minimizes  J(T) = mean((T - T_init)**2) + lambda * flux_ratio_loss(T)
with backtracking line search. objective, gradient and refine evaluate J
through one _Objective, which builds the grid pair and the FluxRatioLoss
once per call. Its numeric gradient (central differences per pixel over
that J) is the reference; the analytic one, FluxRatioLoss.adjoint of the
last evaluation, is gated on agreement with it; it reuses that evaluation's
T - T_init as well, so the fidelity gradient is one pass over the iterate,
and the fidelity is that difference's dot product with itself.

The loss reads, and its adjoint writes, only S (supergrid.Reach), so from
init both T - T_init and J's gradient stay exactly 0 off S. Where at least
half the pixels lie off S, refine iterates on S alone and writes the final
field back once; elsewhere (cells 4 pixels or less along either axis put
every pixel in S) on the whole field. Work arrays are allocated once per
call, all row-major like the iterate's arrays; candidates alternate between
two of them, never overwriting init.values or the accepted iterate. Since
init is finite, a non-finite candidate has a non-finite total and is rejected.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceStallError, DimensionMismatchError
from .findiff import DEFAULT_EPS
from .grid_core import Grid2D, GridPair
from .supergrid import FluxRatioLoss, FluxReport, Reach


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
        for name, low in (("lambda_pde", ">= 0"), ("tol", ">= 0"), ("max_iters", ">= 0"),
                          ("step_size", "> 0"), ("fd_h", "> 0")):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0 or (value == 0 and low == "> 0"):
                raise ValueError(f"{name} must be finite and {low}, got {value}")
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
    coarse_report: FluxReport | None = None  # the flux reference


class _Objective:
    """J = fidelity + lam * pde_loss of fields of fine's geometry, for one init
    and coarse grid; lam starts at cfg.lambda_pde.

    J is evaluated at an iterate x, the sources the flux loss reads its row and
    its column lines from (supergrid.Reach), x[0] and x[-1]. Of a whole field x
    is (its values,). With compact, where at least half the pixels lie off the
    loss's reach S, x is the field's rows and its columns of S and stands for
    the field that is init off S. The column source's rows of the row block are
    scratch, a second copy of pixels the row block holds: each evaluation first
    rewrites them from the row block and sets them to 0 in T - T_init, and each
    analytic gradient adds its column terms there into the row block and then
    sets them to 0, so every pass may take x's whole (contiguous) arrays.
    """

    def __init__(self, fine, init, coarse, cfg, compact=False):
        if (init.height, init.width, init.dx, init.dy) != (fine.height, fine.width, fine.dx,
                                                           fine.dy):
            raise DimensionMismatchError(
                f"init is {init.height}x{init.width}, fine field is {fine.height}x{fine.width}; "
                f"init's spacing (dx, dy) is ({init.dx}, {init.dy}), the fine field's "
                f"({fine.dx}, {fine.dy})")
        self.flux = FluxRatioLoss(GridPair.from_grids(coarse, fine), cfg.eps,
                                  cfg.cell_override, cfg.ratio_eps)
        self.init, self.cfg, self.lam = init, cfg, cfg.lambda_pde
        reach, (h, w) = Reach.of(self.flux.part_f), init.values.shape
        self.reach = None
        if compact and 2 * (h - len(reach.rows)) * (w - len(reach.cols)) >= h * w:
            self.reach = reach
            # the row block's pixels in S's columns, as flat indices into it
            self._near = np.arange(len(reach.rows))[:, None] * w + reach.cols
        self.x_init = self.split(init.values)
        self._diff = self.empty()  # T - T_init at the last evaluation

    def split(self, values):
        """The iterate of a field's values, each array row-major."""
        if self.reach is None:
            return (np.ascontiguousarray(values),)
        return values[self.reach.rows], values.take(self.reach.cols, axis=1)

    def empty(self):
        """A new iterate, its values unset."""
        return tuple(np.empty(b.shape) for b in self.x_init)

    def field(self, x):
        """The field x stands for, as a checked Grid2D."""
        values = x[0]
        if self.reach is not None:
            values = self.init.values.copy()
            values[:, self.reach.cols] = x[1]
            values[self.reach.rows] = x[0]
        return self.init.with_values(values)

    def __call__(self, x):
        """(total, fidelity, PdeLossResult) at x, whose column source first takes
        its pixels of the row block from it."""
        for d, b, b0 in zip(self._diff, x, self.x_init):
            np.subtract(b, b0, out=d)
        if self.reach is not None:
            x[1][self.reach.rows] = x[0].take(self._near)
            self._diff[1][self.reach.rows] = 0.0
        fid = float(sum(np.einsum("ij,ij", d, d) for d in self._diff) / self.init.values.size)
        result = self.flux.forward_blocks(x[0], x[-1])
        return fid + self.lam * result.loss, fid, result

    def gradient_into(self, g, x):
        """J's gradient at x, in g, an iterate of empty(). The analytic one scales
        the last evaluation's T - T_init and back-propagates its flux loss, so that
        evaluation must have been at x; the numeric one differences J along each
        pixel of x, exactly 0 on the column source's scratch, which every
        evaluation overwrites."""
        if self.cfg.grad_mode == "numeric_central":
            h, y = self.cfg.fd_h, [b.copy() for b in x]
            for gb, yb in zip(g, y):
                for idx in np.ndindex(yb.shape):
                    orig = yb[idx]
                    yb[idx] = orig + h
                    j_plus = self(y)[0]
                    yb[idx] = orig - h
                    j_minus = self(y)[0]
                    yb[idx] = orig
                    gb[idx] = (j_plus - j_minus) / (2.0 * h)
            return g
        for gb, d in zip(g, self._diff):
            np.multiply(d, 2.0 / self.init.values.size, out=gb)
        if self.lam == 0.0:
            return g
        self.flux.adjoint(g[0], scale=self.lam, cols=g[-1])
        if self.reach is not None:  # the column terms on the row block's pixels
            g[0].reshape(-1)[self._near] += g[1][self.reach.rows]
            g[1][self.reach.rows] = 0.0
        return g


def objective(fine, init, coarse, cfg):
    """(total, fidelity, pde) with total = fidelity + lambda * pde."""
    obj = _Objective(fine, init, coarse, cfg)
    total, fid, result = obj(obj.split(fine.values))
    return total, fid, result.loss


def gradient(fine, init, coarse, cfg):
    """Gradient of the composite objective with respect to the fine field."""
    obj = _Objective(fine, init, coarse, cfg)
    x = obj.split(fine.values)
    if cfg.grad_mode == "analytic":
        obj(x)  # the forward pass the adjoint back-propagates
    return obj.gradient_into(obj.empty(), x)[0]


def refine(init, coarse, cfg):
    """Backtracking gradient descent from the initial fine field."""
    obj = _Objective(init, init, coarse, cfg, compact=True)
    current = obj.x_init
    grad, free, spare = obj.empty(), obj.empty(), obj.empty()
    _, fid, result = obj(current)
    if cfg.normalize_pde and cfg.lambda_pde > 0 and result.loss > 0:
        obj.lam = cfg.lambda_pde / result.loss
    total = fid + obj.lam * result.loss

    trace = RefineTrace(objective=[total], fidelity=[fid], pde=[result.loss],
                        lambda_used=obj.lam, coarse_report=result.coarse_report)

    for _ in range(cfg.max_iters):
        trace.iters_run += 1
        obj.gradient_into(grad, current)
        if all(g.max() < 1e-15 and g.min() > -1e-15 for g in grad):  # |grad| < 1e-15
            trace.converged = True
            break
        with np.errstate(over="ignore", invalid="ignore"):  # candidates may overflow
            for k in range(31):  # initial step plus up to 30 halvings
                step = cfg.step_size * 0.5 ** k
                for c, g, f in zip(current, grad, free):
                    np.subtract(c, np.multiply(g, step, out=f), out=f)
                new_total, fid, result = obj(free)
                if new_total < total:  # False for the NaN or inf total of a non-finite candidate
                    break
            else:  # no break: every step was rejected
                trace.final_field = obj.field(current)
                raise ConvergenceStallError(
                    f"no descent step found after 30 halvings at iteration "
                    f"{trace.iters_run}", trace)
        current = free
        free, spare = spare, free  # the next candidate must not overwrite current
        trace.objective.append(new_total)
        trace.fidelity.append(fid)
        trace.pde.append(result.loss)
        rel_drop = (total - new_total) / max(abs(total), 1e-300)
        total = new_total
        if rel_drop < cfg.tol:
            trace.converged = True
            break

    trace.final_field = obj.field(current)
    return trace
