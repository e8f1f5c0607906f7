"""Independent loop-based reference implementations.

Everything here is deliberately written with explicit Python loops and
no shared code with the package, so it can serve as an oracle for the
vectorized implementations.
"""

import math


def oracle_gradient(values, dx, dy, eps):
    """Centered interior / one-sided edge differences, plus magnitude and
    the stabilized unit vector. values is a list-of-lists or 2-D array."""
    h = len(values)
    w = len(values[0])
    gx = [[0.0] * w for _ in range(h)]
    gy = [[0.0] * w for _ in range(h)]
    mag = [[0.0] * w for _ in range(h)]
    ux = [[0.0] * w for _ in range(h)]
    uy = [[0.0] * w for _ in range(h)]
    for i in range(h):
        for j in range(w):
            if j == 0:
                gx[i][j] = (values[i][1] - values[i][0]) / dx
            elif j == w - 1:
                gx[i][j] = (values[i][w - 1] - values[i][w - 2]) / dx
            else:
                gx[i][j] = (values[i][j + 1] - values[i][j - 1]) / (2.0 * dx)
            if i == 0:
                gy[i][j] = (values[1][j] - values[0][j]) / dy
            elif i == h - 1:
                gy[i][j] = (values[h - 1][j] - values[h - 2][j]) / dy
            else:
                gy[i][j] = (values[i + 1][j] - values[i - 1][j]) / (2.0 * dy)
            mag[i][j] = math.sqrt(gx[i][j] ** 2 + gy[i][j] ** 2)
            ux[i][j] = gx[i][j] / (mag[i][j] + eps)
            uy[i][j] = gy[i][j] / (mag[i][j] + eps)
    return gx, gy, mag, ux, uy


def oracle_line_gradient_adjoint(acc, lines, axis, g_t, g_along, g_normal, d_along,
                                 d_normal):
    """Add into acc (a 2-D array) the transpose of the map from a field a to its
    lines along axis (rows for 0, columns for 1, in any order and repeated), the
    derivative along each line (centred inside, one-sided at its two ends) and
    the one across it (centred inside, one-sided at the grid's border), applied
    to g_t, g_along and g_normal, each shaped like the lines."""
    n_across, n_along = acc.shape if axis == 0 else acc.shape[::-1]

    def add(line, q, value):  # into pixel q of line
        if axis == 0:
            acc[line, q] += value
        else:
            acc[q, line] += value

    for p, line in enumerate(lines):
        lo, hi = max(line - 1, 0), min(line + 1, n_across - 1)
        for q in range(n_along):
            at = (p, q) if axis == 0 else (q, p)
            add(line, q, g_t[at])
            if q == 0:
                a, b, step = 1, 0, d_along
            elif q == n_along - 1:
                a, b, step = q, q - 1, d_along
            else:
                a, b, step = q + 1, q - 1, 2.0 * d_along
            add(line, a, g_along[at] / step)
            add(line, b, -g_along[at] / step)
            add(hi, q, g_normal[at] / ((hi - lo) * d_normal))
            add(lo, q, -g_normal[at] / ((hi - lo) * d_normal))


def oracle_step_advdiff(values, u_x, u_y, diffusivity, dt, steps, dx, dy):
    """steps forward-Euler steps of dT/dt = -u . grad T + D lap T on a periodic
    grid, pixel by pixel: first-order upwind differences toward the side the flow
    comes from, and the centred five-point Laplacian. Returns a list of lists."""
    h = len(values)
    w = len(values[0])
    t = [[float(v) for v in row] for row in values]
    for _ in range(steps):
        new = [[0.0] * w for _ in range(h)]
        for i in range(h):
            for j in range(w):
                c = t[i][j]
                left, right = t[i][(j - 1) % w], t[i][(j + 1) % w]
                above, below = t[(i - 1) % h][j], t[(i + 1) % h][j]
                dtdx = (c - left) / dx if u_x >= 0 else (right - c) / dx
                dtdy = (c - above) / dy if u_y >= 0 else (below - c) / dy
                lap = ((left - 2.0 * c + right) / (dx * dx)
                       + (above - 2.0 * c + below) / (dy * dy))
                new[i][j] = c - dt * (u_x * dtdx + u_y * dtdy) + dt * diffusivity * lap
        t = new
    return t


def oracle_reach(h, w, cell_h, cell_w):
    """S, the pixels the flux loss reads: those whose row is within one row of a
    cell's first or last row, or whose column is within one column of a cell's
    first or last column. A list of lists of bools."""
    def near(n, cell):
        edges = [k + off for k in range(0, n, cell) for off in (0, cell - 1)]
        return [any(abs(i - e) <= 1 for e in edges) for i in range(n)]

    rows, cols = near(h, cell_h), near(w, cell_w)
    return [[rows[i] or cols[j] for j in range(w)] for i in range(h)]


def perimeter_sites(i0, j0, cell_h, cell_w):
    """Boundary walk of one cell: top l-to-r, bottom l-to-r, left
    t-to-b, right t-to-b; corners once per incident edge."""
    sites = []
    for j in range(j0, j0 + cell_w):
        sites.append((i0, j, 0, -1))
    for j in range(j0, j0 + cell_w):
        sites.append((i0 + cell_h - 1, j, 0, 1))
    for i in range(i0, i0 + cell_h):
        sites.append((i, j0, -1, 0))
    for i in range(i0, i0 + cell_h):
        sites.append((i, j0 + cell_w - 1, 1, 0))
    return sites


def oracle_cell_fluxes(values, dx, dy, cell_h, cell_w, eps, ratio_eps=None,
                       anomaly=False):
    """Per-cell (phi_adv, phi_diff, r_eff) lists in row-major cell order."""
    if ratio_eps is None:
        ratio_eps = eps
    h = len(values)
    w = len(values[0])
    _, _, mag, ux, uy = oracle_gradient(values, dx, dy, eps)
    n_rows = h // cell_h
    n_cols = w // cell_w
    phi_adv, phi_diff, r_eff = [], [], []
    for r in range(n_rows):
        for c in range(n_cols):
            sites = perimeter_sites(r * cell_h, c * cell_w, cell_h, cell_w)
            count = len(sites)
            t_mean = sum(values[i][j] for i, j, _, _ in sites) / count if anomaly else 0.0
            adv = 0.0
            diff = 0.0
            for i, j, n_x, n_y in sites:
                adv += (values[i][j] - t_mean) * (ux[i][j] * n_x + uy[i][j] * n_y)
                diff += mag[i][j]
            adv /= count
            diff /= count
            phi_adv.append(adv)
            phi_diff.append(diff)
            r_eff.append(adv / (diff + ratio_eps))
    return phi_adv, phi_diff, r_eff


def oracle_pde_loss(coarse_values, coarse_dx, coarse_dy, fine_values, fine_dx,
                    fine_dy, cell_h, cell_w, scale_y, scale_x, eps,
                    ratio_eps=None, anomaly=False):
    _, _, r_c = oracle_cell_fluxes(coarse_values, coarse_dx, coarse_dy,
                                   cell_h, cell_w, eps, ratio_eps, anomaly)
    _, _, r_f = oracle_cell_fluxes(fine_values, fine_dx, fine_dy,
                                   cell_h * scale_y, cell_w * scale_x, eps,
                                   ratio_eps, anomaly)
    sq = [(a - b) ** 2 for a, b in zip(r_f, r_c)]
    return sum(sq) / len(sq)


def oracle_rmse(pred, truth):
    total = 0.0
    n = 0
    for row_p, row_t in zip(pred, truth):
        for p, t in zip(row_p, row_t):
            total += (p - t) ** 2
            n += 1
    return math.sqrt(total / n)


def oracle_bias(pred, truth):
    total = 0.0
    n = 0
    for row_p, row_t in zip(pred, truth):
        for p, t in zip(row_p, row_t):
            total += p - t
            n += 1
    return total / n


def oracle_r_squared(pred, truth):
    flat_t = [t for row in truth for t in row]
    mean_t = sum(flat_t) / len(flat_t)
    ss_res = 0.0
    for row_p, row_t in zip(pred, truth):
        for p, t in zip(row_p, row_t):
            ss_res += (p - t) ** 2
    ss_tot = sum((t - mean_t) ** 2 for t in flat_t)
    return 1.0 - ss_res / ss_tot


def oracle_pearson(pred, truth):
    flat_p = [p for row in pred for p in row]
    flat_t = [t for row in truth for t in row]
    mean_p = sum(flat_p) / len(flat_p)
    mean_t = sum(flat_t) / len(flat_t)
    num = sum((p - mean_p) * (t - mean_t) for p, t in zip(flat_p, flat_t))
    den_p = math.sqrt(sum((p - mean_p) ** 2 for p in flat_p))
    den_t = math.sqrt(sum((t - mean_t) ** 2 for t in flat_t))
    return num / (den_p * den_t)
