"""Output checks computed apart from the program.

Nothing here imports ``hessiancone``: the discrete Hessians use the
benchmark's own stencils, f is evaluated in closed form (sqrt(a d - |b|^2)
for 2x2 Hermitian matrices, det^(1/3) for 3x3 real ones), the reference
solutions and right-hand sides are the benchmark's own closed forms, and
the arrowhead re-check draws specs, thresholds and eigenvalues itself.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# sup-norm residual of the solver is 1e-8; ten times that absorbs the
# rounding difference between two stencil implementations
RESIDUAL_TOL = 1e-7
# sup|u - u*| <= ERROR_C h^2 (measured: 0.072 h^2 on the 16^4 model,
# 0.033 h^2 on the 32^3 cylinder)
ERROR_C = 0.25
SANDWICH_TOL = 1e-8
STAR_AMPLITUDE = 0.02
REAL_STAR_AMPLITUDE = 0.005
DEGENERATE_LEVEL = 0.4
ARROW_MARGIN = 1e-9


def coords(shape, m):
    """Node coordinates i/m per axis, broadcastable over the grid."""
    return np.meshgrid(*[np.arange(s) / m for s in shape], indexing="ij", sparse=True)


def _interior(a, axis):
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(1, -1)
    return a[tuple(sl)]


def _d1(u, axis, da, h):
    """Centered first difference; periodic wrap except along ``da``,
    where only nodes with both neighbours are kept."""
    if axis != da:
        return (np.roll(u, -1, axis) - np.roll(u, 1, axis)) / (2 * h)
    hi = [slice(None)] * u.ndim
    lo = [slice(None)] * u.ndim
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    return (u[tuple(hi)] - u[tuple(lo)]) / (2 * h)


def _d2(u, axis, da, h):
    if axis != da:
        return _interior((np.roll(u, -1, axis) - 2 * u + np.roll(u, 1, axis)) / h**2, da)
    hi = [slice(None)] * u.ndim
    lo = [slice(None)] * u.ndim
    hi[axis], lo[axis] = slice(2, None), slice(None, -2)
    return (u[tuple(hi)] - 2 * _interior(u, axis) + u[tuple(lo)]) / h**2


def _dmix(u, a, b, da, h):
    """Product of centered differences along a != b (periodic one first,
    so the Dirichlet trim happens last)."""
    if a == da:
        a, b = b, a
    first = _d1(u, a, da, h)
    return _d1(first, b, da, h) if b == da else _interior(_d1(first, b, da, h), da)


def complex_ma_residual(u, m, psi):
    """f(lambda(I + ddbar u)) - psi on the interior of the n = 2 model,
    f = sqrt(a d - |b|^2); NaN where I + ddbar u leaves Gamma_2."""
    h, da = 1.0 / m, 2
    a = 1 + 0.25 * (_d2(u, 0, da, h) + _d2(u, 1, da, h))
    d = 1 + 0.25 * (_d2(u, 2, da, h) + _d2(u, 3, da, h))
    re = _dmix(u, 0, 2, da, h) + _dmix(u, 1, 3, da, h)
    im = _dmix(u, 0, 3, da, h) - _dmix(u, 1, 2, da, h)
    det = a * d - 0.0625 * (re**2 + im**2)
    ok = (a + d > 0) & (det > 0)
    return np.where(ok, np.sqrt(np.where(ok, det, 1.0)), np.nan) - _interior(psi, da)


def real_ma_residual(u, m, psi):
    """det(I + D^2 u)^(1/3) - psi on the interior of the d = 3 cylinder;
    NaN where I + D^2 u leaves Gamma_3."""
    h, da = 1.0 / m, 2
    H = [[None] * 3 for _ in range(3)]
    for a in range(3):
        H[a][a] = 1 + _d2(u, a, da, h)
        for b in range(a + 1, 3):
            H[a][b] = H[b][a] = _dmix(u, a, b, da, h)
    s1 = H[0][0] + H[1][1] + H[2][2]
    s2 = (H[0][0] * H[1][1] - H[0][1] ** 2 + H[0][0] * H[2][2] - H[0][2] ** 2
          + H[1][1] * H[2][2] - H[1][2] ** 2)
    det = (H[0][0] * (H[1][1] * H[2][2] - H[1][2] ** 2)
           - H[0][1] * (H[0][1] * H[2][2] - H[1][2] * H[0][2])
           + H[0][2] * (H[0][1] * H[1][2] - H[1][1] * H[0][2]))
    ok = (s1 > 0) & (s2 > 0) & (det > 0)
    return np.where(ok, np.cbrt(np.where(ok, det, 1.0)), np.nan) - _interior(psi, da)


def trig_star(shape, m, amplitude=STAR_AMPLITUDE):
    """A cos(2 pi x_1) cos(2 pi y_1) sin(pi x_2) and f of I plus its exact
    complex Hessian, the manufactured pair of the n = 2 model."""
    x1, y1, x2, _ = coords(shape, m)
    cx, sx = np.cos(2 * np.pi * x1), np.sin(2 * np.pi * x1)
    cy, sy = np.cos(2 * np.pi * y1), np.sin(2 * np.pi * y1)
    s, c = np.sin(np.pi * x2), np.cos(np.pi * x2)
    star = amplitude * cx * cy * s
    a = 1 - 2 * np.pi**2 * star
    d = 1 - 0.25 * np.pi**2 * star
    b2 = (0.5 * np.pi**2 * amplitude * c) ** 2 * ((sx * cy) ** 2 + (cx * sy) ** 2)
    psi = np.sqrt(a * d - b2)
    return np.broadcast_to(star, shape), np.broadcast_to(psi, shape)


def real_star(shape, m, amplitude=REAL_STAR_AMPLITUDE):
    """A cos(2 pi x) cos(2 pi y) sin(pi z) and det(I + its Hessian)^(1/3)."""
    x, y, z = coords(shape, m)
    cx, sx = np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)
    cy, sy = np.cos(2 * np.pi * y), np.sin(2 * np.pi * y)
    s, c = np.sin(np.pi * z), np.cos(np.pi * z)
    star = amplitude * cx * cy * s
    p2 = np.pi**2
    hxx = hyy = 1 - 4 * p2 * star
    hzz = 1 - p2 * star
    hxy = 4 * p2 * amplitude * sx * sy * s
    hxz = -2 * p2 * amplitude * sx * cy * c
    hyz = -2 * p2 * amplitude * cx * sy * c
    det = (hxx * (hyy * hzz - hyz**2) - hxy * (hxy * hzz - hyz * hxz)
           + hxz * (hxy * hyz - hyy * hxz))
    return np.broadcast_to(star, shape), np.broadcast_to(np.cbrt(det), shape)


def degenerate_psi(shape, m, eps, level=DEGENERATE_LEVEL):
    """level (1 - cos(2 pi x_1)) / 2 + eps."""
    x1 = coords(shape, m)[0]
    return np.broadcast_to(level * 0.5 * (1 - np.cos(2 * np.pi * x1)) + eps, shape)


def check_boundary(u):
    """Both Dirichlet faces (axis 2) must hold phi = 0 exactly."""
    faces = np.take(u, [0, u.shape[2] - 1], axis=2)
    return [] if not np.any(faces) else ["boundary faces differ from phi = 0"]


def _check_residual(r):
    if not np.all(np.isfinite(r)):
        return [f"{int(np.count_nonzero(~np.isfinite(r)))} nodes outside the cone"]
    worst = float(np.abs(r).max())
    return [] if worst <= RESIDUAL_TOL else [f"discrete residual {worst!r} > {RESIDUAL_TOL}"]


def _check_error(u, star, m):
    err = float(np.abs(u - star).max())
    bound = ERROR_C / m**2
    return [] if err <= bound else [f"sup|u - u*| = {err!r} > {bound!r}"]


def check_complex_manufactured(u, m):
    star, psi = trig_star(u.shape, m)
    return (check_boundary(u) + _check_residual(complex_ma_residual(u, m, psi))
            + _check_error(u, star, m))


def check_real_manufactured(u, m):
    star, psi = real_star(u.shape, m)
    return (check_boundary(u) + _check_residual(real_ma_residual(u, m, psi))
            + _check_error(u, star, m))


def check_complex_degenerate(u, m, eps):
    """Residual against the shifted degenerate psi and the comparison
    sandwich 0 <= u <= w, where w = 4 x_2 (1 - x_2) solves the trace
    Laplacian equation (1/4) w'' = -trace(I) = -2 with zero faces."""
    problems = check_boundary(u)
    problems += _check_residual(complex_ma_residual(u, m, degenerate_psi(u.shape, m, eps)))
    x2 = coords(u.shape, m)[2]
    w = 4 * x2 * (1 - x2)
    if float(u.min()) < -SANDWICH_TOL:
        problems.append(f"u below the zero subsolution: min {float(u.min())!r}")
    above = float((u - w).max())
    if above > SANDWICH_TOL:
        problems.append(f"u above the majorant 4 x(1-x) by {above!r}")
    return problems


def _read_rows(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def strong_threshold(d, a, eps):
    """(2n-3)/eps sum|a|^2 + (n-1) sum|d| + (n-2) eps/(2n-3), row-wise."""
    n = d.shape[-1] + 1
    return ((2 * n - 3) / eps * np.sum(np.abs(a) ** 2, axis=-1)
            + (n - 1) * np.sum(np.abs(d), axis=-1) + (n - 2) * eps / (2 * n - 3))


def draw_arrow_specs(seed, n, count):
    """The sweep's documented spec law on its first chunk stream
    [seed, 0]: d uniform in [-10, 10], border modulus uniform in [0, 10]
    with uniform phase."""
    rng = np.random.default_rng([seed, 0])
    d = rng.uniform(-10.0, 10.0, size=(count, n - 1))
    mod = rng.uniform(0.0, 10.0, size=(count, n - 1))
    phase = rng.uniform(0.0, 2 * np.pi, size=(count, n - 1))
    return d, mod * np.exp(1j * phase)


def recheck_strong(seed, n, eps, reported_max_dev, picks, chunk=512):
    """Dense eigvalsh on the specs ``picks`` of the sweep's first chunk
    with the corner at the benchmark's own strong threshold: sorted small
    eigenvalues within eps of the sorted diagonal, the top one within
    (n-1) eps above the corner, and no deviation above the sweep's
    reported maximum."""
    d, a = draw_arrow_specs(seed, n, chunk)
    d, a = d[picks], a[picks]
    corner = strong_threshold(d, a, eps)
    mats = np.zeros((len(d), n, n), dtype=complex)
    idx = np.arange(n - 1)
    mats[:, idx, idx] = d
    mats[:, idx, n - 1] = a
    mats[:, n - 1, idx] = np.conj(a)
    mats[:, n - 1, n - 1] = corner
    lam = np.linalg.eigvalsh(mats)
    dev = np.abs(np.sort(d, axis=1) - lam[:, : n - 1])
    excess = lam[:, -1] - corner
    problems = []
    if np.any(dev >= eps + ARROW_MARGIN) or np.any(excess < -ARROW_MARGIN) or np.any(
        excess >= (n - 1) * eps + ARROW_MARGIN
    ):
        problems.append(f"strong concentration fails at n={n} eps={eps!r}")
    if float(dev.max()) > reported_max_dev + ARROW_MARGIN:
        problems.append(f"n={n} eps={eps!r}: sweep max_dev {reported_max_dev!r} "
                        f"below a recomputed deviation {float(dev.max())!r}")
    return problems


def check_studies(outdir, seed, picks, ns, eps_list, kinds, cone_exit):
    """Every lemma violations cell 0 with the expected rows present, the
    strong-threshold re-check of the specs ``picks`` (sweep seed ``seed``),
    and every cone-check failures cell 0.

    A cone-check run that exited 1 is a failed operation; its fd_gradient
    cells are exempt, since a fixed-step finite difference is not a
    reference near the cone boundary, but every other cell must be 0.
    """
    outdir = Path(outdir)
    problems = []
    expected = {(n, e) for n in ns for e in eps_list}
    for mode in ("strong", "weak", "distinct"):
        path = outdir / f"lemma_{mode}.csv"
        if not path.exists():
            problems.append(f"missing {path.name}")
            continue
        rows = _read_rows(path)
        seen = {(int(r["n"]), float(r["eps"])) for r in rows}
        if seen != expected:
            problems.append(f"{path.name}: rows {sorted(seen)} != expected")
        problems += [f"{path.name}: n={r['n']} eps={r['eps']} violations={r['violations']}"
                     for r in rows if int(r["violations"]) != 0]
        if mode == "strong":
            for r in rows:
                problems += recheck_strong(seed, int(r["n"]), float(r["eps"]),
                                           float(r["max_dev"]), picks)
    path = outdir / "cone_check.csv"
    if not path.exists():
        return problems + ["missing cone_check.csv"]
    rows = _read_rows(path)
    if {r["kind"] for r in rows} != set(kinds):
        problems.append(f"cone_check.csv: kinds {sorted({r['kind'] for r in rows})}")
    exempt = {"fd_gradient"} if cone_exit == 1 else set()
    problems += [f"cone_check.csv: {r['kind']} {r['check']} failures={r['failures']}"
                 for r in rows if int(r["failures"]) != 0 and r["check"] not in exempt]
    return problems
