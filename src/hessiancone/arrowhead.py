"""Hermitian arrowhead matrices and quantitative eigenvalue concentration.

An arrowhead matrix is diagonal except for its last row and column.  When
the corner entry satisfies an explicit quadratic growth condition in terms
of the border weight ``sum |a_i|^2`` and the diagonal entries, the small
eigenvalues concentrate within ``eps`` of the diagonal entries and the top
eigenvalue sits within ``(n-1)*eps`` above the corner.  This module
evaluates the growth thresholds, verifies the concentration bounds against
a dense eigensolver, deflates repeated diagonal entries exactly, and runs
randomized sweeps over spec families.  The per-spec checks and the sweeps
share one verdict, ``_concentration``, written over stacked spectra.

Spectra are computed on a real symmetric matrix.  With the unitary
D = diag(a_i / |a_i|, 1) (a 1 where a_i = 0), D* M D keeps the diagonal
and the corner and replaces each border entry a_i by |a_i|, so the
Hermitian arrowhead M and the real one with border |a_i| have the same
spectrum (O'Leary & Stewart, J. Comput. Phys. 90, 1990); the real
eigensolver does about half the work of the complex one.

The sweeps work by bound and verify.  With the diagonal sorted,
d_1 < ... < d_k (k = n - 1), border z_i = |a_i| > 0 and corner c > d_k,
each small eigenvalue lies in (d_{j-1}, d_j) (d_0 = -inf), and
t_j = d_j - lambda_j solves t^2 + (c - d_j - S_j(t)) t - z_j^2 = 0, where
S_j(t) = sum_{i != j} z_i^2 / (d_i - d_j + t) decreases in t.  The root at
S_j(0) bounds t_j from above and, while that bound is below d_j - d_{j-1},
the root at S_j of the bound bounds t_j from below; the corner excess
lambda_n - c lies in
[sum z_i^2 / (c + E - d_i), E] with E = sum z_i^2 / (c - d_i).  The
secular equation and its interlacing are those of O'Leary & Stewart
(above) and Jakovcevic Stor, Slapnicar & Barlow (Linear Algebra Appl. 464,
2015).  A trial whose intervals show that it passes, and that it cannot
hold its batch's largest deviation or excess, is settled without a dense
solve; every other trial goes to the dense solver, so a sweep's maxima
and violation counts are the dense solver's own values.  Each cell does
O(k) work per trial: the upper bounds and the excess interval.  The
O(k^2) sums S_j(t) at the upper bounds, which give the lower bounds,
are formed only for the trials whose upper bound can exceed the batch's
largest lower bound, so the few that can set it.  Where the root at
S_j(0) is void (c - d_j <= S_j(0)), the sign of the secular function
c - lambda - sum z_i^2 / (d_i - lambda) just below each d_j, against a
bound on its rounding, certifies the deviations instead.  A cell's
trials depend only on n and the seed, so one draw per n serves every
cell (mode, eps, corner fraction): sweep_cells draws and sorts each
batch and forms its sums S_j(0) and the sums of its growth thresholds
once, then verifies every cell from it.

All functions are pure; sweeps are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrowheadSpec",
    "Spectrum",
    "ConcentrationReport",
    "SweepSummary",
    "eigenvalues",
    "threshold_strong",
    "threshold_weak",
    "threshold_distinct",
    "check_concentration_strong",
    "check_concentration_weak",
    "check_concentration_distinct",
    "deflate_repeated",
    "sweep_below_threshold",
    "sweep_at_threshold",
    "sweep_cells",
    "SWEEP_CSV_HEADER",
    "SPEC_BOUND",
]

# Strict inequalities of the exact-arithmetic statements are tested
# non-strictly with a margin that absorbs floating-point error: MARGIN plus
# ROUNDING_ULPS units of rounding at the matrix norm, the scale of the
# eigensolver's error on every eigenvalue.
MARGIN = 1e-9
ROUNDING_ULPS = 16

# Relative tolerance of the trace identity sum(lambda) = sum(d) + corner.
TRACE_RTOL = 1e-10

# The sweeps' secular-equation bounds are widened by n * SWEEP_SLACK of
# ||A||_F plus a bound on sum_i |z_i^2 / (d_i - d_j)| (see _bounds): it
# covers the bounds' own rounding and LAPACK's backward error on every
# eigenvalue, which scale with those two sums.
SWEEP_SLACK = 16 * np.finfo(float).eps

SWEEP_CSV_HEADER = "n,eps,corner_fraction,max_dev,max_excess,violations"

# The sweeps draw every diagonal and border entry within this modulus.
SPEC_BOUND = 10.0

# Sweep trials are drawn in fixed-size chunks, each from its own RNG
# stream; the chunk size is part of what defines a sweep's output.
_CHUNK = 512

# Consecutive chunks of a sweep are verified together, in batches of at
# least one chunk and at most _BATCH / n trials: each trial holds n - 1
# entries of every (n - 1, trials) plane of _bounds and one of every row.
# A batch only sets which trials reach the dense solver, never a sweep's
# output.
_BATCH = 8192

# _chunk_stats hands _spectra and _concentration at most this many matrix
# entries per call (32 MB of n x n float64 matrices, and weak's as many
# distances), so a large-n sweep never holds a whole chunk of them: 64 of
# a chunk's 512 trials at n = 256.  Each matrix is solved alone, so the
# blocks change no output; a batch fits in one block up to n = 90.
_DENSE_ENTRIES = 2**22


@dataclass(frozen=True)
class ArrowheadSpec:
    """Bordered-diagonal Hermitian matrix: diagonal ``d``, last column
    ``a_off``, real corner entry."""

    d: np.ndarray
    a_off: np.ndarray
    corner: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        a = np.asarray(self.a_off, dtype=complex)
        if d.ndim != 1 or a.ndim != 1:
            raise ValueError("d and a_off must be one-dimensional")
        if d.size != a.size:
            raise ValueError(
                f"dimension mismatch: len(d)={d.size}, len(a_off)={a.size}"
            )
        if d.size < 1:
            raise ValueError("need n >= 2, i.e. at least one diagonal entry")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(a))):
            raise ValueError("entries must be finite")
        if not np.isfinite(self.corner):
            raise ValueError("corner must be finite")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a_off", a)
        object.__setattr__(self, "corner", float(self.corner))

    @property
    def n(self) -> int:
        return self.d.size + 1


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending, with the trace identity and the
    corner-domination inequality validated at construction."""

    values: np.ndarray

    @classmethod
    def from_spec(cls, spec: ArrowheadSpec, values: np.ndarray) -> "Spectrum":
        values = np.sort(np.asarray(values, dtype=float))
        trace = float(np.sum(spec.d) + spec.corner)
        if abs(values.sum() - trace) > TRACE_RTOL * (1.0 + abs(trace)):
            raise ArithmeticError(
                f"trace identity violated: sum(eig)={values.sum()!r}, trace={trace!r}"
            )
        if values[-1] < spec.corner - MARGIN * (1.0 + abs(spec.corner)):
            raise ArithmeticError("largest eigenvalue below the corner entry")
        return cls(values=values)


@dataclass(frozen=True)
class ConcentrationReport:
    """Outcome of one concentration check.

    ``deviations`` holds ``|d_alpha - lambda_alpha|`` (sorted-index pairing
    for the strong/distinct checks, nearest-match for the weak check),
    ``corner_excess`` is ``lambda_n - corner``, and the pass flags are the
    asserted bounds evaluated with the floating-point margin.
    """

    mode: str
    epsilon: float
    threshold: float
    deviations: np.ndarray
    corner_excess: float
    deviation_ok: np.ndarray
    excess_ok: bool
    matched_indices: np.ndarray | None = field(default=None)

    @property
    def passed(self) -> bool:
        return bool(np.all(self.deviation_ok)) and self.excess_ok


def _assemble(d, a_off, corner):
    """Dense Hermitian matrices with zeros off the arrow pattern, stacked
    over the leading axes of d and a_off (one corner per matrix); real
    symmetric when a_off is real."""
    nm1 = d.shape[-1]
    m = np.zeros(d.shape[:-1] + (nm1 + 1, nm1 + 1), dtype=a_off.dtype)
    idx = np.arange(nm1)
    m[..., idx, idx] = d
    m[..., :nm1, nm1] = a_off
    m[..., nm1, :nm1] = np.conj(a_off)
    m[..., nm1, nm1] = corner
    return m


def _spectra(d, a_off, corner):
    """Ascending eigenvalues of the stacked arrowheads, from the dense
    real symmetric solver on the similar matrices with border |a_off|."""
    return np.linalg.eigvalsh(_assemble(d, np.abs(a_off), corner))


def eigenvalues(spec: ArrowheadSpec) -> Spectrum:
    """Ascending eigenvalues via the dense symmetric solver.

    Solver failures propagate as ``numpy.linalg.LinAlgError``; invariant
    violations (trace, corner domination) raise ``ArithmeticError``.
    """
    return Spectrum.from_spec(spec, _spectra(spec.d, spec.a_off, spec.corner))


def _weights(d, a_off):
    """n and the sums the growth thresholds read, one per stacked spec:
    sum |a|^2, sum |d| and sum(d + (n-2)|d|)."""
    d = np.asarray(d, dtype=float)
    n = d.shape[-1] + 1
    return (n, np.sum(np.abs(np.asarray(a_off)) ** 2, axis=-1),
            np.sum(np.abs(d), axis=-1), np.sum(d + (n - 2) * np.abs(d), axis=-1))


def _growth(mode, n, asq, dabs, dweak, eps):
    """The growth threshold of mode from the sums of _weights."""
    if mode == "strong":
        return (2 * n - 3) / eps * asq + (n - 1) * dabs + (n - 2) * eps / (2 * n - 3)
    if mode == "weak":
        return asq / eps + dweak + (n - 2) * eps
    return asq / eps + (n - 1) * dabs + (n - 2) * eps


def threshold_strong(d, a_off, eps: float) -> float:
    """Corner growth bound ``(2n-3)/eps * sum|a|^2 + (n-1) * sum|d|
    + (n-2) * eps / (2n-3)`` valid for every positive eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _growth("strong", *_weights(d, a_off), eps)


def threshold_weak(d, a_off, eps: float) -> float:
    """Corner growth bound ``sum|a|^2/eps + sum(d_i + (n-2)|d_i|)
    + (n-2) * eps`` for the nearest-match concentration bound."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _growth("weak", *_weights(d, a_off), eps)


def threshold_distinct(d, a_off, eps) -> float:
    """Corner growth bound ``sum|a|^2/eps + (n-1) * sum|d| + (n-2) * eps``
    used when the diagonal entries are pairwise distinct.  ``eps`` may be
    one value per stacked spec."""
    if np.any(np.asarray(eps) <= 0):
        raise ValueError("eps must be positive")
    return _growth("distinct", *_weights(d, a_off), eps)


_THRESHOLDS = {
    "strong": threshold_strong,
    "weak": threshold_weak,
    "distinct": threshold_distinct,
}


def _margin(lam):
    """The margin for each spectrum (eigenvalue axis last); its norm is
    max|lambda|."""
    return MARGIN + ROUNDING_ULPS * np.finfo(float).eps * np.abs(lam).max(axis=-1)


def _concentration(mode, d, lam, corner, eps):
    """The concentration verdict over the leading axes of the diagonals d
    (..., n-1) and ascending spectra lam (..., n), none for a single spec;
    corner and eps give one value per spec or one for all.

    Returns the deviations ``|d_alpha - lambda_alpha|`` (sorted-index
    pairing, or for "weak" the nearest match with ties broken toward the
    smaller index), the corner excess ``lambda_n - corner``, the masks
    deviation < eps and 0 <= excess < bound, each tested with the margin
    of its own spectrum, and for "weak" the matched indices (else None).
    The excess bound is ``(n-1) eps``, for "weak" plus
    ``|sum(d) - sum(d_matched)|``.
    """
    n = lam.shape[-1]
    small = lam[..., :-1]
    bound = (n - 1) * eps
    matched = None
    if mode == "weak":
        dist = np.abs(small[..., :, None] - d[..., None, :])
        matched = np.argmin(dist, axis=-1)  # argmin takes the first minimum
        dev = np.take_along_axis(dist, matched[..., None], axis=-1)[..., 0]
        d_matched = np.take_along_axis(d, matched, axis=-1)
        bound = bound + np.abs(d.sum(axis=-1) - d_matched.sum(axis=-1))
    else:
        dev = np.abs(np.sort(d, axis=-1) - small)
    excess = lam[..., -1] - corner
    margin = _margin(lam)
    deviation_ok = dev < (eps + margin)[..., None]
    excess_ok = (excess >= -margin) & (excess < bound + margin)
    return dev, excess, deviation_ok, excess_ok, matched


def _min_gap(ds):
    """Smallest distance between two diagonal entries of each stacked
    spec, from its sorted diagonal ds; inf for a single entry, where the
    distinct bound is vacuous.  Rounding is monotone, so the smallest
    difference of neighbours is the smallest over all pairs, to the bit."""
    return np.diff(ds, axis=-1).min(axis=-1, initial=np.inf)


def _check(mode, spec, eps):
    """Check one spec at the growth threshold of mode, against the dense
    eigensolver's spectrum."""
    thr = float(_THRESHOLDS[mode](spec.d, spec.a_off, eps))
    if spec.corner < thr - MARGIN * (1.0 + abs(thr)):
        raise ValueError(f"below threshold: corner={spec.corner!r} < {thr!r}")
    lam = eigenvalues(spec).values
    dev, excess, deviation_ok, excess_ok, matched = _concentration(
        mode, spec.d, lam, spec.corner, eps)
    return ConcentrationReport(
        mode=mode,
        epsilon=eps,
        threshold=thr,
        deviations=dev,
        corner_excess=float(excess),
        deviation_ok=deviation_ok,
        excess_ok=bool(excess_ok),
        matched_indices=matched,
    )


def check_concentration_strong(spec: ArrowheadSpec, eps: float) -> ConcentrationReport:
    """Per-index bounds ``|d_(alpha) - lambda_alpha| < eps`` (both sorted)
    and ``0 <= lambda_n - corner < (n-1) eps``, requiring the strong
    growth condition on the corner."""
    return _check("strong", spec, eps)


def check_concentration_weak(spec: ArrowheadSpec, eps: float) -> ConcentrationReport:
    """Each small eigenvalue is within ``eps`` of *some* diagonal entry,
    and the corner excess is below ``(n-1) eps + |sum(d) - sum(d_matched)|``.

    Nearest-match ties are broken toward the smaller index.
    """
    return _check("weak", spec, eps)


def check_concentration_distinct(spec: ArrowheadSpec, eps: float) -> ConcentrationReport:
    """Per-index bounds under pairwise-distinct diagonal entries.

    Requires ``0 < eps <= min gap / 2`` (vacuous when n = 2) and the
    distinct-case growth condition on the corner.
    """
    min_gap = float(_min_gap(np.sort(spec.d)))
    if min_gap == 0.0:
        raise ValueError("diagonal entries must be pairwise distinct")
    if eps > 0.5 * min_gap:
        raise ValueError(
            f"eps={eps!r} exceeds half the minimal diagonal gap {min_gap!r}"
        )
    return _check("distinct", spec, eps)


def deflate_repeated(spec: ArrowheadSpec) -> tuple[float, ArrowheadSpec]:
    """Split off one exact eigenvalue at a repeated diagonal entry.

    For the first pair ``i0 < j0`` with ``d[i0] == d[j0]``, ``d[i0]`` is an
    eigenvalue for every corner value; the remaining spectrum is that of
    the (n-1) x (n-1) arrowhead obtained by deleting row ``i0`` and merging
    the border weights: the entry at ``j0`` becomes
    ``sqrt(|a[j0]|^2 + |a[i0]|^2)``.
    """
    d, a = spec.d, spec.a_off
    pair = None
    for i in range(d.size):
        for j in range(i + 1, d.size):
            if d[i] == d[j]:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        raise ValueError("no repeated diagonal entries")
    i0, j0 = pair
    d_red = np.delete(d, i0)
    a_red = np.delete(a, i0).astype(complex)
    a_red[j0 - 1] = np.sqrt(np.abs(a[j0]) ** 2 + np.abs(a[i0]) ** 2)
    return float(d[i0]), ArrowheadSpec(d=d_red, a_off=a_red, corner=spec.corner)


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate of a randomized spec sweep; ``violations`` counts trials
    breaking the concentration bounds at the sweep's epsilon."""

    mode: str
    n: int
    eps: float
    corner_fraction: float
    trials: int
    seed: int
    max_dev: float
    max_excess: float
    violations: int

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.eps!r},{self.corner_fraction!r},"
            f"{self.max_dev!r},{self.max_excess!r},{self.violations}"
        )


def _draw_specs(n: int, trials: int, rng: np.random.Generator):
    """Diagonal entries uniform in [-10, 10]; border entries as their
    moduli |a_i|, uniform in [0, 10].  A sweep's verdict depends only on
    |a_i| (the similarity in the module docstring), so no phase is drawn.
    A phase would be the last draw of a chunk's own stream, so leaving it
    out keeps d and the moduli as they were."""
    d = rng.uniform(-SPEC_BOUND, SPEC_BOUND, size=(trials, n - 1))
    mod = rng.uniform(0.0, SPEC_BOUND, size=(trials, n - 1))
    return d, mod


def _draw_batch(n, trials, seed, cids):
    """The specs of the consecutive chunks cids of a sweep, each chunk
    drawn from its own stream [seed, cid], stacked."""
    drawn = [_draw_specs(n, min(_CHUNK, trials - cid * _CHUNK),
                         np.random.default_rng([seed, cid]))
             for cid in cids]
    return tuple(np.concatenate(x) for x in zip(*drawn))


def _root(b, zsq):
    """Positive root of t^2 + b t - zsq = 0 for b > 0, in the form
    without cancellation, b + sqrt(b^2 + 4 zsq) formed in one buffer."""
    den = 4.0 * zsq
    den += b * b
    np.sqrt(den, out=den)
    den += b
    return np.divide(2.0 * zsq, den, out=den)


def _secular_sum(ds, zsq, shift=None):
    """The secular sums S_j(shift_j) of the trials with sorted diagonals
    ds and squared border moduli zsq, over (k, trials) planes (S_j(0)
    without shift).  S_j adds zsq_i / (d_i - d_j + shift_j) in order of
    i, its i = j term entering as zsq_j / (inf + shift_j), in two planes
    of scratch."""
    total, term = np.empty_like(ds), np.empty_like(ds)
    for i in range(len(ds)):
        out = total if i == 0 else term
        np.subtract(ds[i], ds, out=out)
        out[i] = np.inf
        if shift is not None:
            out += shift
        np.divide(zsq[i], out, out=out)
        if i > 0:
            total += out
    return total


@dataclass(frozen=True)
class _Planes:
    """One batch of trials and what every cell of a sweep reads from it.

    d and the border moduli a stay unsorted, (trials, k); ds and z are
    the diagonals sorted ascending and the moduli in the same order, as
    (k, trials) planes.  zsq = z^2, the gaps between neighbours of ds
    (with -inf below and inf above), sum ds^2, sum z^2, the smallest gap,
    the secular sums S_j(0), _weights (n, sum |a|^2 in the row order of
    d, sum |d| and sum(d + (n-2)|d|)) and whether every z_i > 0 do not
    depend on the corner."""

    d: np.ndarray
    a: np.ndarray
    ds: np.ndarray
    z: np.ndarray
    zsq: np.ndarray
    gap: np.ndarray
    dsq: np.ndarray
    zsum: np.ndarray
    min_gap: np.ndarray
    s0: np.ndarray
    weights: tuple
    zpos: np.ndarray


def _sorted_planes(d, a):
    """The _Planes of the stacked trials with diagonals d and border
    moduli a."""
    order = np.argsort(d, axis=-1)
    ds, z = (np.take_along_axis(x, order, axis=-1).T.copy() for x in (d, a))
    zsq = z * z
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s0 = _secular_sum(ds, zsq)
    return _Planes(d=d, a=a, ds=ds, z=z, zsq=zsq,
                   gap=np.diff(ds, axis=0, prepend=-np.inf, append=np.inf),
                   dsq=(ds * ds).sum(axis=0), zsum=zsq.sum(axis=0),
                   min_gap=_min_gap(ds.T), s0=s0, weights=_weights(d, a),
                   zpos=(z > 0).all(axis=0))


def _bounds(p, corner):
    """Upper secular-equation bounds of the trials of the _Planes p with
    corners (trials), trials on the last axis: (valid, candidates, hi,
    slack, excess_lo, excess_hi).  Where valid, the deviation
    |d_j - lambda_j| of each small eigenvalue is at most a finite hi_j
    and the corner excess lies in [excess_lo, excess_hi] where those are
    finite.  Each holds for the exact spectrum and for the dense
    solver's, in the sorted pairing and in the nearest match.  The linear
    coefficient of the secular quadratic is b_j = c - d_j - S_j(0).  The
    excess is bounded twice: the interval [sum z_i^2 / (c + E - d_i), E]
    of the module docstring, then E cut to
    sum z_i^2 / (c - d_i + excess_lo), as x = sum z_i^2 / (c - d_i + x)
    decreases on the right.

    The widening slack_j covers the rounding of S_j, at most a few ulps
    of sum_i |z_i^2 / (d_i - d_j)| <= sum z^2 / (gap next to d_j), and of
    the rest, at most a few ulps of ||A||_F.  The upper bounds need every
    z_i > 0 and c > d_k, so that lambda_j lies in (d_{j-1}, d_j), and
    b_j > 0, the root's form: valid is these three conditions.  The
    nearest match is never farther than the sorted pairing, hi_j reads
    S_j(0) alone, and the excess bounds read no deviation bound.

    The candidates are the valid trials with hi_j <= g_j / 2 for the gap
    g_j below d_j (so distinct entries) and a finite excess_hi: those
    whose lower bounds _lower forms.  At most half the gap, each
    denominator of S_j(hi_j) keeps half of d_i - d_j, so its rounding
    stays relative, and d_j is the nearest entry to lambda_j, so lo_j
    bounds the nearest match too.  The other trials may hold inf or nan
    entries, which are never read.
    """
    k, zsq, gap = len(p.ds), p.zsq, p.gap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm = np.sqrt(p.dsq + 2.0 * p.zsum + corner * corner)
        slack = np.minimum(gap[:-1], gap[1:])
        np.divide(p.zsum, slack, out=slack)
        slack += norm
        slack *= (k + 1) * SWEEP_SLACK
        c_d = corner - p.ds
        b = c_d - p.s0
        valid = p.zpos & (corner > p.ds[-1]) & (b.min(axis=0) > 0)
        hi = _root(b, zsq)
        hi += slack
        top = (zsq / c_d).sum(axis=0)
        excess_slack = (k + 1) * SWEEP_SLACK * (norm + top)
        excess_lo = (zsq / (c_d + top)).sum(axis=0) - excess_slack
        excess_hi = (zsq / (c_d + np.maximum(excess_lo, 0.0))).sum(axis=0) + excess_slack
    candidates = valid & (hi <= 0.5 * gap[:-1]).all(axis=0) & np.isfinite(excess_hi)
    return valid, candidates, hi, slack, excess_lo, excess_hi


def _lower(p, corner, hi, slack, cols):
    """The lower bounds lo_j of the trials cols (indices, or a slice) of
    _bounds (same p, corner, hi and slack), (k, len(cols)): the root of
    the secular quadratic whose linear coefficient is c - d_j - S_j(hi_j),
    less the slack.  They hold on the candidates of _bounds where they
    are finite.  Each column is formed alone, so any set of columns gets
    the bits of the whole plane."""
    zsq, ds = p.zsq[:, cols], p.ds[:, cols]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c_d = corner[cols] - ds
        c_d -= _secular_sum(ds, zsq, hi[:, cols])
        lo = _root(c_d, zsq)
        lo -= slack[:, cols]
    return lo


# _top_lower forms lower bounds for this many candidates first
_FIRST_LOWER = 16


def _top_lower(p, corner, hi, slack, dev_hi, candidates):
    """The largest lower bound max_j lo_j over the candidates of _bounds
    whose lower bounds are all finite (-inf for none), forming lo only
    where it can set that maximum.  It is formed first for the
    _FIRST_LOWER candidates with the largest dev_hi = max_j hi_j, then
    for every candidate whose dev_hi still exceeds the best lower bound
    found, until none does.

    The maximum is the one over every candidate, to the bit, as no
    skipped candidate has a lower bound above dev_hi: lo_j <= hi_j in
    floating point.  On a candidate b_j > 0 and 0 <= hi_j <= g_j / 2.
    Rounding is monotone, so each denominator of S_j(hi_j), formed as
    fl(fl(d_i - d_j) + hi_j), is at least fl(d_i - d_j) and keeps its
    sign: it moves away from 0 for i > j and toward 0 for i < j, where
    it stays below -g_j / 2.  Each term z_i^2 / denominator is then at
    most its term of S_j(0), and the terms are summed in the same order,
    so S_j(hi_j) <= S_j(0) and the linear coefficient at hi_j is at
    least b_j > 0.  _root decreases in it, each operation of
    b + sqrt(b^2 + 4 zsq) being monotone for b >= 0, so lo_j <= the root
    at hi_j <= the root at 0 <= hi_j."""
    top = -np.inf
    open_ = candidates.copy()
    cols = np.flatnonzero(open_)
    if cols.size > _FIRST_LOWER:
        cols = cols[np.argpartition(dev_hi[cols], -_FIRST_LOWER)[-_FIRST_LOWER:]]
    while cols.size:
        lo = _lower(p, corner, hi, slack, cols)
        top = np.max(lo.max(axis=0), where=np.isfinite(lo).all(axis=0), initial=top)
        open_[cols] = False
        cols = np.flatnonzero(open_ & (dev_hi > top))
    return top


def _certified(p, corner, slack, cols, t_star):
    """Mask over the trials cols of the _Planes p with corners (trials)
    and the slack of _bounds (every z_i > 0 and c > d_k) whose sorted
    deviations the sign of the secular function keeps below t_star, one
    per trial.

    f(lambda) = c - lambda - sum_i z_i^2 / (d_i - lambda) vanishes at
    lambda_j and strictly decreases on (d_{j-1}, d_j), which holds
    lambda_j (d_0 = -inf).  Take tau_j = t_star - slack_j and lambda the
    float next above fl(d_j - tau_j), so lambda >= d_j - tau_j whatever
    the rounding.  The deviation t_j = d_j - lambda_j is below
    tau_j when lambda <= d_{j-1} (tau_j is at least the gap; a repeated
    entry is itself lambda_j), or when lambda < d_j and f(lambda) > 0,
    as then f(d_j - tau_j) >= f(lambda) > 0.  Where tau_j <= 0, lambda
    lies above d_j, so neither holds.  The computed f, summed as
    ((c - lambda) - t_1) - t_2 ..., is within err = (k + 4) eps
    (|c| + |lambda| + sum_i |t_i|) of the exact f at lambda: about
    twice gamma_{k+4} of those magnitudes, for the rounding of z_i^2,
    d_i - lambda and each quotient (gamma_3 of each |t_i|) and of the
    k + 1 subtractions, with room for the rounding of err itself.  The
    slack covers the dense solver's error and the rounding of tau_j, so
    the dense sorted deviation is below t_star, and the nearest match
    is never farther.

    The sorted pairing survives a zero border entry z_i = 0, where d_i
    is itself an eigenvalue and f has no pole: off the d_i, the inertia
    of the Schur complement f(lambda) counts #{d_i < lambda} +
    [f(lambda) < 0] eigenvalues below lambda (Haynsworth), so f(lambda)
    > 0 at lambda in (d_{j-1}, d_j) still puts lambda below lambda_j,
    and interlacing keeps lambda_j in [d_{j-1}, d_j].  _settled still
    hands it only trials with every z_i > 0."""
    ds, zsq = p.ds[:, cols], p.zsq[:, cols]
    c = corner[cols]
    below = np.empty_like(ds)
    below[0], below[1:] = -np.inf, ds[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = t_star - slack[:, cols]
        lam = np.nextafter(ds - tau, np.inf)
        f = c - lam
        size = np.abs(c) + np.abs(lam)
        for i in range(len(ds)):
            term = zsq[i] / (ds[i] - lam)
            f -= term
            size += np.abs(term, out=term)
        err = size * ((len(ds) + 4) * np.finfo(float).eps)
        sure = (lam <= below) | ((lam < ds) & (f > err))
    return sure.all(axis=0)


def _settled(p, corner, eps):
    """Mask of the trials of the _Planes p with corners (trials) that the
    secular equation settles, eps one per trial.  A settled trial passes
    with the margin MARGIN, a lower bound on every spectrum's margin,
    and the excess bound (n-1) eps, a lower bound on the weak one; and
    its deviations and excess stay below the batch's largest lower
    bounds, so a dense solve of the other trials finds both maxima.

    The excess needs excess_lo >= -MARGIN and excess_hi below both its
    bound and top_excess, the largest excess_lo over the candidates of
    _bounds; those bounds hold on every valid trial and read no
    deviation bound, and lo is finite on every candidate barring
    overflow, so the candidates stand for the trials with every bound
    finite.  The deviations are settled on the upper bounds where valid
    (no nan or inf hi or excess_hi passes the comparisons, and
    excess_lo, a sum less a slack that grows with it, is never +inf):
    dev_hi below eps + MARGIN and below top_dev, the largest lower bound
    (_top_lower).  Where the root bound is void (b_j <= 0 for some j),
    _certified keeps them below t_star = min(eps + MARGIN, top_dev)."""
    valid, candidates, hi, slack, excess_lo, excess_hi = _bounds(p, corner)
    dev_hi = hi.max(axis=0)
    top_dev = _top_lower(p, corner, hi, slack, dev_hi, candidates)
    top_excess = np.max(excess_lo, where=candidates, initial=-np.inf)
    excess = ((excess_lo >= -MARGIN) & (excess_hi < len(p.ds) * eps + MARGIN)
              & (excess_hi < top_excess))
    settled = valid & excess & (dev_hi < eps + MARGIN) & (dev_hi < top_dev)
    cols = np.flatnonzero(excess & ~valid & p.zpos & (corner > p.ds[-1]))
    if cols.size:
        t_star = np.minimum(eps[cols] + MARGIN, top_dev)
        settled[cols] = _certified(p, corner, slack, cols, t_star)
    return settled


def _chunk_stats(mode, p, eps, corner_fraction):
    """(max deviation, max excess, violations) of the trials of the
    _Planes p at the threshold of mode times corner_fraction: the dense
    verdict of the trials that _settled leaves, formed for blocks of at
    most _DENSE_ENTRIES matrix entries in turn.  The maxima are exact and
    NaN-propagating in any order, so the blocks change no output."""
    if mode == "distinct":
        eps = np.minimum(eps, 0.5 * p.min_gap)
    corner = corner_fraction * _growth(mode, *p.weights, eps)
    eps = np.broadcast_to(eps, corner.shape)
    dense = np.flatnonzero(~_settled(p, corner, eps))
    step = max(1, _DENSE_ENTRIES // (len(p.ds) + 1) ** 2)
    stats = []
    for k in range(0, len(dense), step):
        rows = dense[k:k + step]
        d, c = p.d[rows], corner[rows]
        lam = _spectra(d, p.a[rows], c)
        dev, excess, deviation_ok, excess_ok, _ = _concentration(mode, d, lam, c, eps[rows])
        stats.append((dev.max(), excess.max(),
                      np.count_nonzero(~(deviation_ok.all(axis=-1) & excess_ok))))
    dev, excess, violations = np.array(stats).T
    return float(dev.max()), float(excess.max()), int(violations.sum())


def sweep_cells(n: int, cells, trials: int, seed: int) -> list[SweepSummary]:
    """Randomized sweeps of every cell (mode, eps, corner_fraction) at
    dimension n, one SweepSummary per cell in the order given, each as
    its own sweep would report it.

    A cell's trials depend only on (n, trials, seed), so every cell reads
    the same batches: each is drawn, sorted and given its secular sums
    S_j(0) and threshold sums once, and only one batch is held at a
    time.  The corner is corner_fraction times the growth threshold of
    mode; for "distinct" the per-trial eps is capped at half the minimal
    diagonal gap.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cells = [(mode, eps, fraction) for mode, eps, fraction in cells]
    for mode, _, _ in cells:
        if mode not in _THRESHOLDS:
            raise ValueError(f"unknown sweep mode {mode!r}")
    chunks = (trials + _CHUNK - 1) // _CHUNK
    per_batch = max(1, _BATCH // (n * _CHUNK))
    totals = None
    for first in range(0, chunks, per_batch):
        cids = range(first, min(first + per_batch, chunks))
        planes = _sorted_planes(*_draw_batch(n, trials, seed, cids))
        stats = [_chunk_stats(mode, planes, eps, fraction) for mode, eps, fraction in cells]
        del planes  # the next batch is drawn and sorted without this one held
        totals = stats if totals is None else [
            (max(t[0], s[0]), max(t[1], s[1]), t[2] + s[2])
            for t, s in zip(totals, stats)]
    return [
        SweepSummary(
            mode=mode,
            n=n,
            eps=eps,
            corner_fraction=fraction,
            trials=trials,
            seed=seed,
            max_dev=max_dev,
            max_excess=max_excess,
            violations=violations,
        )
        for (mode, eps, fraction), (max_dev, max_excess, violations) in zip(cells, totals)
    ]


def sweep_below_threshold(
    n: int,
    eps: float,
    trials: int,
    seed: int,
    corner_fraction: float = 0.5,
) -> SweepSummary:
    """Observe deviations for random specs with the corner set to a
    fraction of the strong threshold.  No bound is claimed below the
    threshold; the summary reports what was seen."""
    return sweep_cells(n, [("strong", eps, corner_fraction)], trials, seed)[0]


def sweep_at_threshold(
    mode: str,
    n: int,
    eps: float,
    trials: int,
    seed: int,
) -> SweepSummary:
    """Randomized verification sweep with the corner exactly at the
    growth threshold of the chosen check (strong / weak / distinct).

    For the distinct check the per-trial epsilon is capped at half the
    minimal diagonal gap, as the per-index bound requires.
    """
    return sweep_cells(n, [(mode, eps, 1.0)], trials, seed)[0]
