"""Plug-in squared-bandwidth selection.

Two selectors share the same stage machinery: the fixed-point selector,
which needs no reference distribution, and the classical multi-stage
selector whose top stage is seeded by a normal reference rule.  All
computation happens on the sample mapped to [0, 1]; the returned t is
rescaled by the squared data range, which makes both selectors affine
equivariant by construction.  The cosine moments of the binned sample are
held by its histogram (:class:`grids.BinnedHistogram`), which every stage
functional reads; a caller that also smooths the sample passes that
histogram in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import BinnedHistogram, _check_time, _histogram

# ((6 sqrt 2 - 3)/7)^{2/5}; the ratio between the fixed-point map and the
# final-stage bandwidth formula.
XI = ((6.0 * math.sqrt(2.0) - 3.0) / 7.0) ** 0.4

_MIN_N = 30
_L = 5  # the stage chain's depth l

# The smallest fixed point is sought on the paper's unit-scale bracket
# [0, 0.1], scanned on a log ladder whose neighbours differ by 1.9x (a 10x
# ladder can hold three roots in one step), then refined to a relative
# bracket width of _RTOL.  The scan starts at the largest ladder point not
# above one grid step squared (the floor; 3.7e-9 for 2^14 nodes): a root
# below it cannot be resolved on the grid.  Starting there leaves every
# bracket above the floor as it is on the full ladder.  When every root
# lies below the floor, the sample is binned again with twice the nodes
# per axis, up to _MAX_NODES nodes in all.
_LADDER = np.geomspace(1e-12, 0.1, 41)
_RTOL = 1e-13
_MAX_REFINE = 100
_MAX_NODES = 2 ** 20


@dataclass
class BandwidthReport:
    """Outcome of a bandwidth selection.

    ``iterations`` counts evaluations of the fixed-point map gamma (0 for
    the reference-seeded selectors, which evaluate it once and solve
    nothing).
    """

    t_star: float
    t2_star: float
    iterations: int
    functional_norms: dict = field(default_factory=dict)
    converged: bool = False
    method: str = "isj"
    low_sample: bool = False


def _double_factorial_odd(j: int) -> float:
    """1*3*5*...*(2j-1)."""
    return float(math.prod(range(1, 2 * j, 2)))


def gaussian_reference_norm(j: int, sigma: float) -> float:
    """||f^(j)||^2 for a normal density with standard deviation sigma."""
    return _double_factorial_odd(j) / (2 ** (j + 1) * np.sqrt(np.pi) * sigma ** (2 * j + 1))


def functional_norm(binned: BinnedHistogram, j: int, t_j: float) -> float:
    """Estimate ||f^(j)||^2 of the unit-interval density at pilot time t_j.

    Spectral form of the smoothed-functional double sum: with node cosine
    moments c_k of the binned weights,

        ||f^(j)||^2 ~= 2 sum_{k>=1} c_k^2 (pi k)^{2j} exp(-(pi k)^2 t_j).

    The moments are those ``binned`` holds, computed on its first use.
    """
    _check_time(t_j, "t_j", positive=True)
    if j < 1:
        raise ValueError("j must be >= 1")
    return binned.norm(j, t_j)


def stage_t(j: int, norm_next: float, N: int) -> float:
    """Stage-optimal pilot time for estimating ||f^(j)||^2.

    *t_j = [ (1 + 2^{-j-1/2})/3 * (2j-1)!! / (N sqrt(pi/2) ||f^(j+1)||^2)
           ]^{2/(3+2j)}
    """
    if not (norm_next > 0 and N >= 2):
        raise ValueError("need norm_next > 0 and N >= 2")
    num = (1.0 + 2.0 ** (-j - 0.5)) / 3.0 * _double_factorial_odd(j)
    return (num / (N * math.sqrt(math.pi / 2.0) * norm_next)) ** (2.0 / (3 + 2 * j))


def gamma_chain(t: float, l: int, binned: BinnedHistogram, N: int):
    """gamma^[l](t): run t down the stage ladder from j = l to j = 1.

    Interprets t as the pilot time for ||f^(l+1)||^2 and returns the
    stage-1 output *t_1, the intermediate stage times {j: *t_j} and the
    functional estimates {j+1: ||f^(j+1)||^2} gathered along the way.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    _check_time(t, positive=True)
    times = {}
    norms = {}
    for j in range(l, 0, -1):
        norm = functional_norm(binned, j + 1, t)
        if not (math.isfinite(norm) and norm > 0):
            raise ArithmeticError(f"stage j={j}: nonpositive functional estimate")
        t = stage_t(j, norm, N)
        if not (math.isfinite(t) and t > 0):
            raise ArithmeticError(f"stage j={j}: nonpositive stage time")
        norms[j + 1] = norm
        times[j] = t
    return t, times, norms


class _BelowGridStep(ArithmeticError):
    """t - f(t) stays positive from the floor up: every root lies below one
    grid step of the n-node grid.  ``calls`` counts the evaluations of f."""

    def __init__(self, n: int, calls: int):
        super().__init__("selector failed: no fixed point found above one grid step of the "
                         f"n={n} grid: the bandwidth is below one grid step")
        self.calls = calls


def _smallest_fixed_point(f, floor: float):
    """Smallest root above one grid step of h(t) = t - f(t) on the
    unit-scale bracket [0, 0.1].

    ``floor`` is the squared unit-scale step 1/(n-1)^2 of an n-node grid.
    Scans the log ladder ``_LADDER`` upwards from its largest point not
    above the floor for the first sign change of h, then refines that
    bracket by Illinois regula falsi to relative width ``_RTOL``; a root so
    found below the floor is passed over and the scan goes on.  Returns the
    root and the number of evaluations of f.  Raises ArithmeticError when
    the scan ends without a root above the floor (:class:`_BelowGridStep`,
    naming n, when h ends positive, so that every root lies below one grid
    step), or when f fails (e.g. an underflowing stage) before a sign
    change.
    """
    calls = 0

    def h(t):
        nonlocal calls
        calls += 1
        v = t - f(t)
        if not math.isfinite(v):
            raise ArithmeticError("non-finite fixed-point residual")
        return v

    a = fa = None
    for b in _LADDER[max(np.searchsorted(_LADDER, floor, side="right") - 1, 0):]:
        try:
            fb = h(b)
        except ArithmeticError as err:
            raise ArithmeticError("selector failed: no fixed point found") from err
        if fb == 0.0 and b >= floor:
            return float(b), calls
        if fa is not None and (fa < 0.0) != (fb < 0.0):
            z = _refine(h, a, fa, b, fb)
            if z >= floor:
                return z, calls
        a, fa = b, fb
    if fa > 0.0:
        raise _BelowGridStep(round(floor ** -0.5) + 1, calls)
    raise ArithmeticError(f"selector failed: no fixed point found on [{floor:.3g}, 0.1]")


def _refine(h, a, fa, b, fb) -> float:
    """A root of h in the sign-change bracket [a, b], by Illinois regula
    falsi to relative width ``_RTOL``: the stale end's residual is halved
    when one end is kept twice."""
    c, side = b, 0
    for _ in range(_MAX_REFINE):
        if b - a <= _RTOL * b:
            return float(c)
        c = b - fb * (b - a) / (fb - fa)
        fc = h(c)
        if fc == 0.0:
            return float(c)
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side == 1:
                fa *= 0.5
            side = 1
    raise ArithmeticError("selector failed: fixed-point refinement stalled")


def _grid_fixed_point(gamma, binned: BinnedHistogram):
    """Smallest root above one grid step of t = gamma(t, binned), the
    number of evaluations of gamma, and the histogram it was found on.

    The floor is one step squared of the finer axis.  While every root lies
    below it, the sample is binned again on the same interval with twice
    the nodes per axis, up to ``_MAX_NODES`` nodes: a root of the sample
    rises above the floor as the grid refines, while one made by binning
    tied points keeps below it, and the last :class:`_BelowGridStep` is
    raised.
    """
    evaluations = 0
    while True:
        shape = binned.weights.shape
        try:
            z, calls = _smallest_fixed_point(lambda t: gamma(t, binned),
                                             1.0 / (max(shape) - 1) ** 2)
        except _BelowGridStep as err:
            evaluations += err.calls
            if np.prod(shape) * 2 ** len(shape) > _MAX_NODES:
                raise
            binned = binned.refined()
        else:
            return z, evaluations + calls, binned


def _select(binned: BinnedHistogram, l: int, sigma=None):
    """Shared driver for both selectors; sigma switches the mode.

    With sigma None, solve the fixed point t = XI * gamma^[l](t).  With the
    sample standard deviation sigma given, start the chain at stage l+1
    from the normal reference's closed-form ||f^(l+2)||^2 instead.  Raises
    ValueError on a sample of zero range.
    """
    x = binned.sample
    N = x.size
    if x.min() == x.max():
        raise ValueError("degenerate sample: zero range")
    R2 = binned.grid.range ** 2

    if sigma is None:
        z, evaluations, binned = _grid_fixed_point(
            lambda t, b: XI * gamma_chain(t, l, b, N)[0], binned)
        t1, times, norms = gamma_chain(z, l, binned, N)
        method = "isj"
    else:
        t = stage_t(l + 1, gaussian_reference_norm(l + 2, sigma / binned.grid.range), N)
        t1, times, norms = gamma_chain(t, l, binned, N)
        z, evaluations, method = XI * t1, 0, "sj_normal_ref"
    return BandwidthReport(t_star=z * R2, t2_star=times[2] * R2, iterations=evaluations,
                           functional_norms=norms, converged=True, method=method)


def isj_select(sample, n: int = 2 ** 14) -> BandwidthReport:
    """Fixed-point plug-in selector: solve t = xi * gamma^[5](t).

    Returns the smallest root above one grid step on the unit-scale
    bracket [0, 0.1], found by :func:`_smallest_fixed_point` from the
    cosine moments of the sample binned on ``make_grid(sample, n)``,
    computed once.  A :func:`~diffkde.grids.bin_linear` result is read as
    it is, on its own grid, and ``n`` is then unused: that is how a caller
    chooses the grid.  Where every root lies below one step, the grid is
    refined (:func:`_grid_fixed_point`).  Raises ArithmeticError
    when the bracket holds no root above one grid step even then (heavily
    tied data puts its only roots there).  Samples below 30 points fall
    back to the normal-reference selector with ``low_sample`` flagged.
    """
    binned = _histogram(sample, n)
    if binned.sample.size < _MIN_N:
        warnings.warn("sample below 30 points; using normal-reference bandwidth")
        report = sj_normal_ref_select(binned)
        report.low_sample = True
        return report
    return _select(binned, _L)


def sj_normal_ref_select(sample) -> BandwidthReport:
    """Multi-stage plug-in selector seeded by the normal reference rule.

    The top-stage functional ||f^(7)||^2 is taken from the Gaussian
    closed form at the sample standard deviation; the rest of the chain is
    identical to the fixed-point selector, on ``make_grid(sample)`` or a
    :func:`~diffkde.grids.bin_linear` result's own grid, as in
    :func:`isj_select`.
    """
    binned = _histogram(sample)
    return _select(binned, _L, sigma=float(np.std(binned.sample)))
