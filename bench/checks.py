"""Output checks that decide whether an operation failed.

Every check returns ``None`` when the output is acceptable and otherwise a
one-line reason, which the runner tallies.  An operation also fails when it
raises or when a CLI call exits nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oracles import trapezoid_1d, trapezoid_2d

# Every estimate is judged on its own grid.  Heat-flow estimates (spectral,
# adaptive diffusion, masked) conserve mass on their grid; clipping the
# slight negative ringing of a barely resolved bandwidth adds up to ~5e-7
# (log_normal at N=1e6 on its 2^14-node case grid).
# Kernel sums evaluated on a grid (Abramson, sinc, Hall-Park) lose the
# kernel tails past the grid, which is padded by 10% of the data range;
# the sinc kernel's tails decay only like 1/x, so at a wide bandwidth the
# loss reaches a few percent.
MASS_TOL_HEAT = 1e-4
MASS_TOL_KERNEL_SUM = 0.05


@dataclass
class Outcome:
    reason: str | None = None      # why the operation failed, None if it passed
    ise: float | None = None       # against the true density
    oracle: float | None = None    # max relative deviation from the direct sum


def check_density_1d(nodes, values, nonnegative: bool = True, tol: float = MASS_TOL_HEAT):
    return _check_values(values, trapezoid_1d(values, nodes), nonnegative, tol, None)


def check_density_2d(nodes1, nodes2, values, outside=None):
    return _check_values(values, trapezoid_2d(values, nodes1, nodes2), True, MASS_TOL_HEAT,
                         outside)


def _check_values(values, mass, nonnegative, tol, outside):
    values = np.asarray(values, dtype=float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        return "non-finite or empty values"
    if nonnegative and values.min() < 0.0:
        return f"negative value {values.min():.3g}"
    if not abs(mass - 1.0) <= tol:
        return f"mass {mass:.8f} outside 1 +- {tol:g}"
    if outside is not None and np.any(values[outside] != 0.0):
        return "nonzero value outside the mask"
    return None


def check_bandwidth(doc: dict, selector: str):
    """The report must come from the requested selector and carry a valid t."""
    wanted = "fixed" if selector.startswith("fixed:") else selector
    if doc.get("method") != wanted:
        return f"selector {selector}: report method {doc.get('method')!r}"
    t = doc.get("t_star")
    if not (isinstance(t, float) and np.isfinite(t) and t > 0.0):
        return f"invalid t_star {t!r}"
    if wanted == "fixed" and t != float(selector.split(":", 1)[1]):
        return f"fixed t_star {t!r} differs from {selector}"
    return None


def check_draws(draws, count: int, lo: float, hi: float):
    draws = np.asarray(draws, dtype=float)
    if draws.size != count:
        return f"{draws.size} draws, expected {count}"
    if not np.all(np.isfinite(draws)):
        return "non-finite draws"
    if draws.min() < lo or draws.max() > hi:
        return f"draws outside [{lo:.4g}, {hi:.4g}]"
    return None
