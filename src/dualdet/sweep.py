"""Distance sweeps, secure-distance and crossover finding, CSV emission.

Raw rates may be negative; `RateCurve.rates` clamps them at zero for
plotting and CSV output. Distance searches evaluate a coarse grid only as
far as it takes to bracket their answer, then bisect to 0.01 km: the
crossover walks forward from 0 to the first crossing. The maximum distance
finds the last positive grid point by halving the grid's index range when
the scenario's rate provably changes sign at most once, and otherwise walks
backward from the search limit; both find the same point.
"""

from __future__ import annotations

import io
import math
import operator
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence, TextIO

from .core import LENGTH_FORMAT, RATE_FORMAT, ConfigError, DomainError, bisect_sign_change, check_number
from .scenario import Scenario, _raw_rates, evaluate

#: Half-width of the bracket accepted by the distance bisections, km.
DISTANCE_TOL = 0.01

#: Most steps a length grid may span; a finer grid is refused unallocated.
MAX_GRID_POINTS = 1_000_000

CURVE_ROLES = ("dual", "fast", "slow")
CSV_HEADER = ("length_km", *(f"rate_{role}_bps" for role in CURVE_ROLES))
_ZERO_RATE = RATE_FORMAT % 0.0


class GridError(ConfigError, DomainError):
    """Bounds or a step that describe no length grid: a bad request, so the
    CLI exits 2 as for any configuration error."""


@dataclass(frozen=True)
class RateCurve:
    """Raw key rates in bits/s on a finite, strictly increasing length grid in km."""

    lengths: tuple[float, ...]
    raw: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.raw) != len(self.lengths):
            raise DomainError("curve needs one rate per length")
        lengths = self.lengths
        # Finite ends and strictly increasing pairs leave no NaN or inf inside.
        if lengths and not (math.isfinite(lengths[0]) and math.isfinite(lengths[-1])):
            raise DomainError("curve lengths must be finite")
        if not all(map(operator.lt, lengths, lengths[1:])):
            raise DomainError("curve lengths must be strictly increasing")

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple([r if r > 0.0 else 0.0 for r in self.raw])


def length_grid(l_min: float, l_max: float, step: float) -> list[float]:
    """Inclusive grid l_min, l_min+step, ... up to l_max."""
    try:
        for name, value in (("l_min", l_min), ("l_max", l_max), ("step", step)):
            check_number(name, value)
    except DomainError as exc:
        raise GridError(str(exc)) from None
    if l_min < 0.0 or not l_min < l_max:
        raise GridError(f"need 0 <= l_min < l_max, got [{l_min}, {l_max}]")
    if not step > 0.0:
        raise GridError(f"step must be > 0, got {step}")
    steps = (l_max - l_min) / step
    if not steps <= MAX_GRID_POINTS:
        raise GridError(f"step {step} gives more than {MAX_GRID_POINTS} grid points")
    n = int(steps + 1e-9)
    grid = [l_min + i * step for i in range(n + 1)]
    if not all(map(operator.lt, grid, grid[1:])):
        raise GridError(f"step {step} is too small to separate grid points in [{l_min}, {l_max}]")
    return grid


def sweep(scenario: Scenario, l_min: float, l_max: float, step: float) -> RateCurve:
    """Evaluate the scenario on the inclusive grid."""
    lengths = tuple(length_grid(l_min, l_max, step))
    return RateCurve(lengths, _raw_rates((scenario,), lengths)[0])


def _search_grid(l_max_search: float, coarse_step: float) -> list[float]:
    """The coarse grid from 0 that the searches walk, ending at l_max_search:
    the limit closes the grid when it is not a whole number of steps, and
    replaces a last grid point within length_grid's rounding of it. The
    grid has at least the two points 0 and l_max_search."""
    grid = length_grid(0.0, l_max_search, coarse_step)
    if len(grid) == 1 or l_max_search - grid[-1] > 1e-9 * coarse_step:
        grid.append(l_max_search)
    grid[-1] = l_max_search
    return grid


def max_secure_distance(
    scenario: Scenario, l_max_search: float, coarse_step: float = 1.0
) -> float | None:
    """Largest length in [0, l_max_search] with a positive raw rate.

    Finds the last positive point of the coarse grid, evaluating
    l_max_search first: l_max_search if that is the last point, otherwise
    the zero crossing in the next cell, to 0.01 km. None if no grid point is
    positive. When the scenario's rate provably turns from positive to
    non-positive at most once as the length grows (the last column of
    `scenario._PROTOCOLS`), the point is found by evaluating 0 and then
    halving the grid's index range; otherwise the grid is walked backward.
    Both find the same point, and so bisect the same cell to the same float.
    """
    grid = _search_grid(l_max_search, coarse_step)
    if evaluate(scenario, grid[-1]) > 0.0:
        return l_max_search
    if scenario._one_sign_change:
        if not evaluate(scenario, grid[0]) > 0.0:
            return None
        lo, hi = 0, len(grid) - 1
        while hi - lo > 1:  # the rate is positive at grid[lo] and not at grid[hi]
            mid = (lo + hi) // 2
            if evaluate(scenario, grid[mid]) > 0.0:
                lo = mid
            else:
                hi = mid
    else:
        lo = next((i for i in reversed(range(len(grid) - 1)) if evaluate(scenario, grid[i]) > 0.0), None)
        if lo is None:
            return None
    return bisect_sign_change(
        lambda length: evaluate(scenario, length), grid[lo], grid[lo + 1], tol=DISTANCE_TOL / 5
    )


def crossover_distance(
    scenario_a: Scenario,
    scenario_b: Sequence[Scenario],
    l_max_search: float,
    coarse_step: float = 1.0,
) -> float | None:
    """Smallest length where rate_a minus the pointwise best (envelope) of
    the scenario_b rates turns from positive to non-positive.

    Walks the coarse grid forward from 0 and stops at the first crossing,
    evaluating one point more only when the difference there is exactly 0.
    None when no such sign change occurs in [0, l_max_search].
    """
    if not scenario_b:
        raise DomainError("scenario_b must contain at least one scenario")
    first, rest = scenario_b[0], scenario_b[1:]

    def diff(length: float) -> float:
        rate_a = evaluate(scenario_a, length)
        best = evaluate(first, length)
        for s in rest:  # as max() does: a later member wins only when strictly greater
            rate = evaluate(s, length)
            if rate > best:
                best = rate
        return rate_a - best

    grid = _search_grid(l_max_search, coarse_step)
    here = diff(grid[0])
    for i in range(len(grid) - 1):
        prev, here = here, diff(grid[i + 1])
        if prev > 0.0 and here <= 0.0:
            if here == 0.0 and i + 2 < len(grid) and diff(grid[i + 2]) > 0.0:
                # Tangency within the cell: no strict crossing to bisect.
                warnings.warn(
                    f"curves touch near {grid[i + 1]:.2f} km without crossing; "
                    "reporting the bracketing cell midpoint",
                    stacklevel=2,
                )
                return 0.5 * (grid[i] + grid[i + 1])
            return bisect_sign_change(diff, grid[i], grid[i + 1], tol=DISTANCE_TOL / 5)
    return None


# ---------------------------------------------------------------------------
# CSV emission: LF line endings, lengths to 2 decimals, rates in scientific
# notation with 6 significant digits, absent columns left empty.


def write_curves_csv(curves: Mapping[str, RateCurve], out: TextIO) -> None:
    """Write clamped-rate curves keyed by role ('dual', 'fast', 'slow')."""
    unknown = set(curves) - set(CURVE_ROLES)
    if unknown:
        raise DomainError(f"unknown curve roles: {sorted(unknown)}")
    if not curves:
        raise DomainError("no curves to write")
    lengths = next(iter(curves.values())).lengths
    if any(c.lengths != lengths for c in curves.values()):
        raise DomainError("all curves must share one length grid")

    # RateCurve.rates clamps every non-positive rate to 0.0, so a false cell is a clamped zero.
    columns = [[LENGTH_FORMAT % length for length in lengths]]
    columns += [[RATE_FORMAT % r if r else _ZERO_RATE for r in curves[role].rates] if role in curves
                else repeat("") for role in CURVE_ROLES]
    out.write("\n".join([",".join(CSV_HEADER), *map(",".join, zip(*columns))]) + "\n")


def save_curves_csv(curves: Mapping[str, RateCurve], path: str | Path) -> None:
    """Write curves to path as CSV; curves that write_curves_csv refuses leave path as it was."""
    buf = io.StringIO()
    write_curves_csv(curves, buf)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def sweep_preset(preset) -> dict[str, RateCurve]:
    """Sweep the preset's three scenarios over its one grid, keyed by role."""
    lengths = tuple(length_grid(preset.l_min, preset.l_max, preset.step))
    raws = _raw_rates([preset.scenarios[role] for role in CURVE_ROLES], lengths)
    return {role: RateCurve(lengths, raw) for role, raw in zip(CURVE_ROLES, raws)}
