"""Distance sweeps, secure-distance and crossover finding, CSV emission.

Raw rates may be negative; `RateCurve.rates` clamps them at zero for
plotting and CSV output. Distance searches walk a coarse grid only as far
as it takes to bracket their answer, then bisect to 0.01 km: the crossover
walks forward from 0 to the first crossing, the maximum distance backward
from the search limit to the last positive grid point.
"""

from __future__ import annotations

import io
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, TextIO

from .core import LENGTH_FORMAT, RATE_FORMAT, ConfigError, DomainError, bisect_sign_change
from .scenario import Scenario, evaluate

#: Half-width of the bracket accepted by the distance bisections, km.
DISTANCE_TOL = 0.01

#: Most steps a length grid may span; a finer grid is refused unallocated.
MAX_GRID_POINTS = 1_000_000

CURVE_ROLES = ("dual", "fast", "slow")
CSV_HEADER = ("length_km", *(f"rate_{role}_bps" for role in CURVE_ROLES))


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


def _curve(scenario: Scenario, lengths: tuple[float, ...]) -> RateCurve:
    return RateCurve(lengths, tuple([evaluate(scenario, length) for length in lengths]))


def sweep(scenario: Scenario, l_min: float, l_max: float, step: float) -> RateCurve:
    """Evaluate the scenario on the inclusive grid."""
    return _curve(scenario, tuple(length_grid(l_min, l_max, step)))


def _search_grid(l_max_search: float, coarse_step: float) -> list[float]:
    """The coarse grid from 0 that the searches walk, ending at l_max_search:
    the limit closes the grid when it is not a whole number of steps, and
    replaces a last grid point within length_grid's rounding of it."""
    grid = length_grid(0.0, l_max_search, coarse_step)
    if l_max_search - grid[-1] > 1e-9 * coarse_step:
        grid.append(l_max_search)
    grid[-1] = l_max_search
    return grid


def max_secure_distance(
    scenario: Scenario, l_max_search: float, coarse_step: float = 1.0
) -> float | None:
    """Largest length in [0, l_max_search] with a positive raw rate.

    Walks the coarse grid backward from l_max_search to the last positive
    grid point: l_max_search if that is the last point, otherwise the zero
    crossing in the next cell, to 0.01 km. None if no grid point is positive.
    """
    grid = _search_grid(l_max_search, coarse_step)
    last = next((i for i in reversed(range(len(grid))) if evaluate(scenario, grid[i]) > 0.0), None)
    if last is None:
        return None
    if last == len(grid) - 1:
        return l_max_search
    return bisect_sign_change(
        lambda length: evaluate(scenario, length), grid[last], grid[last + 1], tol=DISTANCE_TOL / 5
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

    row = ",".join([LENGTH_FORMAT, *(RATE_FORMAT if role in curves else "" for role in CURVE_ROLES)]) + "\n"
    columns = [curves[role].rates for role in CURVE_ROLES if role in curves]
    out.write(",".join(CSV_HEADER) + "\n" + "".join([row % cells for cells in zip(lengths, *columns)]))


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
    return {role: _curve(preset.scenarios[role], lengths) for role in CURVE_ROLES}
