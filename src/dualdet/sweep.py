"""Distance sweeps, secure-distance and crossover finding, CSV emission.

Raw rates may be negative; `RateCurve.rates` clamps them at zero for
plotting and CSV output. Distance searches evaluate a coarse grid, whose
points are computed on demand, only as far as it takes to bracket their
answer, then bisect to 0.01 km: the crossover walks forward from 0 to the
first crossing, skipping each block of grid points where the rates'
monotonicity, for positive and for non-positive rates, proves the sign of
the difference. The maximum distance finds the last positive grid point by
halving the grid's index range when the scenario's rate provably changes
sign at most once and every rate it reads is clear of its rounding error,
and otherwise walks backward from the search limit; both find the same point.
"""

from __future__ import annotations

import io
import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping, TextIO

from .core import (
    LENGTH_FORMAT, RATE_FORMAT, ConfigError, DomainError, bisect_sign_change, channel_transmittance, check_number,
)
from .scenario import Scenario, _proof_length, _raw_rates, _twins, evaluate

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


def _grid_steps(l_min: float, l_max: float, step: float) -> int:
    """The number n of whole steps from l_min toward l_max: the grid's points
    are l_min + i*step for i in 0..n. GridError for bounds or a step that
    describe no grid, or for more than MAX_GRID_POINTS steps."""
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
    return int(steps + 1e-9)


def length_grid(l_min: float, l_max: float, step: float) -> list[float]:
    """Inclusive grid l_min, l_min+step, ... up to l_max."""
    n = _grid_steps(l_min, l_max, step)
    grid = [l_min + i * step for i in range(n + 1)]
    if not all(map(operator.lt, grid, grid[1:])):
        raise GridError(f"step {step} is too small to separate grid points in [{l_min}, {l_max}]")
    return grid


def sweep(scenario: Scenario, l_min: float, l_max: float, step: float) -> RateCurve:
    """Evaluate the scenario on the inclusive grid."""
    lengths = tuple(length_grid(l_min, l_max, step))
    return RateCurve(lengths, _raw_rates((scenario,), lengths)[0])


class _SearchGrid(Sequence):
    """The coarse grid from 0 that the searches walk, its points computed on
    demand: point i is i*step, as in length_grid(0, l_max, step), and the
    last point is l_max."""

    __slots__ = ("step", "last", "l_max")

    def __init__(self, step: float, last: int, l_max: float) -> None:
        self.step, self.last, self.l_max = step, last, l_max

    def __len__(self) -> int:
        return self.last + 1

    def __getitem__(self, i: int) -> float:
        if i < 0:
            i += self.last + 1
        if 0 <= i < self.last:
            return i * self.step
        if i == self.last:
            return self.l_max
        raise IndexError("search grid index out of range")


def _search_grid(l_max_search: float, coarse_step: float) -> _SearchGrid:
    """The coarse grid from 0 that the searches walk, ending at l_max_search:
    the limit closes the grid when it is not a whole number of steps, and
    replaces a last grid point within length_grid's rounding of it. The
    grid has at least the two points 0 and l_max_search.

    Its points are length_grid(0, l_max_search, coarse_step)'s, and they are
    strictly increasing without being checked one by one: with s the step
    and 0 <= i < j <= n <= MAX_GRID_POINTS < 2**52, j*s - i*s >= s exceeds
    ulp(j*s) <= 2**-52*j*s where j*s is a normal float, and a subnormal
    product is exact; so the rounded products differ, as rounding keeps order.
    """
    n = _grid_steps(0.0, l_max_search, coarse_step)
    closed = n == 0 or l_max_search - n * coarse_step > 1e-9 * coarse_step
    return _SearchGrid(coarse_step, n + 1 if closed else n, l_max_search)


def max_secure_distance(
    scenario: Scenario, l_max_search: float, coarse_step: float = 1.0
) -> float | None:
    """Largest length in [0, l_max_search] with a positive raw rate.

    Finds the last positive point of the coarse grid, evaluating
    l_max_search first: l_max_search if that is the last point, otherwise
    the zero crossing in the next cell, to 0.01 km. None if no grid point is
    positive. Where _halve proves the point, it is found by halving the
    grid's index range; otherwise the grid is walked backward. Both find the
    same point, and so bisect the same cell to the same float.
    """
    grid = _search_grid(l_max_search, coarse_step)
    last = len(grid) - 1
    if evaluate(scenario, grid[last]) > 0.0:
        return l_max_search
    lo = _halve(scenario, grid)
    if lo is None:
        lo = next((i for i in reversed(range(last)) if evaluate(scenario, grid[i]) > 0.0), -1)
    if lo < 0:
        return None
    return bisect_sign_change(
        lambda length: evaluate(scenario, length), grid[lo], grid[lo + 1], tol=DISTANCE_TOL / 5
    )


def _halve(scenario: Scenario, grid: Sequence[float]) -> int | None:
    """The last grid point before grid[-1] with a positive rate, or -1 if
    there is none, found by evaluating 0 and then halving the grid's index
    range; the rate at grid[-1] is not positive.

    The scenario's rate in real numbers turns from positive to non-positive
    at most once as the length grows (it has an error scale, the last column
    of `scenario._PROTOCOLS`; the monotone rule in the kernel docstrings).
    A computed rate whose size exceeds 2**-40*scale + 2**-1000, more than
    its rounding error, has the real rate's sign there (_block_proof). None
    when that proves nothing: the scenario has no error scale, or a rate
    evaluated is within that margin of 0 or past _proof_length, where a
    rounding may flip its sign, as where 1 - f_ec*H2(e_k) - H2(e_b) rounds
    to 0 while the real rate is positive.
    """
    scale = scenario._error_scale
    if scale is None:
        return None
    margin, limit = _MARGIN * scale + _LEAST_MARGIN, _proof_length(scenario)
    lo, hi, probe = -1, len(grid) - 1, 0  # the rate is positive at grid[lo] (if lo >= 0), not at grid[hi]
    while hi - lo > 1:
        length = grid[probe]
        rate = evaluate(scenario, length)
        if not (abs(rate) > margin and length <= limit):
            return None
        if rate > 0.0:
            lo = probe
        else:
            hi = probe
        probe = (lo + hi) // 2
    return lo


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
    None when no such sign change occurs in [0, l_max_search]. When every
    scenario has an error scale, the blocks of grid points on which
    _block_proof proves the sign of the difference are skipped (_gallop),
    and the bisection does not evaluate a member proved below rate_a on its
    cell: that leaves the sign of the difference at every length in the
    cell. So the first bracketing cell, its bisection and the answer are
    the walk's, and only a point the walk reaches may raise.
    """
    if not scenario_b:
        raise DomainError("scenario_b must contain at least one scenario")
    diff = _difference(scenario_a, scenario_b)
    grid = _search_grid(l_max_search, coarse_step)
    proof = _block_proof((scenario_a, *scenario_b), grid)
    found = _walk(diff, grid) if proof is None else _gallop((scenario_a, *scenario_b), grid, *proof)
    if found is None:
        return None
    i, end, *ends = found
    if end == 0.0 and i + 2 < len(grid) and diff(grid[i + 2]) > 0.0:
        # Tangency within the cell: no strict crossing to bisect.
        warnings.warn(
            f"curves touch near {grid[i + 1]:.2f} km without crossing; "
            "reporting the bracketing cell midpoint",
            stacklevel=2,
        )
        return 0.5 * (grid[i] + grid[i + 1])
    if ends:  # the rates at both ends of the cell, from _gallop
        below = proof[0](i, ends[0], i + 1, ends[1])
        diff = _difference(scenario_a, [s for s, proved in zip(scenario_b, below) if not proved])
    return bisect_sign_change(diff, grid[i], grid[i + 1], tol=DISTANCE_TOL / 5)


def _difference(scenario_a: Scenario, scenario_b: Sequence[Scenario]):
    """rate_a minus the best of the scenario_b rates, as a function of length."""
    first, rest = scenario_b[0], scenario_b[1:]

    def diff(length: float) -> float:
        rate_a = evaluate(scenario_a, length)
        best = evaluate(first, length)
        for s in rest:  # as max() does: a later member wins only when strictly greater
            rate = evaluate(s, length)
            if rate > best:
                best = rate
        return rate_a - best

    return diff


def _walk(diff, grid: Sequence[float]) -> tuple[int, float] | None:
    """The first cell i where diff turns from positive to non-positive,
    walking the grid forward, and diff at its end; None if there is none."""
    here = diff(grid[0])
    for i in range(len(grid) - 1):
        prev, here = here, diff(grid[i + 1])
        if prev > 0.0 and here <= 0.0:
            return i, here
    return None


def _gallop(scenarios, grid: Sequence[float], below, above) -> tuple | None:
    """_walk's answer for the difference of the scenarios' rates, with the
    rates at both ends of the cell, skipping each block on which every
    member is proved below the first rate or one is proved above it.

    A block doubles after each skip and halves after each failed proof,
    down to one cell, which is walked; after a block of at most 4 cells
    fails, no block reaches its end before the walk does (the crossing is
    likely inside). A point is evaluated once, in _walk's order, and a block
    end that raises proves nothing: the walk may never reach it. The proofs
    hold for rates of either sign, so blocks are skipped to the grid's end
    where every rate is non-positive too."""
    seen = {}

    def at(i: int) -> tuple[list[float], float]:
        point = seen.get(i)
        if point is None:
            length = grid[i]
            rates = [evaluate(s, length) for s in scenarios]
            point = seen[i] = rates, rates[0] - max(rates[1:])  # max() picks as diff does
        return point

    i, (here, gap), step, last = 0, at(0), 2, len(grid) - 1
    bound = len(grid)  # the end of the last short block that failed
    while i < last:
        if bound <= i:
            bound = len(grid)
        while step > 1 and (i + step > last or i + step >= bound):
            step //= 2
        j = i + step
        if step > 1:
            try:
                there, there_gap = at(j)
                skipped = all(below(i, here, j, there)) or above(i, here, j, there)
            except (ArithmeticError, ValueError):  # DomainError is a ValueError
                skipped = False
            if skipped:
                i, here, gap = j, there, there_gap
            elif step <= 4:
                bound = j
            step = 2 * step if skipped else step // 2
            continue
        there, there_gap = at(j)
        if gap > 0.0 and there_gap <= 0.0:
            return i, there_gap, here, there
        i, here, gap, step = j, there, there_gap, 2
    return None


#: Multiple of a pair's summed error scales by which a block proof's inequalities must
#: hold, and the least margin, for the roundings that underflow (_block_proof).
_MARGIN = 2.0 ** -40
_LEAST_MARGIN = 2.0 ** -1000


def _block_proof(scenarios, grid: Sequence[float]):
    """Tests below(i, here, j, there), which gives for each member whether
    its rate is proved below the first one at every length in
    [grid[i], grid[j]], and above(i, here, j, there), which is true when a
    member's rate is proved above it there, from the rates at both ends
    (here, there); None when some scenario has no error scale.

    The monotone rule (kernel docstrings): each rate is positive on a prefix
    of lengths and does not rise there, and where it is non-positive, rate/t
    does not rise with length. Let r_X = t(L_j)/t(L_i) in (0, 1] be the fall
    of scenario X's t across the block, 10**(-alpha*(L_j - L_i)/10) whatever
    its factor, and x_i, x_j its rates at the ends. On the block, X's rate is
    - at most x_i if x_i > 0, and at most x_i*r_X if not: then the rate
      stays non-positive, and at L >= L_i it is at most
      x_i*t(L)/t(L_i) <= x_i*r_X;
    - at least x_j if x_j > 0, and at least x_j/r_X if not: a rate that is
      non-positive at L <= L_j is non-positive on [L, L_j], so at least
      x_j*t(L)/t(L_j) >= x_j/r_X.
    So X is above Y on the block when x_j > V, with V = y_i if y_i > 0 and
    V = r_X*r_Y*y_i if not: for x_j <= 0 that is x_j/r_X > r_Y*y_i multiplied
    through by r_X, and for x_j > 0 it holds as r_Y*y_i <= 0. below tests
    X = a against each member Y, above each member X against Y = a. A member
    m that is scenario a's twin (scenario._twins) has D = rate_a - rate_m >=
    D(L_j)*t(L_j)/t(L_i) on the block (the twin rule), so
    D(L_j)*t(L_j)/t(L_i) > 0 proves rate_a > rate_m. The proofs hold only up
    to each scenario's _proof_length.

    Each computed rate is within E < 2,400u*scale of the rate in real
    numbers, u = 2**-53 (the kernels' _error_scale docstrings), plus 2**-1074
    per rounding that underflows. Every inequality must hold by a margin m of
    2**-40 = 8,192u times the pair's summed scales, plus 2**-1000: more than
    2*E_X + 2*E_Y and the test's own roundings, so its conclusion holds in
    real numbers by more than E_X + E_Y at each length of the block, and so
    for the computed values. For the monotone rule, with x and y the
    computed rates: Y's rate is at most U + E_Y, where U = y if y > 0 and
    U = r_Y*y if not (U has slope 1 or r_Y <= 1 in y). X's rate is at least
    x - E_X where x > E_X (the real x_j is then positive), and at least
    (x - E_X)/r_X where x <= E_X. The test is x > V + m, V = U if U > 0 and
    r_X*U if not. If x > E_X, then x > U + m, as r_X*U >= U where U <= 0,
    so X - Y > x - E_X - U - E_Y > E_X + E_Y. If not, then
    x - r_X*U > m >= E_X*(1 + r_X) + 2*r_X*E_Y, which is X - Y > E_X + E_Y
    multiplied by r_X. The computed r is off by at most 2.2u in absolute
    terms, plus 2**-1074: the exponent's three roundings (L_j - L_i, times
    alpha, over 10) scale it by exp(3u*ln(1/r)), r*ln(1/r) <= 1/e, and the
    power adds u. So V moves by under 7u times Y's scale.
    """
    scales = [getattr(s, "_error_scale", None) for s in scenarios]
    if None in scales:
        return None
    a = scenarios[0]
    limit = min(map(_proof_length, scenarios))
    alphas = [s.link.alpha for s in scenarios]
    members = [(k, _MARGIN * (scales[0] + scales[k]) + _LEAST_MARGIN, _twins(a, m))
               for k, m in enumerate(scenarios[1:], 1)]
    ratios = {}

    def ratio(i: int, j: int, k: int) -> float:
        """Scenario k's r on [grid[i], grid[j]], one power per attenuation and block."""
        key = (i, j, alphas[k])
        r = ratios.get(key)
        if r is None:
            r = ratios[key] = channel_transmittance(alphas[k], grid[j] - grid[i])
        return r

    def below(i: int, here: list[float], j: int, there: list[float]) -> list[bool]:
        if grid[j] > limit:
            return [False] * len(members)
        rate_a, proved = there[0], []
        for k, margin, twin in members:
            bound = here[k] if here[k] > 0.0 else here[k] * ratio(i, j, k) * ratio(i, j, 0)
            lower = rate_a > bound + margin
            if not lower and twin:
                lower = (rate_a - there[k]) * ratio(i, j, 0) > margin
            proved.append(lower)
        return proved

    def above(i: int, here: list[float], j: int, there: list[float]) -> bool:
        if grid[j] > limit:
            return False
        rate_a = here[0]
        return any(there[k] > (rate_a if rate_a > 0.0 else rate_a * ratio(i, j, 0) * ratio(i, j, k)) + margin
                   for k, margin, _ in members)

    return below, above


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
