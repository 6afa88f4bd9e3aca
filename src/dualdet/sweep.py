"""Distance sweeps, secure-distance and crossover finding, CSV emission.

Raw rates may be negative; `RateCurve.rates` clamps them at zero for
plotting and CSV output. Distance searches evaluate a coarse grid, whose
points are computed on demand, only as far as it takes to bracket their
answer, then bisect to 0.01 km: the crossover finds the first crossing of
a forward walk from 0, testing blocks that halve down from about the whole
grid and skipping each one where the rates' normalizer rule, for positive
and for non-positive rates, proves the sign of the difference. The
maximum distance finds the last positive grid point, the one a walk
backward from the search limit finds, by splitting the grid's index range
into blocks taken from the right: it stops at the first block whose end
is positive, and skips each block that the rate's non-positive side of
the rule proves negative (a rate that is not positive stays so with
length, and rate/t does not rise there).
"""

from __future__ import annotations

import io
import math
import operator
import os
import warnings
from collections.abc import Callable, Mapping, Sequence
from itertools import repeat

from .core import (
    LENGTH_FORMAT, RATE_FORMAT, ConfigError, DomainError, Record, bisect_sign_change, channel_transmittance,
    check_number,
)
from .scenario import Scenario, _raw_rates, _twins, evaluate

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


class RateCurve(Record):
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
    """Inclusive grid l_min, l_min+step, ... up to l_max. A grid from l_min > 0 is
    checked pair by pair; one from 0 strictly increases, as _search_grid's docstring proves."""
    n = _grid_steps(l_min, l_max, step)
    grid = [l_min + i * step for i in range(n + 1)]
    if l_min and not all(map(operator.lt, grid, grid[1:])):
        raise GridError(f"step {step} is too small to separate grid points in [{l_min}, {l_max}]")
    return grid


def sweep(scenario: Scenario, l_min: float, l_max: float, step: float) -> RateCurve:
    """Evaluate the scenario on the inclusive grid."""
    lengths = tuple(length_grid(l_min, l_max, step))
    return RateCurve(lengths, _raw_rates((scenario,), lengths)[0])


def _search_grid(l_max_search: float, coarse_step: float) -> tuple[int, Callable[[int], float]]:
    """(last, point) of the coarse grid from 0 that the searches walk, its
    points computed on demand: point(i) is i*coarse_step, as in
    length_grid(0, l_max_search, coarse_step), for i < last, and
    l_max_search at last. The limit closes the grid when it is not a whole
    number of steps, and replaces a last grid point within length_grid's
    rounding of it. The grid has at least the two points 0 and l_max_search.

    Its points are length_grid(0, l_max_search, coarse_step)'s, and they are
    strictly increasing without being checked one by one, here or in
    length_grid: with s the step and 0 <= i < j <= n <= MAX_GRID_POINTS < 2**52,
    j*s - i*s >= s exceeds ulp(j*s) <= 2**-52*j*s where j*s is a normal float,
    and a subnormal product is exact; so the rounded products differ, as
    rounding keeps order.
    """
    n = _grid_steps(0.0, l_max_search, coarse_step)
    last = n + 1 if n == 0 or l_max_search - n * coarse_step > 1e-9 * coarse_step else n
    return last, lambda i: i * coarse_step if i < last else l_max_search


def max_secure_distance(
    scenario: Scenario, l_max_search: float, coarse_step: float = 1.0
) -> float | None:
    """Largest length in [0, l_max_search] with a positive raw rate.

    Finds the last coarse grid point whose computed rate is positive, the
    point a walk backward from l_max_search would find, and evaluates no
    point twice: l_max_search if that is the point, otherwise the zero
    crossing in the next cell, to 0.01 km. None if no grid point is positive.

    Blocks [i, j] of the grid's index range are taken from the right: the
    first is [0, last], and each one is split at its middle index, its left
    half waiting on a stack while the right half is taken; the point 0 waits
    under them all as a block of its own. The search stops at the first
    block whose end j has a positive rate: every point past j has been read
    non-positive or proved negative. A block is skipped where it is proved
    negative, and split otherwise, down to single cells. The proof needs
    only the rate's non-positive side of the normalizer rule (the kernel
    docstrings): a rate that is not positive stays so with length, and
    rate/t does not rise there. So where the rate x_i at point(i) is
    negative, the rate on [point(i), point(j)] is at most x_i*r, with
    r = t(point(j))/t(point(i)), and x_i*r < -margin makes every computed
    rate there negative: the margin, 2**-40 times the scenario's error
    scale plus 2**-1000, exceeds twice the rate's rounding error and the
    test's own roundings, r's included (_block_proof). The proof holds up
    to _proof_length; past it every block is split, so the points there
    are read from the right, as the backward walk reads them.
    """
    last, point = _search_grid(l_max_search, coarse_step)
    limit, alpha = scenario._proof_length, scenario.link.alpha
    clear = -(_MARGIN * scenario._error_scale + _LEAST_MARGIN)  # -margin: below it, clear of rounding
    # The block in hand is [i, j], with x and y the rates at its ends, None until read. The
    # blocks to its left wait in starts as (first index, its rate or None), each ending
    # where the one above it begins.
    starts, i, x, j, y = [(0, None)], 0, None, last, None
    while True:
        end = point(j)
        if y is None:
            y = evaluate(scenario, end)
        if y > 0.0:
            break
        while j - i > 1:  # split until [i, j] is proved negative or one cell
            if end <= limit:
                start = point(i)
                if x is None:
                    x = evaluate(scenario, start)
                # x*r < clear needs x < clear, as r <= 1: the first test spares the power.
                if x < clear and x * channel_transmittance(alpha, end - start) < clear:
                    break
            starts.append((i, x))
            i, x = (i + j) // 2, None
        if not starts:
            return None
        (i, x), j, y = starts.pop(), i, x
    if j == last:
        return l_max_search
    return bisect_sign_change(lambda length: evaluate(scenario, length), end, point(j + 1), tol=DISTANCE_TOL / 5)


def crossover_distance(
    scenario_a: Scenario,
    scenario_b: Sequence[Scenario],
    l_max_search: float,
    coarse_step: float = 1.0,
) -> float | None:
    """Smallest length where rate_a minus the pointwise best (envelope) of
    the scenario_b rates turns from positive to non-positive.

    Walks the coarse grid forward from 0 and stops at the first crossing,
    reading one point more only when the difference there is exactly 0.
    None when no such sign change occurs in [0, l_max_search]. scenario_b
    may be any iterable of scenarios, and it is read once. A grid point is
    evaluated once, and a point that raised raises again when read again.
    _gallop skips the blocks _block_proof proves, and the bisection does not
    evaluate a member proved below rate_a on its cell, which leaves the
    difference's sign there: so the answer is that of a walk over every grid
    point, and only a point that walk reaches may raise.
    """
    scenarios = (scenario_a, *scenario_b)  # read scenario_b once: it may be an iterator
    if len(scenarios) < 2:
        raise DomainError("scenario_b must contain at least one scenario")
    last, point = _search_grid(l_max_search, coarse_step)
    seen = {}

    def at(i: int) -> tuple[list[float], float]:  # the rates at point(i) and their difference
        entry = seen.get(i)
        if entry is None:
            length = point(i)
            try:
                rates = [evaluate(s, length) for s in scenarios]
            except (ArithmeticError, ValueError) as exc:  # DomainError is a ValueError
                seen[i] = exc  # a later probe reads the refusal, not the point again
                raise
            entry = seen[i] = rates, rates[0] - max(rates[1:])  # max() picks as the bisection does
        elif isinstance(entry, Exception):
            raise entry
        return entry

    below, proves = _block_proof(scenarios, point)
    i = _gallop(at, last, proves)
    if i is None:
        return None
    (here, _), (there, end) = at(i), at(i + 1)
    if end == 0.0 and i + 2 <= last and at(i + 2)[1] > 0.0:
        # Tangency within the cell: no strict crossing to bisect.
        warnings.warn(
            f"curves touch near {point(i + 1):.2f} km without crossing; "
            "reporting the bracketing cell midpoint",
            stacklevel=2,
        )
        return 0.5 * (point(i) + point(i + 1))
    first, *rest = [s for s, below_a in zip(scenarios[1:], below(i, here, i + 1, there)) if not below_a]

    def difference(length: float) -> float:
        rate_a = evaluate(scenario_a, length)
        best = evaluate(first, length)
        for s in rest:  # as max() does: a later member wins only when strictly greater
            rate = evaluate(s, length)
            if rate > best:
                best = rate
        return rate_a - best

    return bisect_sign_change(difference, point(i), point(i + 1), tol=DISTANCE_TOL / 5)


def _gallop(at, last: int, proves) -> int | None:
    """The first cell i in 0..last - 1 where the difference turns from
    positive to non-positive, walking the indices forward, or None if there
    is none. at(i) gives the rates at point i and their difference, and each
    block that proves(i, here, j, there) covers is skipped.

    The first block spans the largest power of two cells not past last, so
    the blocks halve down from about the whole grid: a proof that bounds a
    rate by its normalizer holds on long blocks, and a long block that fails
    mostly holds the crossing. A block doubles after each skip and halves
    after each failed proof, down to one cell, which is walked. After a
    block [i, j] fails, no block reaches j before the walk does if it has at
    most 4 cells (the crossing is likely inside) or if the difference is
    positive at i and not at j: skipped blocks keep its sign, so the walk's
    first crossing is in (i, j] and it reads no point past j. A block end
    that raises proves nothing, so the walk, its first bracketing cell and
    the points that raise are those of a walk over every index. The proofs
    hold for rates of either sign, so blocks are skipped to the end where
    every rate is non-positive too."""
    i, (here, gap), step = 0, at(0), max(2, 1 << (last.bit_length() - 1))
    crossed = bound = last + 1  # the end of a crossing seen, and of the last block that failed before it
    while i < last:
        if bound <= i:
            bound = crossed
        while step > 1 and (i + step > last or i + step >= bound):
            step //= 2
        j = i + step
        if step > 1:
            try:
                there, there_gap = at(j)
                skipped = proves(i, here, j, there)
            except (ArithmeticError, ValueError):  # DomainError is a ValueError
                there_gap, skipped = math.nan, False
            if skipped:
                i, here, gap = j, there, there_gap
            elif gap > 0.0 >= there_gap:
                crossed = bound = j
            elif step <= 4:
                bound = j
            step = 2 * step if skipped else step // 2
            continue
        there, there_gap = at(j)
        if gap > 0.0 and there_gap <= 0.0:
            return i
        i, here, gap, step = j, there, there_gap, 2
    return None


#: Multiple of the error scales by which a block proof's inequalities must hold, summed
#: over a pair (_block_proof) or of one scenario (max_secure_distance), and the least
#: margin, for the roundings that underflow.
_MARGIN = 2.0 ** -40
_LEAST_MARGIN = 2.0 ** -1000


def _block_proof(scenarios, point: Callable[[int], float]):
    """Tests from the rates at both ends (here, there) of [point(i), point(j)]:
    below(i, here, j, there) gives for each member whether its rate is
    proved below the first one at every length there, and the gallop's one
    test proves(i, here, j, there) is all(below(...)) or a member proved
    above it, stopping at the first member not proved below, with the
    ratios below computed once per tested block and distinct normalizer.

    The normalizer rule (the ninth column of scenario._PROTOCOLS; each proof
    is in its kernel's docstring): scenario Z's rate divided by
    N_Z = c + d*s > 0 does not rise with length in either sign, where
    s = 10**(-alpha*L/10) is its fiber transmittance, c, d >= 0, and d
    holds the receiver's factor (scenario._normalizer). Let x_j be X's rate
    at L_j and y_i Y's at L_i. On the block, X(L) >= x_j*N_X(L)/N_X(L_j),
    as L <= L_j, and Y(L) <= y_i*N_Y(L)/N_Y(L_i), as L >= L_i. Where X and Y
    share an attenuation, both bounds are affine in one s, so their
    difference is least at a block end: X is above Y on the block when
    x_j - rho_Y*y_i > 0 (at L_j) and x_j - rho_X*y_i > 0 (at L_i,
    multiplied through by rho_X), with rho_Z = N_Z(L_j)/N_Z(L_i) in (0, 1].
    Where they do not, the rule gives what holds for each rate alone, with
    r_Z = t(L_j)/t(L_i) in (0, 1], 10**(-alpha*(L_j - L_i)/10) whatever
    Z's factor: a positive rate does not rise, as N falls; a non-positive
    one stays so, and rate/s = (rate/N)*(c/s + d) does not rise there, a
    product of a factor <= 0 that does not rise and one > 0 that rises as
    s falls. So X's rate is at least x_j on the block if x_j > 0, and
    x_j/r_X if not; Y's is at most y_i if y_i > 0, and r_Y*y_i if not; and
    X is above Y when x_j - y_i > 0 and x_j - r_X*r_Y*y_i > 0 (for
    x_j <= 0, x_j/r_X > r_Y*y_i multiplied through by r_X; for x_j > 0, it
    holds as r_Y*y_i <= 0 where y_i <= 0). Each member's test is thus
    x - p*y > m and x - q*y > m, with (p, q) = (rho_a, rho_m) where it
    shares a's attenuation and (1, r_a*r_m) where not; below tests X = a
    against each member Y, proves each X against Y = a. A member m that is
    scenario a's twin (scenario._twins) has D = rate_a - rate_m >=
    D(L_j)*t(L_j)/t(L_i) on the block (the twin rule), so
    D(L_j)*t(L_j)/t(L_i) > 0 proves rate_a > rate_m. The proofs hold only up
    to each scenario's _proof_length.

    Each computed rate is within E < 2,400u*scale of the rate in real
    numbers, u = 2**-53 (the kernels' _error_scale docstrings), plus 2**-1074
    per rounding that underflows, and is at most twice its scale in size.
    Every inequality must hold by a margin m of 2**-40 = 8,192u times the
    pair's summed scales, plus 2**-1000: more than 2*E_X + 2*E_Y and the
    test's own roundings, so its conclusion holds in real numbers by more
    than E_X + E_Y at each length of the block, and so for the computed
    values. With x and y the computed rates, where X and Y share an
    attenuation: X(L) - Y(L) >= (x - E_X)*N_X(L)/N_X(L_j) - (y + E_Y)*N_Y(L)/N_Y(L_i),
    affine in s, which is at least x - rho_Y*y - E_X - E_Y at L_j and
    (x - rho_X*y - E_X - rho_X*E_Y)/rho_X at L_i, both above E_X + E_Y. Where
    they do not: Y's rate is at most U + E_Y, where U = y if y > 0 and
    U = r_Y*y if not (U has slope 1 or r_Y <= 1 in y). X's rate is at least
    x - E_X where x > E_X (the real x_j is then positive), and at least
    (x - E_X)/r_X where x <= E_X. The test is x > V + m,
    V = max(y, r_X*r_Y*y), which is U if U > 0 and r_X*U if not. If
    x > E_X, then x > U + m, as r_X*U >= U where U <= 0, so
    X - Y > x - E_X - U - E_Y > E_X + E_Y. If not, then
    x - r_X*U > m >= E_X*(1 + r_X) + 2*r_X*E_Y, which is X - Y > E_X + E_Y
    multiplied by r_X. The computed r is off by at most 2.2u in absolute
    terms, plus 2**-1074: the exponent's three roundings (L_j - L_i, times
    alpha, over 10) scale it by exp(3u*ln(1/r)), r*ln(1/r) <= 1/e, and the
    power adds u. rho is r where c = 0 (decoy, GMCS RR, BB84 with y0 = 0)
    and 1 where d = 0 (GMCS DR); otherwise (BB84's keyed gain) it is
    (c + d*s_i*r)/(c + d*s_i), one more power for s_i = s(L_i), which is off
    by a relative 1,500u (as t in bb84._error_scale), and d*s_i by 2u more.
    With w = d*s_i/(c + d*s_i), |d rho/d ln(d*s_i)| = w*(1 - w)*(1 - r) <= 1/4
    and d rho/dr = w <= 1, so with the five roundings of the quotient rho is
    off by under 400u; the gain is at least 2**-1000 on the block, so an
    underflow moves it by under 2**-70 relative. So p*y and q*y move by
    under 810u times Y's scale, with their product, well inside m.
    """
    a = scenarios[0]
    alpha, limit, scale = a.link.alpha, a._proof_length, a._error_scale
    # A member's p and q index ratios' list from the front for the rho of each distinct
    # normalizer, a's first, and from the back for the 1 at its end and the r_a*r of each
    # other attenuation before it, so that no index waits on the count of the other kind.
    norms, others, members = {a._normalizer: 0}, {}, []
    for k, m in enumerate(scenarios[1:], 1):
        limit = min(limit, m._proof_length)
        p, q = ((0, norms.setdefault(m._normalizer, len(norms))) if m.link.alpha == alpha
                else (-1, -2 - others.setdefault(m.link.alpha, len(others))))
        members.append((k, _MARGIN * (scale + m._error_scale) + _LEAST_MARGIN, _twins(a, m), p, q))
    reads_s = any([c and d for c, d in norms])  # a gain normalizer: its rho reads s(L_i)

    def ratios(start: float, end: float) -> tuple[float, list[float]]:
        # r_a, and [rho of each of norms, r_a*r of each of others from the last, 1]
        span = end - start
        r_a = channel_transmittance(alpha, span)
        s_i = channel_transmittance(alpha, start) if reads_s else 0.0
        f = [(c + d * s_i * r_a) / (c + d * s_i) if c else r_a for c, d in norms]
        if others:
            f += [r_a * channel_transmittance(other, span) for other in reversed(others)] + [1.0]
        return r_a, f

    def below(i: int, here: list[float], j: int, there: list[float]) -> list[bool]:
        if point(j) > limit:
            return [False] * len(members)
        r_a, f = ratios(point(i), point(j))
        rate_a = there[0]
        return [rate_a > here[k] * f[p] + margin and rate_a > here[k] * f[q] + margin
                or twin and (rate_a - there[k]) * r_a > margin for k, margin, twin, p, q in members]

    def proves(i: int, here: list[float], j: int, there: list[float]) -> bool:
        end = point(j)
        if end > limit:
            return False
        r_a, f = ratios(point(i), end)
        rate_a = there[0]
        for k, margin, twin, p, q in members:  # below's test, to the first member it fails
            y = here[k]
            if not (rate_a > y * f[p] + margin and rate_a > y * f[q] + margin
                    or twin and (rate_a - there[k]) * r_a > margin):
                break
        else:
            return True
        y = here[0]
        for k, margin, _, p, q in members:  # or a member proved above it
            x = there[k]
            if x > y * f[p] + margin and x > y * f[q] + margin:
                return True
        return False

    return below, proves


# ---------------------------------------------------------------------------
# CSV emission: LF line endings, lengths to 2 decimals, rates in scientific
# notation with 6 significant digits, absent columns left empty.


def write_curves_csv(curves: Mapping[str, RateCurve], out: io.TextIOBase) -> None:
    """Write clamped-rate curves keyed by role ('dual', 'fast', 'slow')."""
    unknown = set(curves) - set(CURVE_ROLES)
    if unknown:
        raise DomainError(f"unknown curve roles: {sorted(unknown)}")
    if not curves:
        raise DomainError("no curves to write")
    lengths = next(iter(curves.values())).lengths
    if any(c.lengths is not lengths and c.lengths != lengths for c in curves.values()):
        raise DomainError("all curves must share one length grid")

    # One % for the length column; a rate cell is RateCurve.rates' clamp of the raw rate, NaN and -0.0 to 0.
    columns = [("\n".join([LENGTH_FORMAT] * len(lengths)) % tuple(lengths)).split("\n")]
    columns += [[RATE_FORMAT % r if r > 0.0 else _ZERO_RATE for r in curves[role].raw] if role in curves
                else repeat("") for role in CURVE_ROLES]
    out.write("\n".join([",".join(CSV_HEADER), *map(",".join, zip(*columns))]) + "\n")


def save_curves_csv(curves: Mapping[str, RateCurve], path: str | os.PathLike) -> None:
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
