"""An exact check of an answer against the problem's optimality conditions.

kkt_gap reads a scenario and an answer, each user's final application
rates, and returns how far the answer is from the KKT conditions of the
allocation problem (Boyd & Vandenberghe, *Convex Optimization*, 2004,
§5.5.3; Kelly, Maulloo & Tan, 1998), in ln price. It solves nothing, and
it reads from the package only the statement of the problem
(utility.regime_table): every derivative is the closed form of (ln U)'
in mpmath, whatever demand produced the answer.

Each row of the regime table has its variable x = final rate - offset,
its limit L and its factor f = beta * weight; tol = rel * budget. The row
allows the ln prices [lo, hi]: lo = ln(f (ln U)'(min(L, x + tol) +
offset)), or -inf where x >= L - tol, and hi = ln(f (ln U)'(max(0, x -
tol) + offset)), or +inf where x <= tol ((ln U)' decreases, as ln U is
concave). The users below their cap share one price, so all their rows'
intervals must meet; a capped user's rows must meet too, at a price at
or above the shared one, so its hi must reach the shared lo. A zero-weight
row must be 0. The gap is the largest violation in ln p, 0 for an answer
that passes. An answer that is not feasible within tol (a rate below 0 or
above its limit, a user above its cap, a total off the budget, a rate for
a user the regime leaves out) has gap inf.

The working precision, 40 digits plus log10 of the widest ratio among the
variables, tol, the offsets and the sigmoid inflections, keeps x +- tol,
the rate arguments and their products with a and k exact.
"""

from __future__ import annotations

import math

import mpmath

from nura.utility import LogarithmicUtility, regime_table


def _dlog(utility, rate):
    """(ln U)'(rate) in mpmath, rate > 0; the sigmoid's denominator is a sum
    of two positive terms."""
    if isinstance(utility, LogarithmicUtility):
        k = mpmath.mpf(utility.k)
        return k / ((1 + k * rate) * mpmath.log1p(k * rate))
    a, b = mpmath.mpf(utility.a), mpmath.mpf(utility.b)
    e_ab = mpmath.exp(-a * b)
    return a * (1 + e_ab) / (e_ab * mpmath.expm1(a * rate) - mpmath.expm1(-a * rate))


def _digits(values) -> int:
    sizes = [abs(value) for value in values if value != 0.0]
    return 40 + math.ceil(math.log10(max(sizes)) - math.log10(min(sizes)))


def kkt_gap(config, app_rates, rel: float = 1e-9) -> float:
    """The answer's largest violation of the optimality conditions in ln p."""
    table = regime_table(config.users, config.capacity)
    taking_part = {user.user_id for user in table.participants}
    if any(rate != 0.0 for user in config.users if user.user_id not in taking_part
           for rate in app_rates[user.user_id]):
        return math.inf
    finals = [rate for user in table.participants for rate in app_rates[user.user_id]]
    tol = rel * table.budget
    scales = [tol] + [final - row.offset for row, final in zip(table.rows, finals)]
    scales += [row.offset for row in table.rows]
    scales += [row.app.utility.b for row in table.rows if hasattr(row.app.utility, "b")]
    with mpmath.workdps(_digits(scales)):
        tol_ = mpmath.mpf(tol)
        users: list[list] = [[] for _ in table.participants]
        totals = [mpmath.mpf(0)] * len(table.participants)
        for row, limit, final in zip(table.rows, table.limits, finals):
            offset = mpmath.mpf(row.offset)
            x = mpmath.mpf(final) - offset
            totals[row.user_slot] += x
            if x < -tol_ or x > limit + tol_:
                return math.inf
            if row.factor == 0.0:
                if x > tol_:
                    return math.inf
                continue
            f = mpmath.mpf(row.factor)
            lo = -mpmath.inf if x >= limit - tol_ else mpmath.log(
                f * _dlog(row.app.utility, min(mpmath.mpf(limit), x + tol_) + offset))
            hi = mpmath.inf if x <= tol_ else mpmath.log(
                f * _dlog(row.app.utility, x - tol_ + offset))
            users[row.user_slot].append((lo, hi))
        if abs(mpmath.fsum(totals) - table.budget) > tol_:
            return math.inf
        gap, shared, capped = mpmath.mpf(0), [], []
        for cap, rows, total in zip(table.user_caps, users, totals):
            if total > cap + tol_:
                return math.inf
            if total >= cap - tol_:
                capped.append(rows)
            else:
                shared += rows
        for rows in [shared] + capped:
            if rows:
                gap = max(gap, max(lo for lo, _ in rows) - min(hi for _, hi in rows))
        shared_lo = max((lo for lo, _ in shared), default=-mpmath.inf)
        for rows in capped:
            if rows:
                gap = max(gap, shared_lo - min(hi for _, hi in rows))
        return float(gap)
