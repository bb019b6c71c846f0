"""Normalized application utility curves and their log-domain calculus.

Two shapes cover the traffic mix considered here: a sigmoidal curve for
real-time applications (steep around an inflection rate b) and a
logarithmic curve for delay-tolerant ones (diminishing returns set by k).
Both are normalized so the value at rate 0 is exactly 0 and the curve
tops out at 1, which makes weighted products across applications
meaningful.

Every solver in this package works on ln U and its rate derivative, so
the numerically delicate pieces are concentrated in this module; the
pipeline's demand (the rate where weight * (ln U)' meets a price) is
here too, as demand_curve, one closed form per shape with its per-weight
constants taken once, cached on each Application as demand_at; it reads
a price p as (p, ln p), so a caller reading many curves at one p takes
its ln once. All
branches exponentiate only non-positive (or safely bounded) arguments;
steepness-times-inflection products up to about 700 are handled without
overflow, and saturation degrades gracefully rather than raising.

The problem's statement lives here too, read by the bidding stage, the
intra-user split and the certifying solvers alike: the checks on their
input, the capacity regime's rules (regime_table; CaseFlag only names
it), the rows they give, grouped by curve (RegimeTable), each sigmoid
row's plateau, and the objective the rows are scored by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import ContractError, DomainError

NEG_INF = float("-inf")
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's splitter
_TINY = 2.2250738585072014e-308  # the smallest normal float


def add_up(values: Iterable[float]) -> float:
    """The values added left to right from 0.0, as sum() did before CPython
    3.12 (which compensates float sums), so totals keep their bits on
    every version."""
    total = 0.0
    for value in values:
        total += value
    return total


def _require_positive_finite(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class SigmoidalUtility:
    """Normalized sigmoid U(r) = (1 - e^{-ar}) / (1 + e^{-a(r-b)}).

    That is the logistic curve 1 / (1 + e^{-a(r-b)}) shifted and scaled
    so U(0) = 0 and U(r) -> 1 as r grows; the inflection sits at r = b
    and a controls the steepness.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        _require_positive_finite(self.a, "a")
        _require_positive_finite(self.b, "b")
        # Per-curve constants; not fields, so ==, hash, repr and replace see a, b only.
        object.__setattr__(self, "_e_ab", math.exp(-self.a * self.b))
        object.__setattr__(self, "_e_half_ab", math.exp(-0.5 * self.a * self.b))
        object.__setattr__(self, "_scale", self.a * (1.0 + self._e_ab))
        if self._scale == math.inf:  # (ln U)' near rate 0 and the demand need it
            raise DomainError(
                f"a * (1 + e^(-a * b)) must be finite, got inf (a={self.a!r}, b={self.b!r})"
            )

    def evaluate(self, rate: float) -> float:
        """Utility at the given rate, exactly 0 at rate 0, < 1 for finite rate.

        Algebraically U(r) = (1 - e^{-ar}) / (1 + e^{-a(r-b)}); the two
        branches below are that expression rearranged so that no
        exponential ever sees a positive argument beyond 700.
        """
        if rate < 0.0:
            raise DomainError(f"rate must be nonnegative, got {rate!r}")
        x = self.a * (rate - self.b)
        if x <= 0.0:
            ar = self.a * rate
            # e^x - e^{-ab} == e^{-ab} * expm1(ar); the expm1 form keeps
            # relative accuracy near rate 0, the direct form takes over
            # when ar alone would overflow expm1 (needs ab > 700 too).
            if ar <= 700.0:
                num = self._e_ab * math.expm1(ar)
            else:
                num = math.exp(x) - self._e_ab
            return num / (1.0 + math.exp(x))
        return -math.expm1(-self.a * rate) / (1.0 + math.exp(-x))

    def log_evaluate(self, rate: float) -> float:
        """ln of evaluate, with -inf returned at rate 0 instead of raising."""
        if rate < 0.0:
            raise DomainError(f"rate must be nonnegative, got {rate!r}")
        if rate == 0.0:
            return NEG_INF
        ab = self.a * self.b
        ar = self.a * rate
        x = self.a * (rate - self.b)
        if x <= 0.0:
            if ar <= 700.0:
                if ar < _TINY:  # a * rate is subnormal or 0: ln(e^{ar} - 1) is ln a + ln rate
                    return -ab + math.log(self.a) + math.log(rate) - math.log1p(math.exp(x))
                return -ab + math.log(math.expm1(ar)) - math.log1p(math.exp(x))
            return x + math.log1p(-math.exp(-ar)) - math.log1p(math.exp(x))
        # ln(1 - e^{-ar}) as log1mexp (Maechler, 2012): e^{-ar} may round to 1
        # here, as ar >= x > 0 may be tiny; ln 2 splits the two accurate forms.
        if ar <= 0.6931471805599453:
            return math.log(-math.expm1(-ar)) - math.log1p(math.exp(-x))
        return math.log1p(-math.exp(-ar)) - math.log1p(math.exp(-x))

    def dlog_evaluate(self, rate: float) -> float:
        """d/dr ln U(r); strictly positive and strictly decreasing.

        Closed form a(1 + e^{-ab}) / D with D = e^{a(r-b)} + 1 - e^{-ab} - e^{-ar};
        near rate 0 this behaves like 1/r, in deep saturation like
        a * e^{-a(r-b)}. D is summed as e^{-ab} expm1(ar) - expm1(-ar), two
        positive terms, so it keeps full relative accuracy at small a * r;
        only past a * r = 700, where expm1 overflows and nothing cancels,
        is it summed directly.
        """
        if rate <= 0.0:
            raise DomainError(f"rate must be positive, got {rate!r}")
        x = self.a * (rate - self.b)
        if x > 700.0:
            return self._scale * math.exp(-x)
        ar = self.a * rate
        if ar > 700.0:
            denom = math.exp(x) + 1.0 - self._e_ab - math.exp(-ar)
        else:
            denom = self._e_ab * math.expm1(ar) - math.expm1(-ar)
        if denom <= 0.0:  # a * rate underflowed to 0: 1 / rate is the leading term
            return 1.0 / rate
        return self._scale / denom

    def dlog_slope(self, rate: float) -> float:
        """d/dr ln (ln U)'(rate): -a(e^{a(r-b)} + e^{-ar}) / D with D the
        denominator of dlog_evaluate; -a in deep saturation, where (ln U)'
        is a pure exponential. The Newton steps of the price clearing use it.
        """
        if rate <= 0.0:
            raise DomainError(f"rate must be positive, got {rate!r}")
        x = self.a * (rate - self.b)
        if x > 700.0:
            return -self.a
        e_x = math.exp(x)
        ar = self.a * rate
        e_ar = math.exp(-ar)
        if ar > 700.0:
            denom = e_x + 1.0 - self._e_ab - e_ar
        else:
            denom = self._e_ab * math.expm1(ar) - math.expm1(-ar)
        if denom <= 0.0:
            return -1.0 / rate
        return -self.a * (e_x + e_ar) / denom

    def demand_curve(self, weight: float) -> Callable[[float, float], float]:
        """The rate r >= 0 with weight * (ln U)'(r) = price, in closed form,
        as a function of the price and its ln, which the caller takes once
        for all the curves it reads at that price; weight must be positive.

        With t = e^{ar} - 1 the denominator of dlog_evaluate is
        (e^{-ab} t^2 + (1 + e^{-ab}) t) / (1 + t), so t is the positive
        root of e^{-ab} t^2 + B t - M = 0, M = weight a (1 + e^{-ab}) / price,
        B = (1 + e^{-ab})(price - a weight) / price. a * weight is split
        exactly (Dekker, 1971), once per weight, which keeps B accurate
        where price is near a * weight (the flat stretch). For B > 0 the
        root is taken in the rationalized form, for B <= 0 as ln t, so
        nothing is divided by an e^{-ab} that has underflowed. Past
        M = e^700 this is the deep-saturation branch of dlog_evaluate,
        r = b + ln M / a, ln M being ln(weight a (1 + e^{-ab})) less the
        given ln price. Where M underflows, (ln U)' is 1 / r to within
        rounding, so the rate is weight / price.
        """
        a, b, e_ab = self.a, self.b, self._e_ab
        log, log1p, exp, hypot, sqrt = math.log, math.log1p, math.exp, math.hypot, math.sqrt
        scaled = weight * self._scale
        log_scaled = log(scaled) if scaled > 0.0 else NEG_INF
        half_c = 0.5 * (1.0 + e_ab)
        # a's upper half split on the mantissa, so no product overflows.
        mantissa, exponent = math.frexp(a)
        a_hi = math.ldexp(_SPLITTER * mantissa - (_SPLITTER * mantissa - mantissa), exponent)
        aw = a * weight
        w_hi = _SPLITTER * weight - (_SPLITTER * weight - weight)
        a_lo, w_lo = a - a_hi, weight - w_hi
        aw_lo = ((a_hi * w_hi - aw) + a_hi * w_lo + a_lo * w_hi) + a_lo * w_lo

        def demand(price: float, ln_price: float) -> float:
            m = scaled / price
            if m > 1.0142320547350045e304:  # e^700; inf when m overflows
                return b + (log_scaled - ln_price) / a
            if m < _TINY:
                return weight / price
            half_b = half_c * ((price - aw) - aw_lo) / price
            root = hypot(half_b, sqrt(e_ab * m))
            if half_b > 0.0:
                return log1p(m / (half_b + root)) / a
            if half_b == 0.0:  # the plateau price itself: t^2 = M e^{ab}, e^{-ab} may be 0
                head, log_term = 0.5 * b, 0.5 * log(m)
            else:
                head, log_term = b, log(root - half_b)
            log_t = a * head + log_term
            if log_t == math.inf:  # a * b overflowed: r = ln t / a, as e^{-ln t} is 0
                return head + log_term / a
            return (log_t + log1p(exp(-log_t))) / a

        return demand


@dataclass(frozen=True)
class LogarithmicUtility:
    """Normalized log curve U(r) = ln(1 + k r) / ln(1 + k r_max).

    Exactly 1 at r_max. The same formula extends smoothly beyond r_max
    (values above 1, still increasing and concave); solvers rely on that
    smoothness, so no clamping happens here.
    """

    k: float
    r_max: float

    def __post_init__(self) -> None:
        _require_positive_finite(self.k, "k")
        _require_positive_finite(self.r_max, "r_max")
        norm = math.log1p(self.k * self.r_max)
        if not 0.0 < norm < math.inf:  # k * r_max underflowed to 0 or overflowed
            raise DomainError(
                f"ln(1 + k * r_max) must be positive and finite, got {norm!r} "
                f"(k={self.k!r}, r_max={self.r_max!r})"
            )
        # ln of the normalisation, set once; not a field (see SigmoidalUtility).
        object.__setattr__(self, "_log_norm", self._log_log1p(self.r_max))

    def _log_log1p(self, rate: float) -> float:  # ln ln(1 + k rate) for rate > 0
        # Where k rate leaves the normal range, ln(1 + k rate) is k rate or ln k + ln rate.
        kr = self.k * rate
        if kr < _TINY:
            return math.log(self.k) + math.log(rate)
        return math.log(math.log1p(kr) if kr < math.inf else math.log(self.k) + math.log(rate))

    def evaluate(self, rate: float) -> float:
        if rate < 0.0:
            raise DomainError(f"rate must be nonnegative, got {rate!r}")
        num, norm = math.log1p(self.k * rate), math.log1p(self.k * self.r_max)
        if rate > 0.0 and not (_TINY <= num < math.inf and _TINY <= norm):
            return math.exp(self._log_log1p(rate) - self._log_norm)
        return num / norm

    def log_evaluate(self, rate: float) -> float:
        if rate < 0.0:
            raise DomainError(f"rate must be nonnegative, got {rate!r}")
        return NEG_INF if rate == 0.0 else self._log_log1p(rate) - self._log_norm

    def dlog_evaluate(self, rate: float) -> float:
        """d/dr ln U(r) = k / ((1 + k r) ln(1 + k r)); 1 / (r ln(k r)) to
        rounding where the denominator overflows, k r past 2.56e305."""
        if rate <= 0.0:
            raise DomainError(f"rate must be positive, got {rate!r}")
        kr = self.k * rate
        denom = (1.0 + kr) * math.log1p(kr)
        if denom < _TINY:  # k * rate is subnormal or 0: 1 / rate to rounding
            return 1.0 / rate
        if denom == math.inf:
            return 1.0 / rate / (math.log(self.k) + math.log(rate))
        return self.k / denom

    def dlog_slope(self, rate: float) -> float:
        """d/dr ln (ln U)'(rate) = -k / (1 + k r) * (1 + 1 / ln(1 + k r)); negative."""
        if rate <= 0.0:
            raise DomainError(f"rate must be positive, got {rate!r}")
        kr = self.k * rate
        log_term = math.log1p(kr)
        if log_term < _TINY:  # k * rate is subnormal or 0: -1 / rate to rounding
            return -1.0 / rate
        if log_term == math.inf:  # k / (1 + k r) is 1 / r, ln(1 + k r) ln k + ln r, to rounding
            return -1.0 / rate * (1.0 + 1.0 / (math.log(self.k) + math.log(rate)))
        return -self.k / (1.0 + kr) * (1.0 + 1.0 / log_term)

    def demand_curve(self, weight: float) -> Callable[[float, float], float]:
        """The rate r with weight * (ln U)'(r) = price as a function of
        price and ln price (taken once by the caller, as for the sigmoid),
        inf past float range; weight must be positive.

        v = ln(1 + k r) solves v e^v = z, ln z = ln k - (ln price - ln weight):
        it is the Lambert W of z (Corless et al., 1996). Below z = 1e-6 the series
        k r = z - z^2/2 + 2z^3/3 is exact to the rounding of z, and where z
        underflows the rate is weight / price; above, two Halley
        steps on v + ln v = ln z (no product to under- or overflow) from
        ln z - ln ln z + ln ln z / ln z, or Winitzki's guess for ln z <= 2,
        land within about |ln z| ulps of W(z).
        """
        k = self.k
        log, log1p, exp, expm1 = math.log, math.log1p, math.exp, math.expm1
        log_k, log_w = log(k), log(weight)

        def demand(price: float, ln_price: float) -> float:
            log_z = log_k - (ln_price - log_w)
            if log_z < -13.8:
                z = exp(log_z)
                if z < _TINY:
                    return weight / price
                return z / k * (1.0 - z * (0.5 - z * (2.0 / 3.0)))
            if log_z > 2.0:
                log_log_z = log(log_z)
                v = log_z - log_log_z + log_log_z / log_z
            else:
                w0 = log1p(exp(log_z))
                v = w0 * (1.0 - log1p(w0) / (2.0 + w0))
            # Two Halley steps, written out.
            f = v + log(v) - log_z
            df = 1.0 + 1.0 / v  # and f'' = -1 / v^2
            v -= f / (df + 0.5 * f / (v * v * df))
            f = v + log(v) - log_z
            df = 1.0 + 1.0 / v
            v -= f / (df + 0.5 * f / (v * v * df))
            if v <= 700.0:
                return expm1(v) / k
            log_rate = v - log_k  # e^v - 1 is e^v here
            return exp(log_rate) if log_rate < 709.78 else math.inf

        return demand


UtilityFunction = Union[SigmoidalUtility, LogarithmicUtility]


@dataclass(frozen=True)
class Application:
    """One application of a user: a utility curve, a usage weight, and an
    optional guaranteed target rate.

    The target rate doubles as the offset added to the rate argument in
    the objective: a target-bearing application is evaluated at
    (extra rate + target). Three attributes are set once from the fields:
    offset, that target (0.0 without one); demand_at, the utility's
    demand_curve at the weight (None at weight 0, which demands nothing);
    and curve_key, the utility's class, its field values and the weight,
    a plain tuple equal exactly where (utility, weight) are under
    dataclass ==, which RegimeTable groups curves by without running the
    dataclass-generated __hash__ and __eq__ as Python frames.
    """

    utility: UtilityFunction
    weight: float
    target_rate: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.utility, (SigmoidalUtility, LogarithmicUtility)):
            raise DomainError(
                f"utility must be sigmoidal or logarithmic, got {type(self.utility).__name__}"
            )
        if not (math.isfinite(self.weight) and 0.0 <= self.weight <= 1.0):
            raise DomainError(f"weight must lie in [0, 1], got {self.weight!r}")
        if self.target_rate is not None:
            _require_positive_finite(self.target_rate, "target_rate")
        # Not fields, so ==, hash and repr ignore them and replace rebuilds them.
        object.__setattr__(self, "offset", 0.0 if self.target_rate is None else self.target_rate)
        curve = self.utility.demand_curve(self.weight) if self.weight > 0.0 else None
        object.__setattr__(self, "demand_at", curve)
        utility = self.utility
        values = tuple(getattr(utility, f.name) for f in fields(utility) if f.compare)
        object.__setattr__(self, "curve_key", (type(utility), *values, self.weight))

    def __reduce__(self):  # rebuild demand rather than pickle a closure
        return (Application, (self.utility, self.weight, self.target_rate))


class UserClass(Enum):
    VIP = "vip"
    REGULAR = "regular"


@dataclass(frozen=True)
class UserProfile:
    """A user: service class, subscription weight beta, and its applications.

    Only a VIP user's applications may carry target rates. is_vip and
    total_target, its applications' offsets added left to right, are set
    once from the fields; like Application's, they are not fields.
    """

    user_id: str
    user_class: UserClass
    beta: float
    apps: tuple[Application, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.user_id, str) or not self.user_id:
            raise DomainError(f"user_id must be a nonempty string, got {self.user_id!r}")
        if not isinstance(self.user_class, UserClass):
            raise DomainError(f"user_class must be a UserClass, got {self.user_class!r}")
        _require_positive_finite(self.beta, "beta")
        object.__setattr__(self, "apps", tuple(self.apps))
        if not self.apps:
            raise DomainError(f"user {self.user_id!r} must have at least one application")
        object.__setattr__(self, "is_vip", self.user_class is UserClass.VIP)
        if not self.is_vip and any(app.target_rate is not None for app in self.apps):
            raise DomainError(f"regular user {self.user_id!r} must not carry target rates")
        object.__setattr__(self, "total_target", add_up(app.offset for app in self.apps))


class CaseFlag(Enum):
    """Capacity regime of one solve, fixed by determine_case: a label. Its
    rules are stated in regime_table; solvers read them from its table."""

    TARGETS_EXCEED_CAPACITY = "targets_exceed_capacity"
    TARGETS_BELOW_CAPACITY = "targets_below_capacity"


_SCARCE = CaseFlag.TARGETS_EXCEED_CAPACITY  # CaseFlag.X is slow before 3.12 (EnumMeta.__getattr__)


def determine_case(users: Sequence[UserProfile], capacity: float) -> CaseFlag:
    """Scarce capacity iff the VIP users' summed target rates reach it."""
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise DomainError(f"capacity must be positive, got {capacity!r}")
    total = add_up(user.total_target for user in users if user.is_vip)
    return _SCARCE if total >= capacity else CaseFlag.TARGETS_BELOW_CAPACITY


class AppRow(NamedTuple):
    """One application under a regime; its decision variable is the rate
    above offset, at most cap."""

    user_slot: int  # index of its user among those the rows were built for
    app: Application
    factor: float  # beta * weight
    offset: float  # added to the rate inside the utility argument
    cap: float  # upper bound on the variable itself, inf for none


@dataclass(frozen=True)
class RegimeTable:
    """One solve's problem under its capacity regime.

    participants are the users taking part, in declaration order; budget
    is the capacity they share above their offsets; user_caps holds each
    participant's cap (inf for none) and rows their applications, user by
    user. Set once from the fields, and not fields themselves: limits, the
    most each row can take, min(its cap, its user's cap, the budget); and
    the curve grouping the bidding rounds and the certifier both read a
    price through: curves, one (application, beta) per distinct (utility,
    weight, beta) of a weighted row, in first-appearance order, and
    curve_of, each row's index into curves (None at weight 0).
    """

    case: CaseFlag
    participants: tuple[UserProfile, ...]
    budget: float
    user_caps: tuple[float, ...]
    rows: tuple[AppRow, ...]

    def __post_init__(self) -> None:
        caps, budget, users = self.user_caps, self.budget, self.participants
        limits, curves, curve_of = [], [], []
        slots: dict[tuple, int] = {}  # (curve_key, beta) -> its index in curves
        for user_slot, app, _, _, limit in self.rows:  # an AppRow's fields, its cap last
            if caps[user_slot] < limit:  # min(cap, user cap, budget), as min() takes it
                limit = caps[user_slot]
            if budget < limit:
                limit = budget
            limits.append(limit)
            if app.weight == 0.0:
                curve_of.append(None)
                continue
            beta = users[user_slot].beta
            key = (app.curve_key, beta)
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(curves)
                curves.append((app, beta))
            curve_of.append(slot)
        for name, value in ("limits", limits), ("curves", curves), ("curve_of", curve_of):
            object.__setattr__(self, name, tuple(value))


def regime_table(users: Sequence[UserProfile], capacity: float) -> RegimeTable:
    """Decide the regime for this capacity and lay out who shares what, by
    the regime's rules, stated here only. Scarce capacity (the VIP targets
    reach it): only VIPs take part, each target caps its application's rate
    and, added up, its user's, and the budget is the capacity. Abundant:
    every user takes part, each target is its row's offset, granted off
    the top, nothing is capped, and the budget is what the offsets leave.

    Every solver's input is checked here: a positive finite capacity
    (DomainError), and at least one user, with unique ids (ContractError)."""
    case = determine_case(users, capacity)
    if not users:
        raise ContractError("at least one user is required")
    if len({user.user_id for user in users}) != len(users):
        raise ContractError("user ids must be unique")
    new, inf = tuple.__new__, math.inf  # AppRow's own __new__ and _make are Python frames
    if case is _SCARCE:
        participants = tuple(user for user in users if user.is_vip)
        rows = tuple([new(AppRow, (slot, app, user.beta * app.weight, 0.0, app.target_rate or inf))
                      for slot, user in enumerate(participants) for app in user.apps])
        return RegimeTable(case, participants, capacity,
                           tuple(user.total_target for user in participants), rows)
    participants = tuple(users)
    rows = tuple([new(AppRow, (slot, app, user.beta * app.weight, app.offset, inf))
                  for slot, user in enumerate(participants) for app in user.apps])
    budget = capacity - add_up(user.total_target for user in participants)
    return RegimeTable(case, participants, budget, (inf,) * len(participants), rows)


def sigmoid_plateau(utility: UtilityFunction, factor: float) -> tuple[float, float] | None:
    """(p0, d) for a sigmoid row: where and over what width its demand
    crosses the curve's flat stretch; None for a log curve or factor 0.

    Between the low-rate wall and the inflection (ln U)' stays near
    a(1 + e^{-ab}), so the row demands little above p0 = factor * a(1 +
    e^{-ab}) and much below it. With x = e^{-a(r - b/2)} the equation
    factor * (ln U)'(r) = p reads x - 1 / x = (p - p0) / (p0 e^{-ab/2}) to
    first order, so the demand is b/2 - s / a with s = asinh((p - p0) / d),
    d = 2 p0 e^{-ab/2}: linear in s, and like -ln|p - p0| / a beyond d.
    d is at least 2 ulps of p0, the finest step a price can take there.
    """
    if not isinstance(utility, SigmoidalUtility) or factor == 0.0:
        return None
    p0 = factor * utility.a * (1.0 + utility._e_ab)
    return p0, max(2.0 * p0 * utility._e_half_ab, 2.0 * math.ulp(p0))


def objective(rows: Sequence[AppRow], rates: Sequence[float]) -> float:
    """The problem's objective: sum of factor * ln U(rate + offset) over
    the rows, rates being the amounts above the offsets. A zero factor
    adds nothing; the result is -inf as soon as one term is -inf."""
    total = 0.0
    for row, rate in zip(rows, rates):
        if row.factor == 0.0:
            continue
        log_value = row.app.utility.log_evaluate(rate + row.offset)
        if log_value == NEG_INF:
            return NEG_INF
        total += row.factor * log_value
    return total
