"""Normalized application utility curves and their log-domain calculus.

Two shapes cover the traffic mix considered here: a sigmoidal curve for
real-time applications (steep around an inflection rate b) and a
logarithmic curve for delay-tolerant ones (diminishing returns set by k).
Both are normalized so the value at rate 0 is exactly 0 and the curve
tops out at 1, which makes weighted products across applications
meaningful.

Every solver in this package works on ln U and its rate derivative, so
the numerically delicate pieces are concentrated in this module. All
branches exponentiate only non-positive (or safely bounded) arguments;
steepness-times-inflection products up to about 700 are handled without
overflow, and saturation degrades gracefully rather than raising.

The capacity regime (CaseFlag) and what it means for every user and
application also live here, so the bidding stage, the intra-user split
and the certifying solvers all read one statement of the problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from .errors import ContractError, DomainError

NEG_INF = float("-inf")


def _require_positive_finite(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class SigmoidalUtility:
    """Normalized sigmoid U(r) = c_norm * (1 / (1 + e^{-a(r-b)}) - d_norm).

    The normalization constants are chosen so U(0) = 0 and U(r) -> 1 as
    r grows; the inflection sits at r = b and a controls the steepness.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        _require_positive_finite(self.a, "a")
        _require_positive_finite(self.b, "b")
        # Per-curve constants; not fields, so ==, hash, repr and replace see a, b only.
        object.__setattr__(self, "_e_ab", math.exp(-self.a * self.b))
        object.__setattr__(self, "_scale", self.a * (1.0 + self._e_ab))

    @property
    def c_norm(self) -> float:
        return 1.0 + self._e_ab

    @property
    def d_norm(self) -> float:
        return self._e_ab / (1.0 + self._e_ab)

    @property
    def rate_scale(self) -> float:
        """Characteristic rate of the curve (the inflection point)."""
        return self.b

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
                num = math.expm1(ar)
                if num <= 0.0:  # a*rate underflowed to zero
                    return NEG_INF
                return -ab + math.log(num) - math.log1p(math.exp(x))
            return x + math.log1p(-math.exp(-ar)) - math.log1p(math.exp(x))
        return math.log1p(-math.exp(-ar)) - math.log1p(math.exp(-x))

    def dlog_evaluate(self, rate: float) -> float:
        """d/dr ln U(r); strictly positive and strictly decreasing.

        Closed form a(1 + e^{-ab}) / (e^{a(r-b)} + 1 - e^{-ab} - e^{-ar});
        near rate 0 this behaves like 1/r, in deep saturation like
        a * e^{-a(r-b)}.
        """
        if rate <= 0.0:
            raise DomainError(f"rate must be positive, got {rate!r}")
        x = self.a * (rate - self.b)
        if x > 700.0:
            return self._scale * math.exp(-x)
        denom = math.exp(x) + 1.0 - self._e_ab - math.exp(-self.a * rate)
        if denom <= 0.0:
            # Rounding collapse once a * rate is below about 1e-16, where
            # the true value, about 1 / rate, exceeds any price in use.
            return math.inf
        return self._scale / denom

    def dlog_and_slope(self, rate: float) -> tuple[float, float]:
        """(dlog_evaluate(rate), d/dr ln (ln U)'(rate)) from one set of exponentials.

        The first value is bit-equal to dlog_evaluate. The second is
        -a(e^{a(r-b)} + e^{-ar}) / D with D the denominator of
        dlog_evaluate; -a in deep saturation, where (ln U)' is a pure
        exponential. The Newton steps of the demand and the price
        clearing use it.
        """
        if rate <= 0.0:
            raise DomainError(f"rate must be positive, got {rate!r}")
        x = self.a * (rate - self.b)
        if x > 700.0:
            return self._scale * math.exp(-x), -self.a
        e_x = math.exp(x)
        e_ar = math.exp(-self.a * rate)
        denom = e_x + 1.0 - self._e_ab - e_ar
        if denom <= 0.0:
            return math.inf, -math.inf
        return self._scale / denom, -self.a * (e_x + e_ar) / denom


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
        # ln of the normalisation, set once; not a field (see SigmoidalUtility).
        object.__setattr__(self, "_log_norm", math.log(math.log1p(self.k * self.r_max)))

    @property
    def rate_scale(self) -> float:
        """Characteristic rate of the curve (the 100%-utilization rate)."""
        return self.r_max

    def evaluate(self, rate: float) -> float:
        if rate < 0.0:
            raise DomainError(f"rate must be nonnegative, got {rate!r}")
        return math.log1p(self.k * rate) / math.log1p(self.k * self.r_max)

    def log_evaluate(self, rate: float) -> float:
        if rate < 0.0:
            raise DomainError(f"rate must be nonnegative, got {rate!r}")
        if rate == 0.0:
            return NEG_INF
        num = math.log1p(self.k * rate)
        if num <= 0.0:  # k*rate underflowed to zero
            return NEG_INF
        return math.log(num) - self._log_norm

    def dlog_evaluate(self, rate: float) -> float:
        """d/dr ln U(r) = k / ((1 + k r) ln(1 + k r))."""
        if rate <= 0.0:
            raise DomainError(f"rate must be positive, got {rate!r}")
        kr = self.k * rate
        denom = (1.0 + kr) * math.log1p(kr)
        if denom <= 0.0:
            return math.inf
        return self.k / denom

    def dlog_and_slope(self, rate: float) -> tuple[float, float]:
        """(dlog_evaluate(rate), d/dr ln (ln U)'(rate)), the second being
        -k / (1 + k r) * (1 + 1 / ln(1 + k r)); negative."""
        if rate <= 0.0:
            raise DomainError(f"rate must be positive, got {rate!r}")
        kr = self.k * rate
        log_term = math.log1p(kr)
        denom = (1.0 + kr) * log_term
        if denom <= 0.0:
            return math.inf, -math.inf
        return self.k / denom, -self.k / (1.0 + kr) * (1.0 + 1.0 / log_term)

    def rate_at_log_dlog(self, log_marginal: float) -> float:
        """The rate r with ln (ln U)'(r) = log_marginal; inf past float range.

        v = ln(1 + k r) solves v e^v = z, ln z = ln k - log_marginal: it is
        the Lambert W of z (Corless et al., 1996). Below z = 1e-6 the series
        k r = z - z^2/2 + 2z^3/3 is exact to the rounding of z; above, two Halley
        steps on v + ln v = ln z (no product to under- or overflow) from
        ln z - ln ln z + ln ln z / ln z, or Winitzki's guess for ln z <= 2,
        land within about |ln z| ulps of W(z).
        """
        log_z = math.log(self.k) - log_marginal
        if log_z < -13.8:
            z = math.exp(log_z)
            return z / self.k * (1.0 - z * (0.5 - z * (2.0 / 3.0)))
        if log_z > 2.0:
            log_log_z = math.log(log_z)
            v = log_z - log_log_z + log_log_z / log_z
        else:
            w0 = math.log1p(math.exp(log_z))
            v = w0 * (1.0 - math.log1p(w0) / (2.0 + w0))
        for _ in range(2):
            f = v + math.log(v) - log_z
            df = 1.0 + 1.0 / v  # and f'' = -1 / v^2
            v -= f / (df + 0.5 * f / (v * v * df))
        if v <= 700.0:
            return math.expm1(v) / self.k
        log_rate = v - math.log(self.k)  # e^v - 1 is e^v here
        return math.exp(log_rate) if log_rate < 709.78 else math.inf


UtilityFunction = Union[SigmoidalUtility, LogarithmicUtility]


@dataclass(frozen=True)
class Application:
    """One application of a user: a utility curve, a usage weight, and an
    optional guaranteed target rate.

    The target rate doubles as the offset added to the rate argument in
    the aggregated utility: a target-bearing application is evaluated at
    (extra rate + target).
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

    @property
    def offset(self) -> float:
        """Rate offset contributed by the target (0 when no target)."""
        return 0.0 if self.target_rate is None else self.target_rate


class UserClass(Enum):
    VIP = "vip"
    REGULAR = "regular"


@dataclass(frozen=True)
class UserProfile:
    """A user: service class, subscription weight beta, and its applications."""

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

    @property
    def is_vip(self) -> bool:
        return self.user_class is UserClass.VIP

    @property
    def total_target(self) -> float:
        return sum(app.offset for app in self.apps)


def aggregate_user_utility(user: UserProfile, rates: Sequence[float]) -> float:
    """Weighted geometric mean of per-application utilities.

    Computed as exp(sum of weight * ln U(rate + offset)); a zero-weight
    application contributes factor 1 regardless of its rate, while a
    zero-utility factor with positive weight collapses the product to 0.
    """
    if len(rates) != len(user.apps):
        raise ContractError(
            f"user {user.user_id!r} has {len(user.apps)} applications "
            f"but {len(rates)} rates were given"
        )
    total = 0.0
    for app, rate in zip(user.apps, rates):
        if rate < 0.0:
            raise DomainError(f"rates must be nonnegative, got {rate!r}")
        if app.weight == 0.0:
            continue  # factor U^0 = 1, and 0 * (-inf) must not poison the sum
        log_value = app.utility.log_evaluate(rate + app.offset)
        if log_value == NEG_INF:
            return 0.0
        total += app.weight * log_value
    return math.exp(total)


class CaseFlag(Enum):
    """Capacity regime of one solve, fixed by determine_case.

    Scarce capacity (the VIP targets reach it): only VIP users take part,
    nothing is granted off the top, and each target caps its
    application's rate and, summed, its user's rate. Abundant capacity:
    every user takes part, every target is granted off the top as an
    offset, and nothing is capped. These methods and regime_table are the
    only statement of these rules; the solvers read them through a
    RegimeTable or through a CaseFlag argument.
    """

    TARGETS_EXCEED_CAPACITY = "targets_exceed_capacity"
    TARGETS_BELOW_CAPACITY = "targets_below_capacity"

    def app_offset(self, app: Application) -> float:
        """Rate granted to the application before it competes."""
        return 0.0 if self is CaseFlag.TARGETS_EXCEED_CAPACITY else app.offset

    def app_cap(self, app: Application) -> float | None:
        """Bound on the application's rate above its offset (None: unbounded)."""
        return app.target_rate if self is CaseFlag.TARGETS_EXCEED_CAPACITY else None

    def user_offset(self, user: UserProfile) -> float:
        """Rate granted to the user before it competes: its apps' offsets."""
        return 0.0 if self is CaseFlag.TARGETS_EXCEED_CAPACITY else user.total_target

    def user_cap(self, user: UserProfile) -> float | None:
        """Bound on the user's rate above its offset (None: unbounded)."""
        return user.total_target if self is CaseFlag.TARGETS_EXCEED_CAPACITY else None


def determine_case(users: Sequence[UserProfile], capacity: float) -> CaseFlag:
    """Scarce capacity iff the VIP users' summed target rates reach it."""
    if not (math.isfinite(capacity) and capacity > 0.0):
        raise DomainError(f"capacity must be positive, got {capacity!r}")
    total = sum(user.total_target for user in users if user.is_vip)
    if total >= capacity:
        return CaseFlag.TARGETS_EXCEED_CAPACITY
    return CaseFlag.TARGETS_BELOW_CAPACITY


@dataclass(frozen=True)
class AppRow:
    """One application under a regime; its decision variable is the rate
    above offset, at most cap."""

    user_slot: int  # index of its user among those the rows were built for
    app: Application
    factor: float  # beta * weight
    offset: float  # added to the rate inside the utility argument
    cap: float | None  # upper bound on the variable itself


@dataclass(frozen=True)
class RegimeTable:
    """One solve's problem under its capacity regime.

    participants are the users taking part, in declaration order; budget
    is the capacity they share above their offsets; user_caps holds each
    participant's cap and rows their applications, user by user.
    """

    case: CaseFlag
    participants: tuple[UserProfile, ...]
    budget: float
    user_caps: tuple[float | None, ...]
    rows: tuple[AppRow, ...]


def app_rows(users: Sequence[UserProfile], case: CaseFlag) -> tuple[AppRow, ...]:
    """Rows of the users' applications in order; user_slot indexes users."""
    return tuple(
        AppRow(slot, app, user.beta * app.weight, case.app_offset(app), case.app_cap(app))
        for slot, user in enumerate(users)
        for app in user.apps
    )


def regime_table(users: Sequence[UserProfile], capacity: float) -> RegimeTable:
    """Decide the regime for this capacity and lay out who shares what."""
    case = determine_case(users, capacity)
    if case is CaseFlag.TARGETS_EXCEED_CAPACITY:
        participants = tuple(user for user in users if user.is_vip)
    else:
        participants = tuple(users)
    return RegimeTable(
        case=case,
        participants=participants,
        budget=capacity - sum(case.user_offset(user) for user in participants),
        user_caps=tuple(case.user_cap(user) for user in participants),
        rows=app_rows(participants, case),
    )
