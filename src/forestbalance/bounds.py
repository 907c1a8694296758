"""Closed-form imbalance guarantees for an (n, max_degree) pair.

Bounds are evaluated in double precision; integer sums are compared against a
bound after nudging it up to the next representable float so a rounding error
can never reject a sum that is genuinely within the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


from .core import CertificateError, InvalidInputError


def universal_bound(delta: int) -> Fraction:
    """Guarantee valid for every spanning forest: delta/2 + 18, exact."""
    if delta < 1:
        raise InvalidInputError(f"max degree must be >= 1, got {delta}")
    return Fraction(delta, 2) + 18


def refined_bound(n: int, delta: int) -> float:
    """Case-split guarantee: delta/2 + 9 outside the middle range, else a sqrt form."""
    if not 1 <= delta <= n - 1:
        raise InvalidInputError(f"need 1 <= delta <= n-1, got delta={delta}, n={n}")
    if 2 * delta >= n or delta <= 15:
        return 0.5 * delta + 9
    return _midrange(n, delta - n / 4)


def _midrange(n: int, t: float) -> float:
    """The midrange bound at max degree n/4 + t, at its best epsilon: (t + 3)/2 + sqrt((t + 1)^2/4 + 4n)."""
    return 0.5 * (t + 3) + math.sqrt(0.25 * (t + 1) ** 2 + 4 * n)


def degree_offset(n: int, delta: int) -> float:
    """Normalized degree offset (delta - n/4) / n."""
    return (delta - n / 4) / n


def _check_offset_domain(n: int, offset: float) -> None:
    if n < 32:
        raise InvalidInputError(f"need n >= 32, got {n}")
    lo = -0.25 + 16.0 / n
    if not lo - 1e-12 <= offset <= 0.25 + 1e-12:
        raise InvalidInputError(
            f"offset {offset} outside [{lo}, 0.25] for n={n}"
        )


def optimized_midrange_bound(n: int, offset: float) -> float:
    """Best value of the midrange bound over admissible epsilon, in closed form."""
    _check_offset_domain(n, offset)
    return _midrange(n, offset * n)


def crossing_epsilon(n: int, offset: float) -> float:
    """The epsilon where the two branches of the midrange bound meet.

    Always lies in [1/n, 1/8] on the admissible offset domain; checked.
    """
    _check_offset_domain(n, offset)
    t = offset * n
    eps = (-1 - t + math.sqrt((1 + t) ** 2 + 16 * n)) / (4 * n)
    if not 1.0 / n - 1e-12 <= eps <= 0.125 + 1e-12:
        raise CertificateError(f"crossing epsilon {eps} out of range")
    return eps


def margin_bound(n: int, delta: int, eta: float) -> float:
    """Explicit constant-regime guarantee 4n/(eta*n - 2) for delta <= (1/4 - eta) n."""
    if not 0 < eta < 0.25:
        raise InvalidInputError(f"eta must be in (0, 1/4), got {eta}")
    if eta * n <= 2:
        raise InvalidInputError(f"need eta*n > 2, got eta*n={eta * n}")
    if not 15 <= delta <= (0.25 - eta) * n:
        raise InvalidInputError(
            f"need 15 <= delta <= (1/4 - eta) n, got delta={delta}, n={n}, eta={eta}"
        )
    return 4 * n / (eta * n - 2)


def split_parity_star_imbalance(n: int) -> int:
    """Exact imbalance of every spanning-star embedding into the split-parity colouring."""
    if n % 4 != 0:
        raise InvalidInputError(f"split-parity colouring needs n divisible by 4, got {n}")
    return (n - 2) // 2


def fits(value: int, bound: float) -> bool:
    """Whether an integer sum is within a real bound, robust to float rounding."""
    return value <= math.nextafter(float(bound), math.inf)


@dataclass(frozen=True)
class BoundReport:
    """Every guarantee evaluated for one (n, delta) pair."""

    n: int
    delta: int
    universal: Fraction
    refined: float
    offset: float
    midrange_opt: float | None = None
    crossing_eps: float | None = None
    margin: float | None = None

    @classmethod
    def compute(cls, n: int, delta: int, eta: float | None = None) -> "BoundReport":
        uni = universal_bound(delta)
        ref = refined_bound(n, delta)
        off = degree_offset(n, delta)
        if ref > float(uni) + 1 + 1e-9:
            raise CertificateError("refined bound exceeds universal + 1")
        mid = ce = None
        if n >= 32 and -0.25 + 16.0 / n <= off <= 0.25:
            mid = optimized_midrange_bound(n, off)
            ce = crossing_epsilon(n, off)
        mar = None
        if eta is not None:
            mar = margin_bound(n, delta, eta)
        return cls(n, delta, uni, ref, off, mid, ce, mar)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "universal": float(self.universal),
            "universal_exact": str(self.universal),
            "refined": self.refined,
            "offset": self.offset,
            "midrange_opt": self.midrange_opt,
            "crossing_eps": self.crossing_eps,
            "margin": self.margin,
        }
