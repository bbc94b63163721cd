"""Orbit-criterion evidence on finite samples.

Three ingredients are checked against supplied sample vectors and a strictly
increasing exponent sequence: forward decay of the orbit, backward solvability
onto the samples with decaying preimages, and invariance of the coordinate
subspace under the checked powers.  Everything reported is about the samples
and exponents actually supplied; no density claim is manufactured from them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import UnsupportedOperator
from .seqspace import (
    PRUNE_MODULUS,
    ForwardShift,
    Operator,
    SeqVec,
    _recovery,
    _scaled_shift_parts,
    apply_power,
    distance,
    max_or_nan,
    norm,
)
from .subspace import (
    ZeroPattern,
    dyadic_net,
    invariance_check,  # unused here, but perfbench's tracer wraps this binding
    invariance_scan,
    is_member,
)

__all__ = [
    "backsolve",
    "DecayRecord",
    "RecoveryRecord",
    "InvarianceRecord",
    "CriterionReport",
    "check_criterion",
    "transitivity_probe",
]


def _shift_scale(parts: tuple[tuple[complex, ...], int] | None) -> tuple[complex, int] | None:
    """``(lam, b)`` when ``parts = _scaled_shift_parts(op)`` is lam * B^b with
    at most one factor, else ``None``."""
    if parts is None or len(parts[0]) > 1:
        return None
    factors, b = parts
    return (factors[0] if factors else 1 + 0j), b


def backsolve(op: Operator, n: int, target: SeqVec) -> SeqVec:
    """The canonical preimage ``lam^-n S^(b n) target`` of ``target`` under ``op^n``.

    Defined for any nonzero scaling; whether the preimages decay is exactly
    what the criterion check observes, so no modulus gate is imposed here.
    """
    return _preimage(op, _shift_scale(_scaled_shift_parts(op)), n, target)


def _preimage(op: Operator, scale: tuple[complex, int] | None, n: int, target: SeqVec) -> SeqVec:
    """``backsolve`` for a caller that already holds ``op``'s ``scale``."""
    factor = _preimage_factor(op, scale, n)
    if n == 0:
        return target
    return ForwardShift(scale[1] * n).apply(target) * factor


def _preimage_factor(op: Operator, scale: tuple[complex, int] | None, n: int) -> complex:
    """``lam^-n``, after the checks ``backsolve`` makes on ``op`` and ``n``."""
    if scale is None:
        raise UnsupportedOperator(
            f"backsolve needs a (scaled) backward shift, got {type(op).__name__}"
        )
    lam = scale[0]
    if lam == 0:
        raise UnsupportedOperator("scaling factor 0 has no right inverse")
    if n < 0:
        raise ValueError("power must be >= 0")
    try:
        factor = lam ** (-n)
    except ArithmeticError:  # lam^n underflows, or lam^-n overflows
        factor = cmath.nan
    if not cmath.isfinite(factor):  # complex power may also return nan+nanj
        raise ArithmeticError(
            f"backsolve: lambda^-n is past the float range for lambda = {lam}, n = {n}"
        )
    return factor


@dataclass(frozen=True)
class DecayRecord:
    sample: int
    final_norm: float
    first_zero_nk: int | None
    passed: bool  # condition (i) on this sample: final_norm <= tol


@dataclass(frozen=True)
class RecoveryRecord:
    sample: int
    final_preimage_norm: float
    preimage_monotone: bool
    recovery_error: float
    norm_law_dev: float
    passed: bool  # condition (ii): error and final preimage norm <= tol, norms monotone


@dataclass(frozen=True)
class InvarianceRecord:
    k: int
    n_k: int
    invariant: bool


@dataclass(frozen=True)
class CriterionReport:
    nks: tuple[int, ...]
    tol: float
    decay: tuple[DecayRecord, ...]
    recovery: tuple[RecoveryRecord, ...]
    invariance: tuple[InvarianceRecord, ...]

    @property
    def decay_ok(self) -> bool:
        return all(d.passed for d in self.decay)

    @property
    def recovery_ok(self) -> bool:
        return all(r.passed for r in self.recovery)

    @property
    def invariance_ok(self) -> bool:
        return all(c.invariant for c in self.invariance)

    @property
    def passes(self) -> bool:
        return self.decay_ok and self.recovery_ok and self.invariance_ok


def check_criterion(
    op: Operator,
    pattern: ZeroPattern,
    xs: Sequence[SeqVec],
    ys: Sequence[SeqVec],
    nks: Sequence[int],
    dim: int,
    tol: float,
) -> CriterionReport:
    """Evaluate the three criterion conditions on the given samples.

    ``xs`` and ``ys`` must already lie in the subspace (membership defect
    exactly zero); ``nks`` must be strictly increasing positive exponents.
    Condition (ii) additionally records how far the preimage norms stray
    from the exact law ||x_k|| = ||y|| / |lam|^{n_k}.  ``tol`` must be at
    least ``PRUNE_MODULUS``: a tail whose entries fall below it is pruned to
    zero, so a smaller tol would pass tails it should reject.
    """
    if not tol >= PRUNE_MODULUS:
        raise ValueError(f"tol must be at least {PRUNE_MODULUS}, got {tol}")
    nks = tuple(int(n) for n in nks)
    if not nks or nks[0] < 1 or any(b <= a for a, b in zip(nks, nks[1:])):
        raise ValueError("exponents must be strictly increasing and positive")
    for name, group in (("x", xs), ("y", ys)):
        for i, v in enumerate(group):
            if not is_member(v, pattern):
                raise ValueError(f"{name}-sample {i} is not in the subspace")

    decay = []
    for i, x in enumerate(xs):
        first_zero = None
        image, reached = x, 0
        for n in nks:
            image = apply_power(op, n - reached, image)
            reached = n
            if first_zero is None and not image:
                first_zero = n
        final = norm(image)
        decay.append(DecayRecord(i, final, first_zero, final <= tol))

    # Recognised once.  Unless op is lam B^b, _preimage_factor raises at the
    # first y, so parts[0] and scale[0] are read only where they exist.
    parts = _scaled_shift_parts(op)
    scale = _shift_scale(parts)

    # n -> (lam^-n, op's factors n times), made when the first y needs them,
    # so that an error comes where the honest path raises it.
    steps: dict[int, tuple[complex, tuple[complex, ...]]] = {}
    recovery = []
    for i, y in enumerate(ys):
        y_norm = norm(y)
        norms = []
        worst_recovery = 0.0
        worst_law = 0.0
        for n in nks:
            if n not in steps:
                steps[n] = _preimage_factor(op, scale, n), parts[0] * n
            x_norm, error = _recovery(*steps[n], parts[1], n, y)
            norms.append(x_norm)
            worst_recovery = max_or_nan(worst_recovery, error)
            if y_norm > 0.0:
                expected = y_norm * abs(scale[0]) ** (-n)
                worst_law = max_or_nan(worst_law, abs(x_norm - expected) / y_norm)
        monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))
        passed = worst_recovery <= tol and norms[-1] <= tol and monotone
        recovery.append(
            RecoveryRecord(i, norms[-1], monotone, worst_recovery, worst_law, passed)
        )

    invariance = tuple(
        InvarianceRecord(k, n, invariant)
        for k, (n, invariant) in enumerate(zip(nks, invariance_scan(op, pattern, nks, dim)))
    )
    return CriterionReport(nks, tol, tuple(decay), tuple(recovery), invariance)


def transitivity_probe(
    op: Operator,
    pattern: ZeroPattern,
    u_center: SeqVec,
    u_radius: float,
    v_center: SeqVec,
    v_radius: float,
    horizon: int,
    dim: int,
    grid_level: int = 1,
    grid_support: int = 4,
) -> int | None:
    """Search for n <= horizon with T^n carrying part of the V-ball into the U-ball.

    Candidates around the V-center come from a dyadic grid scaled to the
    ball plus, when the operator is backsolvable, the exact n-step preimage
    of the U-center.  A hit is only reported after verifying membership of
    the candidate, the ball constraints, and invariance of the subspace at
    that power, so a returned n is a certificate; ``None`` only means the
    searched candidates missed.

    Membership and the V-ball do not depend on n, so the grid candidates
    are filtered once and, since T^0 = I, tried as they are for n = 0.
    Each survivor's image is then carried from one invariant power to the
    next.  Within a power the survivors are tried in grid order and the
    preimage last, so the first hit, and any error an image raises, come
    where checking every power from scratch puts them.

    Before each step, only the first of each group of survivors with equal
    stored entries, or for a scaled shift equal kept entries, is applied
    (``_first_per_kept_part``): it hits, and raises, wherever the rest
    would, and is tried first.  So an image equal to an earlier one is
    tried at the power that made it, and dropped before the next.
    """
    if u_radius <= 0 or v_radius <= 0:
        raise ValueError("ball radii must be positive")
    if not (is_member(u_center, pattern) and is_member(v_center, pattern)):
        raise ValueError("ball centers must lie in the subspace")

    grid = [t * v_radius for t in dyadic_net(pattern, grid_support, grid_level)]
    parts = _scaled_shift_parts(op)
    scale = _shift_scale(parts)

    def hits(image: SeqVec) -> bool:
        return is_member(image, pattern) and distance(image, u_center) < u_radius

    # Images at power ``reached`` of the grid candidates in the V-ball.  Each
    # is a member: v_center is, grid points lie on allowed indices, and a
    # sum only prunes.
    survivors: list[SeqVec] = []
    for w in [v_center + g for g in grid]:
        if distance(w, v_center) < v_radius:
            if hits(w):
                return 0
            survivors.append(w)
    v_image, reached = v_center, 0
    powers = range(1, horizon + 1)
    for n, invariant in zip(powers, invariance_scan(op, pattern, powers, dim)):
        if not invariant:
            continue
        if scale is not None:
            v_image = apply_power(op, n - reached, v_image)
            preimage = v_center + _preimage(op, scale, n, u_center - v_image)
        images = _first_per_kept_part(parts, n - reached, survivors)
        survivors = []
        for image in images:
            image = apply_power(op, n - reached, image)
            if hits(image):
                return n
            survivors.append(image)
        reached = n
        if (
            scale is not None
            and is_member(preimage, pattern)
            and distance(preimage, v_center) < v_radius
            and hits(apply_power(op, n, preimage))
        ):
            return n
    return None


# 2**996 is about 1e300.  A chain of products whose exact moduli stay below
# it is computed, with every modulus, far from overflow, however it rounds.
_GROUP_LOG2_LIMIT = 996.0


def _first_per_kept_part(
    parts: tuple[tuple[complex, ...], int] | None, steps: int, vecs: list[SeqVec]
) -> list[SeqVec]:
    """``vecs`` less each vector whose image after ``steps`` steps an earlier one fixes.

    The vectors are grouped by their kept entries, those at index >= cut,
    and the first of each group, which applying every vector would try
    first, stands for the rest.  An operator's image depends on the stored
    entries alone, and equal entries differ at most in the signs of zero
    parts, which no modulus, prune test or norm sees.  So with cut = 0 the
    first hits, and raises, wherever the rest would.

    Under ``steps`` steps of the scaled shift ``parts = (factors, p)``, an
    entry at index i >= cut = ``steps`` p takes every step and lands at
    i - cut, while a lower entry takes fewer than ``steps`` and leaves.  A
    lower entry can only raise, by overflowing on its way out; when
    max |lower entry| times (prod max(1, |f|))^(steps - 1) is below 2**996,
    none can, and the kept entries fix the image and its errors.  Any
    other operator, or a step that fails the bound, keeps cut = 0.
    """
    cut = growth = 0
    if parts is not None:
        factors, p = parts
        growth = (steps - 1) * sum(
            math.log2(max(1.0, math.hypot(f.real, f.imag))) for f in factors
        )
        if growth < _GROUP_LOG2_LIMIT:
            cut = steps * p
    while True:
        groups: dict[frozenset, SeqVec] = {}
        low = 0.0
        for vec in vecs:
            kept = []
            for i, z in vec._entries.items():
                if i >= cut:
                    kept.append((i, z))
                else:
                    low = max(low, abs(z))
            groups.setdefault(frozenset(kept), vec)
        if not low or math.log2(low) + growth < _GROUP_LOG2_LIMIT:
            return list(groups.values())
        cut = 0  # a lower entry may overflow: group by every entry
