"""Orbit-criterion evidence on finite samples.

Three ingredients are checked against supplied sample vectors and a strictly
increasing exponent sequence: forward decay of the orbit, backward solvability
onto the samples with decaying preimages, and invariance of the coordinate
subspace under the checked powers.  Everything reported is about the samples
and exponents actually supplied; no density claim is manufactured from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import UnsupportedOperator
from .seqspace import (
    BackwardShift,
    ForwardShift,
    Operator,
    ScalarMultiple,
    SeqVec,
    apply_power,
    norm,
)
from .subspace import (
    ZeroPattern,
    dyadic_net,
    invariance_check,  # unused here, but perfbench's tracer wraps this binding
    invariance_scan,
    membership_defect,
)

__all__ = [
    "backsolve",
    "DecayRecord",
    "RecoveryRecord",
    "InvarianceRecord",
    "CriterionReport",
    "check_criterion",
    "transitivity_probe",
    "CRITERION_CSV_HEADER",
]


def _shift_scale(op: Operator) -> tuple[complex, int]:
    """Decompose ``op`` as lam * B^b or fail."""
    if isinstance(op, BackwardShift):
        return 1.0 + 0j, op.power
    if isinstance(op, ScalarMultiple) and isinstance(op.operand, BackwardShift):
        return op.factor, op.operand.power
    raise UnsupportedOperator(
        f"backsolve needs a (scaled) backward shift, got {type(op).__name__}"
    )


def backsolve(op: Operator, n: int, target: SeqVec) -> SeqVec:
    """The canonical preimage ``lam^-n S^(b n) target`` of ``target`` under ``op^n``.

    Defined for any nonzero scaling; whether the preimages decay is exactly
    what the criterion check observes, so no modulus gate is imposed here.
    """
    lam, b = _shift_scale(op)
    if lam == 0:
        raise UnsupportedOperator("scaling factor 0 has no right inverse")
    if n < 0:
        raise ValueError("power must be >= 0")
    if n == 0:
        return target
    return apply_power(ForwardShift(b), n, target) * lam ** (-n)


@dataclass(frozen=True)
class DecayRecord:
    sample: int
    final_norm: float
    first_zero_nk: int | None


@dataclass(frozen=True)
class RecoveryRecord:
    sample: int
    final_preimage_norm: float
    preimage_monotone: bool
    recovery_error: float
    norm_law_dev: float


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
    decay_ok: bool
    recovery_ok: bool
    invariance_ok: bool

    @property
    def passes(self) -> bool:
        return self.decay_ok and self.recovery_ok and self.invariance_ok

    def to_json_dict(self) -> dict:
        return {
            "nks": list(self.nks),
            "tol": self.tol,
            "condI": [
                {
                    "sampleIndex": d.sample,
                    "maxTailNorm": d.final_norm,
                    "firstZeroNk": d.first_zero_nk,
                }
                for d in self.decay
            ],
            "condII": [
                {
                    "sampleIndex": r.sample,
                    "xkNorm": r.final_preimage_norm,
                    "xkMonotone": r.preimage_monotone,
                    "recoveryError": r.recovery_error,
                    "normLawDev": r.norm_law_dev,
                }
                for r in self.recovery
            ],
            "condIII": [
                {"k": c.k, "n_k": c.n_k, "invariant": c.invariant}
                for c in self.invariance
            ],
            "verdict": {
                "condI": self.decay_ok,
                "condII": self.recovery_ok,
                "condIII": self.invariance_ok,
                "tol": self.tol,
            },
            "passed": self.passes,
        }


CRITERION_CSV_HEADER = ["condition", "index", "k", "n_k", "value", "pass"]


def criterion_csv_rows(report: CriterionReport) -> list[list]:
    rows = []
    k_last = len(report.nks) - 1
    for d in report.decay:
        rows.append(
            ["I", d.sample, k_last, report.nks[-1], d.final_norm, d.final_norm <= report.tol]
        )
    for r in report.recovery:
        ok = (
            r.recovery_error <= report.tol
            and r.final_preimage_norm <= report.tol
            and r.preimage_monotone
        )
        rows.append(["II", r.sample, k_last, report.nks[-1], r.recovery_error, ok])
    for c in report.invariance:
        rows.append(["III", c.k, c.k, c.n_k, float(c.invariant), c.invariant])
    return rows


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
    from the exact law ||x_k|| = ||y|| / |lam|^{n_k}.
    """
    nks = tuple(int(n) for n in nks)
    if not nks or nks[0] < 1 or any(b <= a for a, b in zip(nks, nks[1:])):
        raise ValueError("exponents must be strictly increasing and positive")
    for name, group in (("x", xs), ("y", ys)):
        for i, v in enumerate(group):
            if membership_defect(v, pattern) != 0.0:
                raise ValueError(f"{name}-sample {i} is not in the subspace")

    decay = []
    for i, x in enumerate(xs):
        first_zero = None
        final = 0.0
        image, reached = x, 0
        for n in nks:
            image = apply_power(op, n - reached, image)
            reached = n
            final = norm(image)
            if first_zero is None and not image:
                first_zero = n
        decay.append(DecayRecord(i, final, first_zero))
    decay_ok = all(d.final_norm <= tol for d in decay)

    lam_abs = None
    try:
        lam_abs = abs(_shift_scale(op)[0])
    except UnsupportedOperator:
        pass

    recovery = []
    for i, y in enumerate(ys):
        y_norm = norm(y)
        norms = []
        worst_recovery = 0.0
        worst_law = 0.0
        for n in nks:
            x_k = backsolve(op, n, y)
            norms.append(norm(x_k))
            worst_recovery = max(worst_recovery, norm(apply_power(op, n, x_k) - y))
            if lam_abs is not None and y_norm > 0.0:
                expected = y_norm * lam_abs ** (-n)
                worst_law = max(worst_law, abs(norms[-1] - expected) / y_norm)
        monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))
        recovery.append(RecoveryRecord(i, norms[-1], monotone, worst_recovery, worst_law))
    recovery_ok = all(
        r.recovery_error <= tol and r.final_preimage_norm <= tol and r.preimage_monotone
        for r in recovery
    )

    invariance = tuple(
        InvarianceRecord(k, n, invariant)
        for k, (n, invariant) in enumerate(zip(nks, invariance_scan(op, pattern, nks, dim)))
    )
    invariance_ok = all(c.invariant for c in invariance)

    return CriterionReport(
        nks=nks,
        tol=tol,
        decay=tuple(decay),
        recovery=tuple(recovery),
        invariance=invariance,
        decay_ok=decay_ok,
        recovery_ok=recovery_ok,
        invariance_ok=invariance_ok,
    )


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
    """
    if u_radius <= 0 or v_radius <= 0:
        raise ValueError("ball radii must be positive")
    if membership_defect(u_center, pattern) != 0.0 or membership_defect(v_center, pattern) != 0.0:
        raise ValueError("ball centers must lie in the subspace")

    grid = [t * v_radius for t in dyadic_net(pattern, grid_support, grid_level)]

    backsolvable = True
    try:
        _shift_scale(op)
    except UnsupportedOperator:
        backsolvable = False

    v_image, v_reached = v_center, 0
    for n, invariant in enumerate(invariance_scan(op, pattern, range(horizon + 1), dim)):
        if not invariant:
            continue
        candidates = [v_center + g for g in grid]
        if backsolvable and n >= 1:
            v_image = apply_power(op, n - v_reached, v_image)
            v_reached = n
            residual = u_center - v_image
            candidates.append(v_center + backsolve(op, n, residual))
        for w in candidates:
            if membership_defect(w, pattern) != 0.0:
                continue
            if norm(w - v_center) >= v_radius:
                continue
            image = apply_power(op, n, w)
            if membership_defect(image, pattern) != 0.0:
                continue
            if norm(image - u_center) < u_radius:
                return n
    return None
