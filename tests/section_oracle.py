"""The finite-difference random-section oracle for the formal derivative.

A test helper, not a test module (pytest collects ``test_*.py`` only): it
cross-checks d_i f along prolonged polynomial sections against Richardson-
extrapolated central differences.  It evaluates through the kernel's
sampling evaluator, ``lepage.expr._rf_eval``, with a pole guard of its own.
"""
import itertools
import random
from fractions import Fraction
from typing import Mapping

from lepage import (
    BaseVar,
    ChartContext,
    CheckReport,
    EvalDomainError,
    FiberVar,
    JetVariable,
    Rat,
    ScalarExpr,
    X,
    canonicalize,
    diff,
    substitute,
    total_derivative,
)
from lepage.expr import ZERO, _rf_eval, _rf_scales, _SampleRejected, _to_rf


def eval_pole_guarded(e: ScalarExpr, point: Mapping[JetVariable, float], guard: float) -> float:
    """Evaluate via the canonical form, rejecting points where any denominator
    magnitude falls below the guard (raises EvalDomainError)."""
    try:
        rf = _to_rf(e)
        value, _ = _rf_eval(rf, _rf_scales(rf), point, guard)
    except _SampleRejected:
        raise EvalDomainError(f"denominator within {guard} of a pole", e) from None
    return value


def _random_section_polynomial(ctx: ChartContext, rng: random.Random, degree: int = 4) -> ScalarExpr:
    total = ZERO
    for exponents in itertools.product(range(degree + 1), repeat=ctx.n):
        if sum(exponents) > degree:
            continue
        term = Rat(Fraction(rng.randint(-16, 16), 16))
        for i, e in enumerate(exponents, start=1):
            if e:
                term = term * (X(i) if e == 1 else X(i) ** e)
        total = total + term
    return total


def prolongation_bindings(
    gamma: list[ScalarExpr], ctx: ChartContext, order: int
) -> dict:
    """Jet coordinates of the prolonged section: y^s_J -> D_J gamma^s."""
    bindings: dict = {}
    for sigma, component in enumerate(gamma, start=1):
        for k in range(order + 1):
            for jj in ctx.multi_indices(k):
                value = component
                for j in jj:
                    value = diff(value, BaseVar(j))
                bindings[FiberVar(sigma, jj)] = value
    return bindings


def _central_difference(f: ScalarExpr, point: dict, x: BaseVar, h: float, guard: float) -> float:
    up = dict(point)
    up[x] += h
    down = dict(point)
    down[x] -= h
    return (eval_pole_guarded(f, up, guard) - eval_pole_guarded(f, down, guard)) / (2 * h)


# the oracle's seed, finite-difference step h and guard distance from a pole
_ORACLE_SEED, _ORACLE_STEP, _ORACLE_POLE_GUARD = 0, 1e-4, 0.3


def random_section_oracle(
    f: ScalarExpr,
    ctx: ChartContext,
    trials: int = 10,
    points: int = 10,
    tol: float = 1e-5,
) -> CheckReport:
    """Compare d_i f along prolonged polynomial sections with finite differences.

    The reference is the Richardson-extrapolated central difference
    (4 D(h/2) - D(h)) / 3, with D(h) the central difference of step h.

    Sample points where a denominator of the pulled-back function comes
    within the guard of a pole are resampled (at most 10 times per point).
    """
    rng = random.Random(_ORACLE_SEED)
    worst = 0.0
    for _ in range(trials):
        gamma = [_random_section_polynomial(ctx, rng) for _ in ctx.fiber_indices]
        bindings = prolongation_bindings(gamma, ctx, ctx.max_order + 1)
        pulled = substitute(f, bindings)
        for i in ctx.base_indices:
            derived = substitute(total_derivative(f, i, ctx), bindings)
            for _ in range(points):
                for _ in range(10):
                    point = {BaseVar(j): rng.uniform(-1.0, 1.0) for j in ctx.base_indices}
                    try:
                        center = eval_pole_guarded(derived, point, _ORACLE_POLE_GUARD)
                        wide, narrow = (
                            _central_difference(pulled, point, BaseVar(i), h, _ORACLE_POLE_GUARD)
                            for h in (_ORACLE_STEP, _ORACLE_STEP / 2)
                        )
                        # Richardson extrapolation cancels the O(h^2) error term
                        fd = (4 * narrow - wide) / 3
                    except EvalDomainError:
                        continue
                    break
                else:
                    return CheckReport(
                        False,
                        "section-oracle",
                        witness=canonicalize(f),
                        message="sampling failure: poles at every trial point",
                    )
                # tolerance is relative to the local derivative scale
                scale = max(1.0, abs(center), abs(fd))
                gap = abs(fd - center) / scale
                worst = max(worst, gap)
                if gap >= tol:
                    return CheckReport(
                        False,
                        "section-oracle",
                        witness=canonicalize(f),
                        witness_point=point,
                        message=f"finite-difference gap {gap:.3e} at direction {i}",
                    )
    return CheckReport(True, "section-oracle", message=f"max gap {worst:.3e}")
