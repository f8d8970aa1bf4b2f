"""Command-line surface.

Subcommands: el, theta, caratheodory, fundamental, check
{trivial|order|lepage|closed|equivalent}, d, hor, contact <k>, eval,
calibrate.  Exit code 0 on success or a passing check, 1 on a failing
check (the witness is printed), 2 on usage or parse errors.  Output is
deterministic for fixed flags and seed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .charts import ChartContext, ChartError, var_key
from .expr import (DEFAULT_POLICY, EvalDomainError, ExprError, SamplingFailure, Var, ZeroPolicy,
                   eval_numeric, variables)
from .forms import ExteriorForm, FormError, contact_component, exterior_derivative, horizontalization
from .jets import Convention
from .parsing import ExprSyntaxError, LagrangianSpec, OrderMismatchError, parse_expression, parse_lagrangian
from .serialize import (
    expr_to_latex,
    expr_to_text,
    form_to_json,
    form_to_latex,
    form_to_text,
    variable_name,
)
from .variational import (
    Lagrangian,
    OrderReducibilityError,
    UndefinedFormError,
    caratheodory_first,
    caratheodory_second,
    euler_lagrange_expressions,
    fundamental_first_order,
    fundamental_second_order_n2,
    lagrangian_form,
    principal_lepage,
)
from .verification import (
    CalibrationError,
    PreconditionError,
    calibrate_convention,
    closure_check,
    is_lepage_equivalent,
    is_lepage_form,
    is_trivial,
    order_reducible,
)

_FORM_CHOICES = ("lagrangian", "theta", "caratheodory", "fundamental")


def _add_common(p: argparse.ArgumentParser, default_form: str | None = None) -> None:
    p.add_argument("--n", type=int, default=2, help="base dimension")
    p.add_argument("--m", type=int, default=1, help="fiber dimension")
    p.add_argument("--order", type=int, default=1, help="declared Lagrangian order")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lagrangian", help="Lagrange function source string")
    group.add_argument("--file", help="UTF-8 file containing one expression")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.add_argument(
        "--convention",
        choices=("plain", "sym", "auto"),
        default="sym",
        help="free-index derivative convention (auto calibrates where one is used)",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_POLICY.seed)
    p.add_argument("--samples", type=int, default=DEFAULT_POLICY.samples)
    p.add_argument("--tol", type=float, default=DEFAULT_POLICY.abs_tol,
                   help="absolute zero tolerance")
    if default_form is not None:
        p.add_argument(
            "--form",
            choices=_FORM_CHOICES,
            default=default_form,
            help="which constructed form the command applies to",
        )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lepage",
        description="Lepage equivalents and variational checks for jet-bundle Lagrangians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("el", help="Euler-Lagrange expressions"))
    _add_common(sub.add_parser("theta", help="principal Lepage equivalent"))
    _add_common(sub.add_parser("caratheodory", help="Caratheodory form"))
    _add_common(sub.add_parser("fundamental", help="fundamental Lepage form"))

    check = sub.add_parser("check", help="run a verification check")
    check.add_argument("what", choices=("trivial", "order", "lepage", "closed", "equivalent"))
    _add_common(check, default_form="theta")

    _add_common(sub.add_parser("d", help="exterior derivative of a form"), default_form="lagrangian")
    _add_common(sub.add_parser("hor", help="horizontal part of a form"), default_form="lagrangian")
    contact = sub.add_parser("contact", help="k-contact component of a form")
    contact.add_argument("k", type=int)
    _add_common(contact, default_form="lagrangian")

    ev = sub.add_parser("eval", help="evaluate the Lagrange function at a point")
    _add_common(ev)
    ev.add_argument("--point", required=True, help="comma-separated assignments, e.g. y_1=2,x1=0")

    _add_common(sub.add_parser("calibrate", help="calibrate the derivative-index convention"))
    return parser


def _policy(args) -> ZeroPolicy:
    return ZeroPolicy(samples=args.samples, abs_tol=args.tol, seed=args.seed)


def _convention(args, policy: ZeroPolicy) -> Convention:
    if args.convention == "auto":
        report = calibrate_convention(policy=policy)
        if report.winner is None:
            raise CalibrationError("calibration is ambiguous:\n" + report.render())
        print(report.render())
        return report.winner[0]
    return Convention(args.convention)


def _source(args) -> str:
    if args.lagrangian is not None:
        return args.lagrangian
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as handle:
                return handle.read().strip()
        except UnicodeDecodeError as err:
            reason = f"{err.reason} at byte {err.start}"
            raise _UsageError(f"{args.file} is not UTF-8 text: {reason}") from None
    raise _UsageError("one of --lagrangian or --file is required")


class _UsageError(ValueError):
    pass


def _load_lagrangian(args) -> Lagrangian:
    return parse_lagrangian(LagrangianSpec(args.n, args.m, args.order, _source(args)))


def _build_form(name: str, lam: Lagrangian, args, policy: ZeroPolicy) -> ExteriorForm:
    if name == "lagrangian":
        return lagrangian_form(lam)
    if lam.r <= 1 and name == "caratheodory":
        return caratheodory_first(lam, policy)
    if lam.r <= 1 and name == "fundamental":
        return fundamental_first_order(lam)
    convention = _convention(args, policy)
    if name == "theta":
        return principal_lepage(lam, convention)
    if name == "caratheodory":
        return caratheodory_second(lam, convention, policy)
    z, _ = fundamental_second_order_n2(lam, convention, policy=policy)
    return z


def _emit_form(form: ExteriorForm, args) -> None:
    if args.format == "json":
        print(form_to_json(form))
    elif args.format == "latex":
        print(form_to_latex(form, args.m))
    else:
        print(form_to_text(form, args.m))


def _parse_point(text: str, ctx: ChartContext) -> dict:
    point = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        if not value:
            raise _UsageError(f"malformed assignment {item!r}")
        var = parse_expression(name.strip(), ctx)
        if not isinstance(var, Var):
            raise _UsageError(f"left side of {item!r} is not a coordinate")
        try:
            number = float(value)
        except ValueError:
            raise _UsageError(f"right side of {item!r} is not a number") from None
        if not math.isfinite(number):
            raise _UsageError(f"right side of {item!r} is not a finite number")
        if var.ref in point:
            raise _UsageError(f"{variable_name(var.ref, ctx.m)} is assigned twice")
        point[var.ref] = number
    return point


def _run(args) -> int:
    policy = _policy(args)
    if args.command == "calibrate":
        report = calibrate_convention(policy=policy)
        print(report.render())
        return 0 if report.unique else 1
    lam = _load_lagrangian(args)

    if args.command == "el":
        expressions = euler_lagrange_expressions(lam)
        if args.format == "json":
            doc = {
                "schema": "lepage.el/1",
                "chart": {"n": args.n, "m": args.m, "order": lam.r},
                "expressions": [expr_to_text(e) for e in expressions],
            }
            print(json.dumps(doc, indent=2))
        else:
            render = expr_to_latex if args.format == "latex" else expr_to_text
            for sigma, e in enumerate(expressions, start=1):
                print(f"E_{sigma} = {render(e, args.m)}")
        return 0

    if args.command in ("theta", "caratheodory", "fundamental"):
        _emit_form(_build_form(args.command, lam, args, policy), args)
        return 0

    if args.command == "d":
        _emit_form(exterior_derivative(_build_form(args.form, lam, args, policy)), args)
        return 0
    if args.command == "hor":
        _emit_form(horizontalization(_build_form(args.form, lam, args, policy)), args)
        return 0
    if args.command == "contact":
        _emit_form(contact_component(_build_form(args.form, lam, args, policy), args.k), args)
        return 0

    if args.command == "eval":
        point = _parse_point(args.point, lam.ctx)
        missing = sorted(variables(lam.L) - point.keys(), key=var_key)
        if missing:
            raise _UsageError(f"no assignment for {variable_name(missing[0], args.m)}")
        print(repr(eval_numeric(lam.L, point)))
        return 0

    if args.command == "check":
        if args.what == "trivial":
            report = is_trivial(lam, policy)
        elif args.what == "order":
            report = order_reducible(lam, _convention(args, policy), policy)
        elif args.what == "lepage":
            report = is_lepage_form(_build_form(args.form, lam, args, policy), policy)
        elif args.what == "closed":
            report = closure_check(_build_form(args.form, lam, args, policy), policy)
        else:
            report = is_lepage_equivalent(_build_form(args.form, lam, args, policy), lam, policy)
        print(report.describe(args.m))
        return 0 if report.passed else 1

    raise _UsageError(f"unknown command {args.command!r}")


def run_command(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return _run(args)
    except OrderReducibilityError as err:
        print(f"refused: {err.report.describe(args.m)}", file=sys.stderr)
        return 1
    except CalibrationError as err:
        print(str(err), file=sys.stderr)
        return 1
    except (ExprSyntaxError, OrderMismatchError, ChartError, FormError,
            UndefinedFormError, PreconditionError, _UsageError, ExprError,
            SamplingFailure, OSError) as err:
        if isinstance(err, EvalDomainError):
            err = f"{err.reason}: {expr_to_text(err.offender, args.m)}"
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    # a reader that closes the pipe early (``| head``) ends the process
    # quietly, as it ends other filters; signal is imported here, where
    # only a process entry point pays for it
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
