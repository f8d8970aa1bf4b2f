"""The three benchmark workloads: their inputs, one item each, and the judge.

An *item* is one CLI command (``cli-session``), one corpus Lagrangian
(``acceptance-corpus``) or one ladder rung (``wide-chart``).  The parent
process builds item descriptions (plain JSON data) from the seed; a fresh
interpreter prepares them (parses the source text) and runs them; the
parent judges each item's output against known answers.

Importing this module does not import ``lepage``: the sample process does
that itself, inside the timed set-up.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("cli-session", "acceptance-corpus", "wide-chart")

# ---------------------------------------------------------------------------
# cli-session: the README command list, plus one known-answer item
# ---------------------------------------------------------------------------

_CH = "1/2*(y_1*y_2^2 + y_12^2/y_1)"
_DIRICHLET = "1/2*(y_1^2+y_2^2)"
_HESSIAN = "y_11*y_22 - y_12^2"
_NULL_M2 = "y1_1*y2_2 - y1_2*y2_1"

CLI_COMMANDS: list[tuple[str, list[str]]] = [
    ("el", ["el", "--n", "2", "--m", "1", "--order", "1", "--lagrangian", _DIRICHLET]),
    ("theta-latex", ["theta", "--order", "2", "--lagrangian", "y_2*y_12", "--format", "latex"]),
    ("caratheodory", ["caratheodory", "--order", "2", "--lagrangian", _CH]),
    ("fundamental-json", ["fundamental", "--n", "2", "--m", "2", "--order", "1",
                          "--lagrangian", _NULL_M2, "--format", "json"]),
    ("check-trivial", ["check", "trivial", "--order", "2", "--lagrangian", _HESSIAN]),
    ("check-order", ["check", "order", "--order", "2", "--lagrangian", _CH]),
    ("check-lepage", ["check", "lepage", "--order", "2", "--lagrangian", _CH]),
    ("check-closed", ["check", "closed", "--order", "2", "--lagrangian", _HESSIAN,
                      "--form", "fundamental"]),
    ("check-equivalent", ["check", "equivalent", "--order", "2", "--lagrangian", _CH,
                          "--form", "caratheodory"]),
    ("d", ["d", "--order", "2", "--lagrangian", "y_2*y_12", "--form", "theta"]),
    ("hor", ["hor", "--order", "1", "--lagrangian", _DIRICHLET, "--form", "caratheodory"]),
    ("contact", ["contact", "2", "--n", "2", "--m", "2", "--order", "1",
                 "--lagrangian", _NULL_M2, "--form", "fundamental"]),
    ("eval", ["eval", "--order", "2", "--lagrangian", _CH, "--point", "y_1=1,y_2=2,y_12=3"]),
    ("calibrate", ["calibrate"]),
    ("check-trivial-tiny", ["check", "trivial", "--order", "1",
                            "--lagrangian", "0.000000000001*y_1^2"]),
]

# Items judged by their mathematically correct exit code alone.  The
# Lagrangian 1e-12*y_1^2 is not trivial (E = -2e-12*y_11), so the check
# must fail with exit code 1; the sampled zero test calls it zero instead.
KNOWN_ANSWERS = {"check-trivial-tiny": 1}


def cli_items(seed: int) -> list[dict]:
    golden = json.loads((GOLDEN / "cli_session.json").read_text(encoding="utf-8"))
    items = []
    for item_id, argv in CLI_COMMANDS:
        item = {"id": item_id, "argv": argv}
        if item_id in KNOWN_ANSWERS:
            item["expect"] = {"exit": KNOWN_ANSWERS[item_id]}
        else:
            item["expect"] = golden[item_id]
        items.append(item)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# acceptance-corpus: acceptance criteria 1 and 5, one item per member
# ---------------------------------------------------------------------------


def corpus_items(seed: int) -> list[dict]:
    members = json.loads((GOLDEN / "acceptance_corpus.json").read_text(encoding="utf-8"))
    items = [dict(member, expect=_corpus_expectation(member)) for member in members]
    random.Random(seed).shuffle(items)
    return items


def _corpus_expectation(member: dict) -> dict:
    """Every contract check passes; the condition families agree with the verdicts."""
    if member["order"] == 1:
        return {"contract": [True, True, True]}
    trivial, reducible = member["trivial"], member["reducible"]
    return {
        "contract": [True] * (3 if reducible else 2),
        "trivial": trivial,
        "conditions": trivial,
        "reducible": reducible,
        "combination": trivial if reducible else None,
        "crosscheck": True,
    }


# ---------------------------------------------------------------------------
# wide-chart: the ladder n in {2,3,4}, m in {1,2}, r in {1,2}
# ---------------------------------------------------------------------------

DEFAULT_SEED = 1
LADDER = [(n, m, r) for r in (1, 2) for n in (2, 3, 4) for m in (1, 2)]
_COEFFS = ("-3", "-2", "-1", "1", "2", "3")

# is_lepage_equivalent runs on three n = 2 rungs.  On (2,1,2) the
# Caratheodory check takes about 5 s on a 2-CPU Xeon with Python 3.11 and
# spends about 95% of it in rational-function arithmetic; on (2,2,2) it is
# as long, and is left out so that a run holds several passes.  The other
# rungs check only h(rho) = lambda: on n >= 3 their Lepage checks either
# exceed a run (r = 2: 40 s and more) or spend about half their time in diff
# calls that repeat earlier ones (r = 1), which a memo of partials removes.
CHECKED = {(2, 1, 1), (2, 2, 1), (2, 1, 2)}


def rung_id(n: int, m: int, r: int) -> str:
    return f"n{n}m{m}r{r}"


def wide_chart_source(seed: int, n: int, m: int, r: int) -> str:
    """L = 1 + a*y^1_1*y^m_{top} + b*x1*y^1 + c*(y^1_2)^2 with seeded integer a, b, c.

    The monomial shape is fixed per rung and only the coefficients vary with
    the seed: relabelling indices changes the kernel's term orderings, and
    with them the cost of a rung by up to 2.5x.  The constant keeps L
    nonvanishing, as the Caratheodory form requires; the square makes the
    rational functions of the second-order checks large.
    """
    rng = random.Random(f"wide-chart/{seed}/{n}/{m}/{r}")
    a, b, c = (rng.choice(_COEFFS) for _ in range(3))
    top = f"y{m}_1{n}" if r == 2 else f"y{m}_{n}"
    return f"1 + {a}*y1_1*{top} + {b}*x1*y1 + {c}*y1_2^2"


def wide_chart_constructors(n: int, r: int) -> list[str]:
    if r == 1:
        return ["principal_lepage", "caratheodory_first", "fundamental_first_order"]
    return ["principal_lepage", "caratheodory_second"] + (
        ["fundamental_second_order_n2"] if n == 2 else []
    )


def wide_chart_items(seed: int) -> list[dict]:
    path = GOLDEN / "wide_chart.json"
    digests = json.loads(path.read_text(encoding="utf-8")).get(str(seed), {}) if path.exists() else {}
    items = []
    for n, m, r in LADDER:
        rid = rung_id(n, m, r)
        forms = wide_chart_constructors(n, r)
        check = "lepage-equivalent" if (n, m, r) in CHECKED else "horizontal"
        expect = {"forms": forms, "check": check, "checks": [True] * len(forms)}
        if rid in digests:
            expect["digest"] = digests[rid]
        items.append({
            "id": rid, "n": n, "m": m, "order": r,
            "source": wide_chart_source(seed, n, m, r), "check": check, "expect": expect,
        })
    return items


def make_items(workload: str, seed: int) -> list[dict]:
    if workload == "cli-session":
        return cli_items(seed)
    if workload == "acceptance-corpus":
        return corpus_items(seed)
    return wide_chart_items(seed)


# ---------------------------------------------------------------------------
# sample-process side: prepare (set-up) and run one item
# ---------------------------------------------------------------------------


def prepare(workload: str, item: dict):
    """Build the item's program input from its source text (timed as set-up)."""
    if workload == "cli-session":
        return item["argv"]
    import lepage

    return lepage.parse_lagrangian(
        lepage.LagrangianSpec(item["n"], item["m"], item["order"], item["source"])
    )


def run_item(workload: str, item: dict, prepared) -> dict:
    if workload == "cli-session":
        return _run_cli_in_process(prepared)
    if workload == "acceptance-corpus":
        return _run_corpus_member(prepared)
    return run_rung(prepared, item["check"])


def _run_cli_in_process(argv: list[str]) -> dict:
    import contextlib
    import io

    import lepage.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lepage.cli.run_command(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def _contract(rho, lam, policy) -> bool:
    """Acceptance criterion 1: h(rho) = lambda, Lepage property, p1(d rho) = E."""
    import lepage as lp

    if not lp.is_lepage_equivalent(rho, lam, policy).passed:
        return False
    p1 = lp.contact_component(lp.exterior_derivative(rho), 1)
    el = lp.euler_lagrange_form(lam)
    order = max(p1.order, el.order)
    return lp.forms_equal(p1.at_order(order), el.at_order(order), policy)


def _run_corpus_member(lam) -> dict:
    import lepage as lp

    policy = lp.ZeroPolicy()
    if lam.r == 1:
        forms = [lp.principal_lepage(lam), lp.caratheodory_first(lam, policy),
                 lp.fundamental_first_order(lam)]
        return {"contract": [_contract(rho, lam, policy) for rho in forms]}
    forms = [lp.principal_lepage(lam), lp.caratheodory_second(lam, policy=policy)]
    reducible = lp.order_reducible(lam, policy=policy).passed
    if reducible:
        forms.append(lp.fundamental_second_order_n2(lam, policy=policy)[0])
    return {
        "contract": [_contract(rho, lam, policy) for rho in forms],
        "trivial": lp.is_trivial(lam, policy).passed,
        "conditions": lp.trivial_conditions_second_order(lam, policy=policy).passed,
        "reducible": reducible,
        "combination": lp.combination_conditions(lam, policy=policy).passed if reducible else None,
        "crosscheck": lp.el_expansion_crosscheck(lam, policy=policy).passed,
    }


def build_rung(lam) -> dict:
    """Every applicable form of the rung, by constructor name."""
    import lepage as lp

    forms = {}
    for name in wide_chart_constructors(lam.ctx.n, lam.r):
        built = getattr(lp, name)(lam)
        # the second-order fundamental form comes with its coefficients
        forms[name] = built[0] if name == "fundamental_second_order_n2" else built
    return forms


def forms_digest(forms: dict) -> str:
    import lepage as lp

    digest = hashlib.sha256()
    for form in forms.values():
        digest.update(lp.form_to_json(form).encode())
    return digest.hexdigest()[:16]


def run_rung(lam, check: str) -> dict:
    """Build every applicable form, digest its JSON and check it.

    ``check`` is ``"lepage-equivalent"`` (the full contract) or
    ``"horizontal"`` (only h(rho) = lambda).
    """
    import lepage as lp

    forms = build_rung(lam)
    digest = forms_digest(forms)
    if check == "lepage-equivalent":
        checks = [lp.is_lepage_equivalent(f, lam).passed for f in forms.values()]
    else:
        lam_form = lp.lagrangian_form(lam)
        checks = [lp.forms_equal(lp.horizontalization(f), lam_form.at_order(f.order))
                  for f in forms.values()]
    return {"forms": list(forms), "check": check, "checks": checks, "digest": digest}


# ---------------------------------------------------------------------------
# judging (parent side)
# ---------------------------------------------------------------------------


def judge(item: dict, output: dict | None) -> str | None:
    """``None`` when the output is right, else a one-line reason."""
    if output is None:
        return "no output (timed out or crashed)"
    if "error" in output:
        return f"raised {output['error']}"
    for key, want in item["expect"].items():
        got = output.get(key)
        if got != want:
            return f"{key}: expected {_short(want)}, got {_short(got)}"
    return None


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
