"""Command-line front end.

Subcommands: parse, check, valid, sat, translate, prove, suite.

Exit codes are a stable contract: 0 for success, 1 for a false verdict of
check or a failed expectation of prove / suite, 2 for usage, parse or
validation errors.  valid and sat exit 0 whichever verdict they print.
"""

from __future__ import annotations

import argparse
import json
import sys

from .modelsearch import (
    Countermodel, SearchBounds, Witness, find_countermodel, find_witness,
)
from .semantics import (
    EvalError, ModelError, eval_formula, model_from_dict, pointed_to_dict, read_model_file,
)
from .syntax import (
    ArityError, ParseError, Var, free_vars, parse_formula, parse_term, print_formula,
)

# proofkit, suites and translation are imported by the commands that use
# them, so that parse, check, valid and sat start without them.  The names
# of suites.SUITES, for the parser:
SUITE_NAMES = ("corpus", "prop24", "soundness", "validity-table")
USAGE_ERROR = 2


def _read_sigma(pairs, source: str, error: type) -> dict:
    """sigma from (key, agent) pairs, each key a variable with or without
    its "?"; error(message) if a key is not a variable or binds one twice."""
    sigma = {}
    for key, agent in pairs:
        var = key[1:] if key.startswith("?") else key
        try:
            is_var = parse_term("?" + var) == Var(var)
        except ParseError:
            is_var = False
        if not is_var:
            raise error(f"{source} key {key!r} is not a variable")
        if var in sigma:
            raise error(f"{source} binds ?{var} twice")
        sigma[var] = agent
    return sigma


def _parse_sigma(text: str) -> dict:
    """--sigma "?x=i,?y=j" -> {"x": "i", "y": "j"}."""
    pairs = []
    for item in text.split(",") if text else ():
        var, sep, agent = item.partition("=")
        if not sep or not agent.strip():
            raise ValueError(f"malformed sigma entry {item!r}")
        pairs.append((var.strip(), agent.strip()))
    return _read_sigma(pairs, "--sigma", ValueError)


def _bounds(args) -> SearchBounds:
    if args.any_frames and args.epistemic:
        raise ValueError("--any-frames and --epistemic are mutually exclusive")
    bounds = SearchBounds(args.worlds, args.agents, not args.any_frames)
    # --jobs is kept so that scripts passing it still run; it selects nothing.
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {args.jobs}")
    if args.jobs > 1:
        print(f"note: --jobs {args.jobs} is ignored; searches run in the "
              "calling process", file=sys.stderr)
    return bounds


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_parse(args) -> int:
    phi = parse_formula(args.formula)
    fv = sorted(free_vars(phi))
    pretty = print_formula(phi)
    payload = {"formula": pretty, "ast": repr(phi),
               "free": ["?" + v for v in fv]}
    text = pretty + "\nfree: {" + ", ".join("?" + v for v in fv) + "}"
    _emit(args, payload, text)
    return 0


def cmd_check(args) -> int:
    data = read_model_file(args.model)
    model = model_from_dict(data)
    world = args.world if args.world is not None else data.get("world")
    if world is None:
        raise ValueError("no world given (use --world or a 'world' key in the file)")
    raw = data.get("sigma", {})
    if not isinstance(raw, dict):
        raise ModelError("sigma in the model file must be an object")
    sigma = _read_sigma(raw.items(), "sigma in the model file", ModelError)
    sigma.update(_parse_sigma(args.sigma or ""))
    phi = parse_formula(args.formula, signature=model.signature)
    value = eval_formula(model, world, sigma, phi)
    _emit(args, {"world": world, "sigma": sigma, "value": value},
          "true" if value else "false")
    return 0 if value else 1


# command -> (help, search, hit type, hit verdict, negative verdict, its text)
_SEARCHES = {
    "valid": ("bounded countermodel search", find_countermodel, Countermodel,
              "countermodel", "no-countermodel-up-to", "no countermodel"),
    "sat": ("bounded witness search", find_witness, Witness,
            "witness", "unsatisfiable-up-to", "unsatisfiable"),
}


def cmd_search(args) -> int:
    _, search, hit, found, negative, none_found = _SEARCHES[args.command]
    phi = parse_formula(args.formula)
    verdict = search(phi, _bounds(args))
    if isinstance(verdict, hit):
        payload = {"verdict": found, found: pointed_to_dict(verdict.pointed)}
        text = (f"{found} found:\n"
                + json.dumps(payload[found], indent=2, sort_keys=True))
    else:
        payload = {"verdict": negative,
                   "bounds": {"worlds": args.worlds, "agents": args.agents,
                              "epistemic": not args.any_frames}}
        text = (f"{none_found} up to {args.worlds} worlds / "
                f"{args.agents} agents"
                + ("" if args.any_frames else " (epistemic frames)"))
    _emit(args, payload, text)
    return 0


def cmd_translate(args) -> int:
    from .translation import print_fol, translate, translate_universal
    phi = parse_formula(args.formula)
    tr = translate_universal if args.form == "forall" else translate
    rendered = print_fol(tr(phi, args.world_var))
    _emit(args, {"fol": rendered, "form": args.form}, rendered)
    return 0


def cmd_prove(args) -> int:
    from .proofkit import check_proof, load_script
    script = load_script(args.script)
    report = check_proof(script)
    lines = []
    for verdict in report.steps:
        mark = "ok" if verdict.ok else f"FAIL: {verdict.message}"
        lines.append(f"step {verdict.index}: {mark}")
    lines.append("goal: " + print_formula(script.goal))
    lines.append("result: " + ("accepted" if report.ok else f"rejected ({report.message})"))
    payload = {"ok": report.ok, "message": report.message,
               "steps": [{"index": v.index, "ok": v.ok, "message": v.message}
                         for v in report.steps]}
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_suite(args) -> int:
    from .suites import SUITES
    runner = SUITES[args.name]
    bounds = _bounds(args)      # flags are checked even where the suite ignores them
    if args.trials < 0:
        raise ValueError(f"trials must be at least 0, not {args.trials}")
    if args.max_size < 1:
        raise ValueError(f"max_size must be at least 1, not {args.max_size}")
    kwargs = {}
    if args.name == "validity-table":
        kwargs = {"bounds": bounds, "trials": args.trials, "seed": args.seed}
    elif args.name == "prop24":
        kwargs = {"max_size": args.max_size}
    elif args.name == "soundness":
        kwargs = {"trials": args.trials, "seed": args.seed}
    elif args.name == "corpus":
        kwargs = {"bounds": bounds}
    report = runner(**kwargs)
    _emit(args, report, _summarise_suite(report))
    return 0 if report["ok"] else 1


def _summarise_suite(report: dict) -> str:
    lines = [f"suite: {report['suite']}"]
    if report["suite"] == "validity-table":
        for entry in report["entries"]:
            status = "ok" if entry["ok"] else "FAIL"
            lines.append(f"  [{status}] row {entry['row']} {entry['expectation']:8s} {entry['id']}")
        lines.append(f"  {report['valid_entries']} valid + "
                     f"{report['invalid_entries']} invalid entries")
    elif report["suite"] == "prop24":
        lines.append(f"  separating formula true at m1: {report['value_at_m1']}, "
                     f"at m2: {report['value_at_m2']}")
        lines.append(f"  binder-free distinguisher up to {report['max_size']} nodes: "
                     f"{report['el_distinguisher']}")
        lines.append(f"  with binders: {report['elas_distinguisher']}")
    elif report["suite"] == "soundness":
        lines.append(f"  trials: {report['trials']}, violations: "
                     f"{len(report['violations'])}, match failures: "
                     f"{len(report['match_failures'])}")
        lines.append(f"  non-equivalence-frame failures exhibited for the "
                     f"name-indexed introspection shapes: "
                     f"{sorted(report['name_introspection_failures'])}")
    elif report["suite"] == "corpus":
        for record in report["witnesses"]:
            status = "ok" if record["ok"] else "FAIL"
            lines.append(f"  [{status}] witness for {record['label']}")
        pairs = f"{report['pairs_separated']}/{len(report['reading_pairs'])}"
        lines.append(f"  reading pairs separated: {pairs}")
    lines.append("result: " + ("all expectations met" if report["ok"]
                               else "EXPECTATIONS FAILED"))
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One `error:` line and exit 2, without the usage block."""
        self.exit(USAGE_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elas",
        description="Parse, model-check, translate, search and proof-check "
                    "formulas of an epistemic logic with assignment "
                    "operators and non-rigid names.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    def add_bounds(p):
        p.add_argument("--worlds", type=int, default=3)
        p.add_argument("--agents", type=int, default=3)
        p.add_argument("--any-frames", action="store_true",
                       help="search arbitrary frames instead of epistemic ones")
        p.add_argument("--epistemic", action="store_true",
                       help="restrict to epistemic frames (the default)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored; searches run in the "
                            "calling process")

    p = sub.add_parser("parse", help="parse a formula, print it and its free variables")
    p.add_argument("formula")
    add_json(p)
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("check", help="evaluate a formula at a pointed model")
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("formula")
    p.add_argument("--world", help="world to evaluate at")
    p.add_argument("--sigma", help='variable assignment, e.g. "?x=i,?y=j"')
    add_json(p)
    p.set_defaults(run=cmd_check)

    for command, (help_text, *_) in _SEARCHES.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("formula")
        add_bounds(p)
        add_json(p)
        p.set_defaults(run=cmd_search)

    p = sub.add_parser("translate", help="standard translation to two-sorted "
                                         "first-order logic")
    p.add_argument("formula")
    p.add_argument("--form", choices=("exists", "forall"), default="exists",
                   help="assignment clause: existential or universal")
    p.add_argument("--world-var", default="w")
    add_json(p)
    p.set_defaults(run=cmd_translate)

    p = sub.add_parser("prove", help="check a proof script")
    p.add_argument("script", help="script file (.selas)")
    add_json(p)
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("suite", help="run a built-in reproduction suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-size", type=int, default=9)
    add_bounds(p)
    add_json(p)
    p.set_defaults(run=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except Exception as exc:
        from .proofkit import ScriptError
        if not isinstance(exc, (ParseError, ArityError, ScriptError, ModelError,
                                EvalError, ValueError, OSError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
