"""Command-line interface.

    growthlab gap       --group free:2 --subgroup sub.txt --g0 ab --rmax 12
    growthlab quotient  --group free:2 --subgroup sub.txt --rmax 14
    growthlab amalgam   --group free:2 --subgroup sub.txt --g0 b -M 1 --syllables 6
    growthlab audit     --group free:2 --axis ab --rmax 5
    growthlab buffering --chain chain.json
    growthlab closure   --group free:2 --g0 ab --radius 6
    growthlab selector  --group free:2 --subgroup sub.txt --g0 b --rmax 5

Subgroup files carry one generator word per line (``a b A`` style, upper
case = inverse).  A chain spec is JSON:
{"group": "free:2", "subgroup": ["a"], "g": "b",
 "word": [["h","a"],["k","bbb"]], "radius": 2}.
--config loads any of the flags from a JSON file; explicit flags win.

Exit codes: 0 pass/complete, 1 bad input (printed as ``error: ...``),
2 hypothesis failed, 3 counterexample found, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .audits import constriction_audit, elementary_properties_audit
from .axes import Axis, ProjectionMap
from .buffering import BufferingParams, build_axis_chain, check_buffering, chain_separation
from .closure import elementary_closure, find_selector_power
from .errors import (BudgetExceeded, CounterexampleFound, GrowthLabError,
                     HypothesisFailed, PreconditionFailed)
from .groups import MarkedGroup
from .reports import (flatten_for_csv, growth_records, render_csv, render_json,
                      write_text)
from .stallings import stallings_fold
from .theorems import (ExperimentConfig, amalgam_injectivity,
                       coarse_quotient_check, verify_growth_gap,
                       verify_quotient_growth)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_BUDGET = 4


def _read_subgroup(path: str | None) -> tuple[str, ...]:
    if not path:
        return ()
    with open(path) as fh:
        return tuple(line.strip() for line in fh if line.strip())


def _group(text: str) -> MarkedGroup:
    try:
        return MarkedGroup.from_descriptor(text)
    except ValueError as exc:
        raise PreconditionFailed(f"bad group {text!r}: {exc}") from None


def _at_least(flag: str, value, low) -> None:
    if value < low:
        raise PreconditionFailed(f"{flag} must be >= {low}, got {value}")


def _emit(payload, args, records=None) -> None:
    if args.format == "csv":
        rows = records if records is not None else flatten_for_csv(payload)
        write_text(render_csv(rows), args.out)
    else:
        write_text(render_json(payload), args.out)


def _experiment_config(args) -> ExperimentConfig:
    _group(args.group)
    kwargs = dict(group=args.group, subgroup=_read_subgroup(args.subgroup), g0=args.g0 or "")
    if args.rmax is not None:
        kwargs["r_ball"] = args.rmax
        kwargs["r_schreier"] = args.rmax
    if getattr(args, "margin", None) is not None:
        kwargs["gap_margin"] = args.margin
    return ExperimentConfig(**kwargs)


def _sample_radius(args, default: int) -> int:
    r = default if args.rmax is None else args.rmax
    _at_least("--rmax", r, 1)
    return r


def cmd_gap(args) -> int:
    cfg = _experiment_config(args)
    try:
        report = verify_growth_gap(cfg)
    except HypothesisFailed as exc:
        _emit(exc.report, args)
        return EXIT_HYPOTHESIS
    records = None
    if args.format == "csv":
        records = growth_records(itertools.accumulate(report.details["h_counts"]),
                                 report.omega_h)
    _emit(report, args, records)
    return EXIT_OK if report.verdict == "PASS" else EXIT_HYPOTHESIS


def cmd_quotient(args) -> int:
    cfg = _experiment_config(args)
    try:
        report = verify_quotient_growth(cfg, max_states=args.max_states)
    except HypothesisFailed as exc:
        _emit(exc.report, args)
        return EXIT_HYPOTHESIS
    records = None
    if args.format == "csv":
        records = growth_records(report.details["coset_counts"], report.omega_quotient)
    _emit(report, args, records)
    return EXIT_OK if report.verdict == "PASS" else EXIT_HYPOTHESIS


def cmd_amalgam(args) -> int:
    for flag, value in (("--syllables", args.syllables), ("-M", args.power),
                        ("--letter-cap", args.letter_cap)):
        _at_least(flag, value, 1)
    group = _group(args.group)
    sub = stallings_fold(group, [group.parse(w) for w in _read_subgroup(args.subgroup)])
    g = group.parse(args.g0)
    try:
        report = amalgam_injectivity(sub, g, M=args.power, n_syllables=args.syllables,
                                     letter_cap=args.letter_cap)
    except CounterexampleFound as exc:
        _emit({"verdict": "COUNTEREXAMPLE", "witness": exc.witness}, args)
        return EXIT_COUNTEREXAMPLE
    _emit(report, args)
    return EXIT_OK


def cmd_audit(args) -> int:
    r = _sample_radius(args, 4)
    group = _group(args.group)
    g = group.parse(args.axis)
    pm = ProjectionMap(Axis(g))
    rep = constriction_audit(pm, r)
    table = elementary_properties_audit(pm, None, min(r, 4))
    payload = {
        "axis": args.axis,
        "constriction": rep,
        "properties": table.property_rows(),
        "sigma_table": table.sigma_table,
        "zeta_table": table.zeta_table,
    }
    _emit(payload, args)
    return EXIT_OK


def _read_chain(path: str) -> dict:
    """The chain spec in ``path``, every key checked before any work."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise PreconditionFailed("a chain spec must be a JSON object")
    spec = {"delta": 0, "epsilon": 2, "L": 1, "radius": 2, "theta": None, **spec}

    def need(key: str, ok: bool, what: str) -> None:
        if not ok:
            raise PreconditionFailed(f"chain spec {key!r} must be {what}, got {spec.get(key)!r}")

    def words(value) -> bool:
        return isinstance(value, list) and all(isinstance(w, str) for w in value)

    for key in ("group", "g"):
        need(key, isinstance(spec.get(key), str), "a string")
    need("subgroup", words(spec.get("subgroup")), "a list of words")
    pairs = spec.get("word")
    need("word", isinstance(pairs, list) and all(words(p) and len(p) == 2 for p in pairs),
         "a list of [label, word] pairs")
    for key in ("delta", "epsilon", "L", "radius", "theta"):
        value = spec[key]
        need(key, type(value) is int and value >= 0 or key == "theta" and value is None,
             "an integer >= 0")
    return spec


def cmd_buffering(args) -> int:
    spec = _read_chain(args.chain)
    group = _group(spec["group"])
    sub = stallings_fold(group, [group.parse(w) for w in spec["subgroup"]])
    g = group.parse(spec["g"])
    letters = [group.parse(w) for _, w in spec["word"]]
    params = BufferingParams(spec["delta"], spec["epsilon"], spec["L"])
    chain = build_axis_chain(sub, g, letters, spec["radius"])
    verdict = check_buffering(chain, params)
    payload = {"check": verdict, "params": params}
    if verdict.passed and spec["theta"] is not None:
        payload["separation"] = chain_separation(chain, params, spec["theta"])
    _emit(payload, args)
    return EXIT_OK if verdict.passed else EXIT_HYPOTHESIS


def cmd_closure(args) -> int:
    _at_least("--radius", args.radius, 1)
    group = _group(args.group)
    g = group.parse(args.g0)
    desc = elementary_closure(g, args.radius)
    payload = {
        "g": args.g0,
        "M": desc.M,
        "E_gens": [str(w) for w in desc.E_generators],
        "E_plus_index": desc.E_plus_index,
        "index_over_cyclic": desc.index_over_cyclic,
        "certificates": {"conjugation_identities": desc.verify(),
                         "elements_scanned": len(desc.elements)},
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_selector(args) -> int:
    _at_least("--epsilon", args.epsilon, 0)
    _at_least("--theta", args.theta, 0)
    r = _sample_radius(args, 5)
    group = _group(args.group)
    sub = stallings_fold(group, [group.parse(w) for w in _read_subgroup(args.subgroup)])
    g = group.parse(args.g0)
    m, sel = find_selector_power(g, epsilon=args.epsilon, theta=args.theta,
                                 y=group.identity(), sample_radius=r)
    report = coarse_quotient_check(sub, g, sel, r)
    payload = {"M": m, "threshold": sel.threshold, "coarse_quotient": report}
    _emit(payload, args)
    return EXIT_OK if report.verdict == "PASS" else EXIT_HYPOTHESIS


def _apply_config_file(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise PreconditionFailed("--config needs a path")
    with open(argv[i + 1]) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise PreconditionFailed("--config must hold a JSON object")
    injected = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if flag not in argv:
            injected.extend([flag, str(value)])
    return argv[:i] + argv[i + 2:] + injected


class _Parser(argparse.ArgumentParser):
    """Raises argparse's usage errors instead of exiting with status 2,
    which this CLI reserves for a failed hypothesis.  Subparsers inherit
    the class."""

    def error(self, message):
        raise PreconditionFailed(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="growthlab", description="desk-scale growth experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, subgroup=False, g0=False):
        p.add_argument("--group", required=True, help="free:K or product:M1,M2,...")
        if subgroup:
            p.add_argument("--subgroup", help="file with one generator word per line")
        if g0:
            p.add_argument("--g0", help="distinguished element (ASCII word)")
        p.add_argument("--rmax", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("gap", help="growth-gap pipeline")
    common(p, subgroup=True, g0=True)
    p.add_argument("--margin", type=float, default=None)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("quotient", help="quotient-growth pipeline")
    common(p, subgroup=True, g0=True)
    p.add_argument("--max-states", type=int, default=None,
                   help="cap on the cosets within --rmax (exit 4 when exceeded)")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("amalgam", help="amalgam injectivity refutation attempt")
    common(p, subgroup=True, g0=True)
    p.add_argument("-M", "--power", type=int, default=1)
    p.add_argument("--syllables", type=int, default=4)
    p.add_argument("--letter-cap", type=int, default=4)
    p.set_defaults(func=cmd_amalgam)

    p = sub.add_parser("audit", help="constriction and projection property audit")
    common(p)
    p.add_argument("--axis", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("buffering", help="check a chain spec file")
    p.add_argument("--chain", required=True, help="JSON chain spec")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_buffering)

    p = sub.add_parser("closure", help="exact elementary closure E(g), re-verified in a ball")
    p.add_argument("--group", required=True)
    p.add_argument("--g0", required=True)
    p.add_argument("--radius", type=int, default=6,
                   help="radius of the ball whose elements of E(g) are re-verified")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("selector", help="separation selector and coarse quotient check")
    common(p, subgroup=True, g0=True)
    p.add_argument("--epsilon", type=int, default=0)
    p.add_argument("--theta", type=int, default=1)
    p.set_defaults(func=cmd_selector)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config_file(argv))
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CounterexampleFound as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except HypothesisFailed as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (GrowthLabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
