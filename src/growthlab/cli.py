"""Command-line interface.

    growthlab gap       --group G [--subgroup FILE] [--g0 W] [--rmax 12]
    growthlab quotient  --group G [--subgroup FILE] [--rmax 14]
    growthlab amalgam   --group G [--subgroup FILE] --g0 W [-M 1] [--syllables 4]
                        [--letter-cap 4]
    growthlab audit     --group G --axis W [--rmax 4]
    growthlab buffering --chain FILE
    growthlab closure   --group G --g0 W [--radius 6]
    growthlab selector  --group G [--subgroup FILE] --g0 W [--rmax 5] [--epsilon 0]
                        [--theta 1]

Every command also takes --out FILE (default: standard output) and
--format json|csv (default json).  Each command is declared once, by
``command`` on its handler, with exactly the flags the handler reads.

Subgroup files carry one generator word per line (``a b A`` style, upper
case = inverse); without one the subgroup is trivial.  A chain spec is
JSON:
{"group": "free:2", "subgroup": ["a"], "g": "b",
 "word": [["h","a"],["k","bbb"]], "radius": 2}.
--config FILE (or --config=FILE) loads any of the command's flags from a
JSON object; explicit flags win, in any spelling argparse accepts.

Exit codes: 0 pass/complete, 1 bad input (printed as ``error: ...``),
2 hypothesis failed, 3 counterexample found, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
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
from .stallings import CoreGraph, stallings_fold
from .theorems import (ExperimentConfig, amalgam_injectivity, coarse_quotient_check,
                       verify_growth_gap, verify_quotient_growth)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_BUDGET = 4

COMMANDS: dict[str, tuple] = {}  # name -> (handler, summary, flags), filled by ``command``


def _flag(*names: str, **kwargs) -> tuple:
    """One ``add_argument`` call: its names and keyword arguments."""
    return names, kwargs


GROUP = _flag("--group", required=True, help="free:K or product:M1,M2,...")
SUBGROUP = _flag("--subgroup", help="file with one generator word per line")
G0 = _flag("--g0", required=True, help="distinguished element (ASCII word)")
OUTPUT = (_flag("--out", help="output file (default: standard output)"),
          _flag("--format", choices=("json", "csv"), default="json"))


def command(name: str, summary: str, *flags: tuple):
    """Declare the subcommand ``name`` run by the decorated handler, with
    ``flags`` and ``OUTPUT``, which the handler reads through ``_emit``."""
    def declare(handler):
        COMMANDS[name] = handler, summary, flags + OUTPUT
        return handler
    return declare


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


def _core(group: MarkedGroup, words) -> CoreGraph:
    """The folded core of the subgroup the words generate."""
    return stallings_fold(group, [group.parse(w) for w in words])


def _at_least(flag: str, value, low) -> None:
    if value < low:
        raise PreconditionFailed(f"{flag} must be >= {low}, got {value}")


def _emit(payload, args, rows=flatten_for_csv) -> None:
    """Write ``payload`` to --out as JSON, or as the CSV rows ``rows(payload)``."""
    text = render_csv(rows(payload)) if args.format == "csv" else render_json(payload)
    write_text(text, args.out)


def _growth(args, pipeline, rows, **config) -> int:
    """Run a growth pipeline on the --group and --subgroup flags and the
    ``config`` fields, and write its report; CSV output is ``rows(report)``,
    or key,value rows when a hypothesis fails.  Exit 2 unless it PASSes."""
    _group(args.group)
    cfg = ExperimentConfig(args.group, _read_subgroup(args.subgroup), **config)
    try:
        report = pipeline(cfg)
    except HypothesisFailed as exc:
        _emit(exc.report, args)
        return EXIT_HYPOTHESIS
    _emit(report, args, rows)
    return EXIT_OK if report.verdict == "PASS" else EXIT_HYPOTHESIS


@command("gap", "growth-gap pipeline", GROUP, SUBGROUP,
         _flag("--g0", default="", help="distinguished element (default: the last generator)"),
         _flag("--rmax", type=int, default=ExperimentConfig.r_ball))
def cmd_gap(args) -> int:
    return _growth(args, verify_growth_gap,
                   lambda r: growth_records(itertools.accumulate(r.details["h_counts"]),
                                            r.omega_h),
                   g0=args.g0, r_ball=args.rmax)


@command("quotient", "quotient-growth pipeline", GROUP, SUBGROUP,
         _flag("--rmax", type=int, default=ExperimentConfig.r_schreier))
def cmd_quotient(args) -> int:
    return _growth(args, verify_quotient_growth,
                   lambda r: growth_records(r.details["coset_counts"], r.omega_quotient),
                   r_schreier=args.rmax)


@command("amalgam", "amalgam injectivity, by a Stallings fold in F_k, else a word search",
         GROUP, SUBGROUP, G0,
         _flag("-M", "--power", type=int, default=1),
         _flag("--syllables", type=int, default=4),
         _flag("--letter-cap", type=int, default=4))
def cmd_amalgam(args) -> int:
    for flag, value in (("--syllables", args.syllables), ("-M", args.power),
                        ("--letter-cap", args.letter_cap)):
        _at_least(flag, value, 1)
    group = _group(args.group)
    sub = _core(group, _read_subgroup(args.subgroup))
    g = group.parse(args.g0)
    try:
        report = amalgam_injectivity(sub, g, M=args.power, n_syllables=args.syllables,
                                     letter_cap=args.letter_cap)
    except CounterexampleFound as exc:
        _emit({"verdict": "COUNTEREXAMPLE", "witness": exc.witness}, args)
        return EXIT_COUNTEREXAMPLE
    _emit(report, args)
    return EXIT_OK


@command("audit", "constriction and projection property audit", GROUP,
         _flag("--axis", required=True), _flag("--rmax", type=int, default=4))
def cmd_audit(args) -> int:
    _at_least("--rmax", args.rmax, 1)
    group = _group(args.group)
    g = group.parse(args.axis)
    pm = ProjectionMap(Axis(g))
    rep = constriction_audit(pm, args.rmax)
    table = elementary_properties_audit(pm, None, min(args.rmax, 4))
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
    defaults = {"delta": 0, "epsilon": 2, "L": 1, "radius": 2, "theta": None}
    unknown = sorted(set(spec) - {"group", "subgroup", "g", "word", *defaults})
    if unknown:
        raise PreconditionFailed(f"chain spec has unknown key {', '.join(map(repr, unknown))}")
    spec = {**defaults, **spec}

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


@command("buffering", "check a chain spec file", _flag("--chain", required=True,
                                                        help="JSON chain spec"))
def cmd_buffering(args) -> int:
    spec = _read_chain(args.chain)
    group = _group(spec["group"])
    sub = _core(group, spec["subgroup"])
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


@command("closure", "exact elementary closure E(g), re-verified in a ball", GROUP, G0,
         _flag("--radius", type=int, default=6,
               help="radius of the ball whose elements of E(g) are re-verified"))
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


@command("selector", "separation selector and coarse quotient check", GROUP, SUBGROUP, G0,
         _flag("--rmax", type=int, default=5),
         _flag("--epsilon", type=int, default=0),
         _flag("--theta", type=int, default=1))
def cmd_selector(args) -> int:
    _at_least("--epsilon", args.epsilon, 0)
    _at_least("--theta", args.theta, 0)
    _at_least("--rmax", args.rmax, 1)
    group = _group(args.group)
    sub = _core(group, _read_subgroup(args.subgroup))
    sel = find_selector_power(group.parse(args.g0), epsilon=args.epsilon, theta=args.theta,
                              sample_radius=args.rmax)
    report = coarse_quotient_check(sub, sel, args.rmax)
    payload = {"M": sel.M, "threshold": sel.threshold, "coarse_quotient": report}
    _emit(payload, args)
    return EXIT_OK if report.verdict == "PASS" else EXIT_HYPOTHESIS


def _apply_config_file(argv: list[str]) -> list[str]:
    """argv with the flags of --config put right after the command name,
    where the explicit flags, which argparse reads later, override them."""
    known, rest = _config_parser().parse_known_args(argv)
    if known.config is None:
        return argv
    if not known.config:
        raise PreconditionFailed("--config needs a path")
    with open(known.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise PreconditionFailed("--config must hold a JSON object")
    injected = [a for k, v in data.items() for a in ("--" + k.replace("_", "-"), str(v))]
    return rest[:1] + injected + rest[1:]


class _Parser(argparse.ArgumentParser):
    """Raises argparse's usage errors instead of exiting with status 2,
    which this CLI reserves for a failed hypothesis.  Subparsers inherit
    the class."""

    def error(self, message):
        raise PreconditionFailed(message)


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """The pre-parser of --config, built once like ``build_parser``."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config", nargs="?", const="")
    return pre


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, built on first use and reused: parsing
    leaves no state in it."""
    parser = _Parser(prog="growthlab", description="desk-scale growth experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config_file(argv))
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GrowthLabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
