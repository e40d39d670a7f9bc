"""Command line interface.

Subcommands: spectrum, realize, preset, verify, examples, convert.
Shared flags (--field, --budget, --depth, --seed, --out) also read
ATOMCAT_FIELD / _BUDGET / _DEPTH / _SEED / _OUT.
Any failure prints {"error": code, "context": {...}} as JSON on stderr
and exits nonzero; output files are written whole or not at all.
"""

import argparse
import json
import sys
from dataclasses import replace

from . import generators, harness, predictor, terms
from .atomspec import spectrum
from .errors import AtomcatError
from .harness import canonical_json, config_from_env
from .ordertop import (alexandroff_of_poset, normalize_poset,
                       poset_from_json, poset_of_topology, topology_from_json)
from .quiver import TruncationSpec, quiver_from_json


def _common_flags(parser):
    parser.add_argument("--field", type=int, default=None,
                        help="prime field characteristic (default 2)")
    parser.add_argument("--budget", type=int, default=None,
                        help="most seed vectors a cyclic seed scan may "
                        "read (spectrum refuses with 'too many seed "
                        "vectors') and most members a lattice "
                        "enumeration may list")
    parser.add_argument("--depth", type=int, default=None,
                        help="truncation depth for generators/presets")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized suites")
    parser.add_argument("--out", default=None,
                        help="write the report JSON here (plus .dot files)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="atomcat",
        description="atom spectra of categories built from colored quivers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="brute-force spectrum of a quiver")
    p.add_argument("quiver", help="path to quiver JSON")
    _common_flags(p)

    p = sub.add_parser("realize",
                       help="realize a finite poset as an atom spectrum")
    p.add_argument("poset", help="path to poset JSON")
    p.add_argument("--mode", choices=("acc", "general"), default="acc")
    p.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"),
                   default=None, help="integer window for general mode")
    _common_flags(p)

    p = sub.add_parser("preset", help="materialize a named construction")
    p.add_argument("name", choices=terms.PRESET_NAMES)
    _common_flags(p)

    p = sub.add_parser("verify", help="run a randomized invariant suite")
    p.add_argument("suite", choices=harness.SUITES)
    p.add_argument("--count", type=int, default=None,
                   help="number of random cases")
    _common_flags(p)

    p = sub.add_parser("examples",
                       help="reproduce the worked examples table")
    _common_flags(p)

    p = sub.add_parser("convert",
                       help="poset <-> finite topology round trip")
    p.add_argument("input", help="path to poset or topology JSON")
    p.add_argument("--to", choices=("topology", "poset"), required=True)
    _common_flags(p)
    return parser


def _config(args):
    cfg = config_from_env()
    overrides = {}
    for attr, val in (("p", args.field), ("budget", args.budget),
                      ("depth", args.depth), ("seed", args.seed),
                      ("out", args.out)):
        if val is not None:
            overrides[attr] = val
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _emit(cfg, payload, dots=()):
    """Write the whole report at once; stdout when no --out is given."""
    text = canonical_json(payload)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        for suffix, dot_text in dots:
            with open(cfg.out + suffix, "w") as fh:
                fh.write(dot_text + "\n")
    else:
        sys.stdout.write(text)


def cmd_spectrum(args, cfg):
    with open(args.quiver) as fh:
        quiver = quiver_from_json(json.load(fh))
    report = spectrum(quiver, cfg.field, cfg.budget)
    # the spectrum is discrete: its Hasse diagram has no edge
    hasse = normalize_poset([], report.atoms.labels()).to_dot()
    _emit(cfg, report.to_json(),
          dots=[(".dot", hasse), (".quiver.dot", quiver.to_dot())])
    return 0


def _construction_report(cfg, gen, shown, checked, **extra):
    """Crosscheck the window `checked` against the truncation `gen` and
    emit the generated quiver, the symbolic spectrum `shown`, the diff
    and `extra` (a witness or claims); exit 0 when the diff is ok and
    every claim holds, else 2."""
    diff = predictor.crosscheck(checked, gen, cfg.field, cfg.budget)
    _emit(cfg, {"generated": gen.to_json(), "symbolic": shown.to_json(),
                "diff": diff.to_json(), **extra},
          dots=[(".dot", shown.order.to_dot()),
                (".quiver.dot", gen.quiver.to_dot())])
    return 0 if diff.ok() and all(extra.get("claims", {}).values()) else 2


def cmd_realize(args, cfg):
    with open(args.poset) as fh:
        poset = poset_from_json(json.load(fh))
    window = tuple(args.window) if args.window else (0, 0)
    trunc = TruncationSpec(depth=cfg.depth, ladder_range=window)
    if args.mode == "acc":
        gen = generators.gen_realization_acc(poset, trunc)
    else:
        gen = generators.gen_realization_general(poset, trunc)
    res = predictor.predict_realization(poset, args.mode)
    return _construction_report(cfg, gen, res.spectrum, res.pre_quotient,
                                witness=res.witness)


def cmd_preset(args, cfg):
    gen = generators.preset(args.name, cfg.depth)
    sym = predictor.predict_preset(args.name, cfg.depth)
    return _construction_report(
        cfg, gen, sym, sym,
        claims=predictor.check_preset_claims(args.name, sym, cfg.depth))


def cmd_verify(args, cfg):
    result = harness.run_suite(args.suite, cfg, count=args.count)
    for line in result.log_lines():
        print(line)
    if cfg.out:
        _emit(cfg, result.to_json())
    return 0 if result.passed else 1


def cmd_examples(args, cfg):
    table = harness.worked_examples(cfg)
    _emit(cfg, table)
    return 0


def cmd_convert(args, cfg):
    with open(args.input) as fh:
        data = json.load(fh)
    if args.to == "topology":
        topo = alexandroff_of_poset(poset_from_json(data))
        _emit(cfg, topo.to_json())
    else:
        poset = poset_of_topology(topology_from_json(data))
        _emit(cfg, poset.to_json())
    return 0


COMMANDS = {
    "spectrum": cmd_spectrum,
    "realize": cmd_realize,
    "preset": cmd_preset,
    "verify": cmd_verify,
    "examples": cmd_examples,
    "convert": cmd_convert,
}


def cli_dispatch(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        return COMMANDS[args.command](args, cfg)
    except AtomcatError as err:
        sys.stderr.write(json.dumps(err.to_json()) + "\n")
        return 1
    except (OSError, ValueError, KeyError) as err:
        sys.stderr.write(json.dumps(
            {"error": "io_or_value_error", "context": {"detail": str(err)}})
            + "\n")
        return 1


def main():
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
