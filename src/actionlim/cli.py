"""Command-line interface.

Subcommands: verify (claim checks as JSON lines), profile (sample and save
profile measures), dist (Levy-Prokhorov or Hausdorff distances), actiondist
(truncated action-metric estimate), limit (emit the operator a spec names,
e.g. a limit approximant, as JSON), experiment (config-driven runs with
manifest and CSV output).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, lp_metric, measures, operators, profiles

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="actionlim", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all", choices=[c.suite for c in harness.CLAIMS] + ["all"])
    p_verify.set_defaults(run=_cmd_verify, error=p_verify.error)

    p_profile = sub.add_parser("profile", help="sample k-profile measures of an operator")
    p_profile.add_argument("--graph", required=True, type=_operator,
                           help="operator spec, e.g. star:100 or gplus:cycle:8")
    p_profile.add_argument("-k", type=int, default=1, help="profile order")
    p_profile.add_argument("--kind", default="mixed", choices=profiles.STRATEGY_KINDS)
    p_profile.add_argument("--count", type=int, default=64)
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--probe-vertex", type=int, default=None, help="probe vertex (switches to vertex_probe)")
    p_profile.add_argument("--out", required=True, help="output directory for measure JSON files")
    p_profile.set_defaults(run=_cmd_profile, error=p_profile.error)

    p_dist = sub.add_parser("dist", help="distances between measures or measure sets")
    p_dist.set_defaults(run=_cmd_dist)
    dist_sub = p_dist.add_subparsers(dest="metric", required=True)
    p_lp = dist_sub.add_parser("lp", help="Levy-Prokhorov distance between two measure files")
    p_lp.add_argument("file_a")
    p_lp.add_argument("file_b")
    p_lp.add_argument("--brute-force", action="store_true", help="use the subset-enumeration engine")
    p_lp.set_defaults(error=p_lp.error)
    p_h = dist_sub.add_parser("hausdorff", help="Hausdorff distance between two directories of measures")
    p_h.add_argument("dir_a")
    p_h.add_argument("dir_b")
    p_h.set_defaults(error=p_h.error)

    p_ad = sub.add_parser("actiondist", help="truncated action-metric estimate between operators")
    p_ad.add_argument("--a", required=True, type=_operator, help="operator spec for the first operator")
    p_ad.add_argument("--b", required=True, type=_operator, help="operator spec for the second operator")
    p_ad.add_argument("-K", type=int, default=3, help="truncation order")
    p_ad.add_argument("--kind", default="mixed", choices=profiles.STRATEGY_KINDS)
    p_ad.add_argument("--count", type=int, default=64)
    p_ad.add_argument("--seed", type=int, default=0)
    p_ad.add_argument("--probe-a", type=int, default=None, help="probe vertex on operator a (switches to vertex_probe)")
    p_ad.add_argument("--probe-b", type=int, default=None, help="probe vertex on operator b (switches to vertex_probe)")
    p_ad.set_defaults(run=_cmd_actiondist, error=p_ad.error)

    p_limit = sub.add_parser("limit", help="emit an operator, e.g. a limit approximant, as JSON")
    p_limit.add_argument("spec", type=_operator, help="operator spec, e.g. broadcast:16:0 or signed:-:0:cycle:16")
    p_limit.set_defaults(run=_cmd_limit, error=p_limit.error)

    p_exp = sub.add_parser("experiment", help="run a config-driven experiment")
    p_exp.add_argument("--config", help="flat key=value config file")
    p_exp.add_argument("--set", action="append", default=[], type=_setting, metavar="KEY=VALUE",
                       help="override a config key")
    p_exp.add_argument("--out", help="override the output directory")
    p_exp.set_defaults(run=_cmd_experiment, error=p_exp.error)
    return parser


def _operator(spec: str) -> operators.WeightedOperator:
    """The operator a spec names; a spec the grammar refuses is a usage error that names it."""
    try:
        return operators.parse_operator_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _setting(item: str) -> tuple[str, str]:
    """One `--set KEY=VALUE` override as a (key, value) pair; an unknown key, or a value
    its key cannot take, is a usage error."""
    key, sep, value = item.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {item!r}")
    key, value = key.strip(), value.strip()
    try:
        harness.ExperimentConfig.parse_value(key, value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return key, value


def _strategy(args, cfg: harness.ExperimentConfig, op: operators.WeightedOperator, probe: int | None,
              flag: str) -> profiles.TestFunctionStrategy:
    """The test functions of one operator; a probe vertex outside the operator is a usage error."""
    if probe is not None and not 0 <= probe < op.n:
        args.error(f"argument {flag}: probe vertex {probe} out of range for n={op.n}")
    return harness._strategy_for(cfg, op, probe)


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload) if args.json else text)


def _cmd_verify(args) -> int:
    records = harness.run_verify(args.suite)
    for r in records:
        if args.json:
            print(json.dumps(r.to_dict()))
        else:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.id}: expected {r.expected}; measured {r.measured}")
    failed = [r for r in records if not r.passed]
    if failed and not args.json:
        print(f"{len(failed)} of {len(records)} checks failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_profile(args) -> int:
    op = args.graph
    cfg = harness.ExperimentConfig(strategy=args.kind, count=args.count, seed=args.seed)
    strat = _strategy(args, cfg, op, args.probe_vertex, "--probe-vertex")
    sample = profiles.profile_sample(op, args.k, strat)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, mu in enumerate(sample.measures):
        name = f"measure_{i:04d}.json"
        (outdir / name).write_text(mu.to_json() + "\n")
        names.append(name)
    manifest = {
        "operator": sample.operator_id,
        "k": sample.k,
        "strategy": strat.fingerprint(),
        "files": names,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    _emit(args, manifest, f"wrote {len(names)} measures to {outdir}")
    return 0


def _read_measure(args, name: str, path: str | None = None) -> measures.DiscreteMeasure:
    """The measure in a JSON file: the file argument `name` names, or `path` in the directory
    that argument names.  A file that cannot be read or holds no measure is a usage error (read
    here, not by a type= converter, so that parsing a command line does not read its files)."""
    path = path or getattr(args, name)
    try:
        return measures.DiscreteMeasure.from_json(Path(path).read_text())
    except (ValueError, OSError) as exc:
        args.error(f"argument {name}: measure file {path!r}: {exc}")


def _read_measure_dir(args, name: str) -> tuple[list[str], list[measures.DiscreteMeasure]]:
    """The measure files of the directory argument `name` names: their names and their
    measures, in name order; a directory with none is a usage error."""
    path = getattr(args, name)
    files = sorted(p for p in Path(path).glob("*.json") if p.name != "manifest.json")
    if not files:
        args.error(f"argument {name}: no measure files in {path!r}")
    return [p.name for p in files], [_read_measure(args, name, str(p)) for p in files]


def _cmd_dist(args) -> int:
    if args.metric == "lp":
        a, b = (_read_measure(args, name) for name in ("file_a", "file_b"))
        engine = lp_metric.lp_distance_bruteforce if args.brute_force else lp_metric.lp_distance
        res = engine(a, b)
        _emit(args, {"metric": "lp", "value": res.value, "method": res.method}, repr(res.value))
    else:
        names_a, set_a = _read_measure_dir(args, "dir_a")
        names_b, set_b = _read_measure_dir(args, "dir_b")
        res = lp_metric.hausdorff(set_a, set_b)
        i, j = res.witness
        _emit(args, {"metric": "hausdorff", "value": res.value, "argmax_side": res.argmax_side,
                     "witness": [names_a[i], names_b[j]], "counts": res.counts}, repr(res.value))
    return 0


def _cmd_actiondist(args) -> int:
    op_a, op_b = args.a, args.b
    cfg = harness.ExperimentConfig(strategy=args.kind, count=args.count, seed=args.seed)
    strat_a = _strategy(args, cfg, op_a, args.probe_a, "--probe-a")
    strat_b = _strategy(args, cfg, op_b, args.probe_b, "--probe-b")
    report = profiles.action_distance_estimate(op_a, op_b, args.K, strat_a, strat_b)
    text = f"estimate {report.value!r} (truncated at K={report.truncation_k}, tail bound {report.tail_bound})"
    _emit(args, report.to_dict(), text)
    return 0


def _cmd_limit(args) -> int:
    print(json.dumps(args.spec.to_dict(), indent=2))
    return 0


def _cmd_experiment(args) -> int:
    overrides = dict(args.set)
    if args.out is not None:
        overrides["out"] = args.out
    if args.config:
        try:
            cfg = harness.ExperimentConfig.from_file(args.config, overrides)
        except OSError as exc:  # only reading the file raises it
            args.error(f"argument --config: config file {args.config!r}: {exc.strerror}")
        except ValueError as exc:  # an unknown key, or a value its key cannot take
            args.error(f"argument --config: config file {args.config!r}: {exc}")
    else:
        cfg = harness.ExperimentConfig.from_mapping(overrides)
    outdir = harness.run_experiment(cfg)
    _emit(args, {"out": str(outdir)}, f"experiment written to {outdir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # an input the library refuses, or an --out it cannot make
        args.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
