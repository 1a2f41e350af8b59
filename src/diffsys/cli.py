"""Batch command-line entry point.

One verification task per process invocation; every run writes a single
machine-readable report that echoes the fully resolved configuration, so a
report alone suffices to replay the run.  Reports are written atomically
(temp file in the target directory, then rename).

Exit codes: 0 the run completed (negative mathematical verdicts are still
data, not errors), 1 the configuration failed validation or the output
could not be written, 2 a numerical computation failed (integration, a
representation that misses its validity gates, or singular-value
breakdown).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile
from fractions import Fraction

from numpy.linalg import LinAlgError

from .curves import (
    CurveError,
    HyperellipticCurve,
    PlaneQuartic,
    curve_from_json,
    curve_to_json,
)
from .field import ExactScalar, SingularValueError
from .immersion import fd_step_ladder, immersion_experiment, make_center
from .monodromy import (
    ClearanceError,
    IntegrationError,
    InvalidRepresentationError,
    build_loops,
    irreducibility_probe,
    monodromy,
    trace_vector,
)
from .multiplication import criterion_injective, lazarsfeld_scan, noether_check
from .systems import (
    builtin_algebra,
    dimension_report,
    dyad_detect,
    sample_system,
    scale_system,
    system_from_json,
    system_to_json,
)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"cannot parse rational {text!r}: {err}") from None


def _curve_from_args(args) -> object:
    sources = [
        args.branch_points is not None,
        args.quartic is not None,
        args.curve_json is not None,
    ]
    if sum(sources) != 1:
        raise ConfigError(
            "specify exactly one of --branch-points, --quartic, --curve-json"
        )
    if args.branch_points is not None:
        values = [_parse_rational(v) for v in args.branch_points.split(",") if v.strip()]
        if len(values) < 5:
            raise ConfigError("--branch-points needs at least 5 values (genus >= 2)")
        try:
            return HyperellipticCurve(tuple(ExactScalar.of(v) for v in values))
        except CurveError as err:
            raise ConfigError(f"--branch-points invalid: {err}") from None
    if args.quartic is not None:
        if args.quartic == "fermat":
            return PlaneQuartic.fermat()
        if args.quartic == "klein":
            return PlaneQuartic.klein()
        raise ConfigError("--quartic must be fermat or klein")
    try:
        with open(args.curve_json) as fh:
            return curve_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, CurveError, KeyError) as err:
        raise ConfigError(f"--curve-json invalid: {err}") from None


def _system_from_args(args, curve):
    if args.system_json is not None:
        try:
            with open(args.system_json) as fh:
                system = system_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as err:
            raise ConfigError(f"--system-json invalid: {err}") from None
        if system.curve != curve:
            raise ConfigError("system curve does not match the requested curve")
        return system
    lie = builtin_algebra(args.algebra)
    system = sample_system(curve, lie, seed=args.seed, coefficient_bound=args.bound)
    if args.scale != "1":
        system = scale_system(system, ExactScalar.of(_parse_rational(args.scale)))
    return system


def _positive(args, name):
    value = getattr(args, name)
    if value is None or value <= 0:
        raise ConfigError(f"{name.replace('_', '-')} must be positive")
    return value


def _write(args, text: str) -> None:
    """Write to stdout, or atomically to --out: a temp file in the target
    directory, renamed over the target; the temp file is removed on any
    failure."""
    if args.out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(args.out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".diffsys-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(args, payload) -> None:
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(args, rows) -> None:
    _write(args, "\n".join(",".join(str(x) for x in row) for row in rows) + "\n")


def _report(args, subcommand, config, result) -> dict:
    return {
        "subcommand": subcommand,
        "config": config,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "result": result,
    }


# -- subcommand handlers -------------------------------------------------------


def _cmd_dims(args):
    if args.genus < 2:
        raise ConfigError("--genus must be >= 2")
    lie = builtin_algebra(args.algebra)
    report = dimension_report(args.genus, lie)
    config = {"genus": args.genus, "algebra": args.algebra, "seed": args.seed}
    _write_report(args, _report(args, "dims", config, report.to_json()))
    return 0


def _cmd_noether(args):
    curve = _curve_from_args(args)
    verdict = noether_check(curve)
    config = {"curve": curve_to_json(curve), "seed": args.seed}
    _write_report(args, _report(args, "noether", config, verdict.to_json()))
    return 0


def _cmd_lazarsfeld(args):
    curve = _curve_from_args(args)
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if args.w_dim < 1 or args.w_dim > curve.genus:
        raise ConfigError(f"--w-dim must lie in 1..{curve.genus}")
    scan = lazarsfeld_scan(curve, trials=args.trials, w_dim=args.w_dim, seed=args.seed)
    config = {
        "curve": curve_to_json(curve),
        "trials": args.trials,
        "w_dim": args.w_dim,
        "seed": args.seed,
    }
    if args.format == "csv":
        rows = [("trials", "successes", "failures")]
        rows.append((scan.trials, scan.successes, scan.trials - scan.successes))
        _write_csv(args, rows)
        return 0
    _write_report(args, _report(args, "lazarsfeld", config, scan.to_json()))
    return 0


def _cmd_criterion(args):
    curve = _curve_from_args(args)
    system = _system_from_args(args, curve)
    verdict = criterion_injective(curve, system)
    dyad = dyad_detect(system)
    config = {
        "curve": curve_to_json(curve),
        "system": system_to_json(system),
        "seed": args.seed,
    }
    result = {"criterion": verdict.to_json(), "dyad": dyad.to_json()}
    _write_report(args, _report(args, "criterion", config, result))
    return 0


def _cmd_monodromy(args):
    curve = _curve_from_args(args)
    if not isinstance(curve, HyperellipticCurve):
        raise ConfigError("monodromy runs on hyperelliptic curves only")
    system = _system_from_args(args, curve)
    ode_tol = _positive(args, "ode_tol")
    clearance = _positive(args, "clearance")
    loops = build_loops(curve, clearance)
    rep = monodromy(system, loops, ode_tol)
    traces = trace_vector(rep)
    probe = irreducibility_probe(rep)
    config = {
        "curve": curve_to_json(curve),
        "system": system_to_json(system),
        "seed": args.seed,
        "ode_tol": ode_tol,
        "clearance": clearance,
    }
    result = {
        "representation": rep.to_json(),
        "traces": traces.to_json(),
        "irreducibility": probe.to_json(),
        "loops": loops.to_json(),
    }
    _write_report(args, _report(args, "monodromy", config, result))
    return 0


def _cmd_immersion(args):
    ode_tol = _positive(args, "ode_tol")
    clearance = _positive(args, "clearance")
    steps = [float(s) for s in args.fd_steps.split(",") if s.strip()]
    if not steps or any(s <= 0 for s in steps):
        raise ConfigError("--fd-steps must be positive reals")
    branch = [_parse_rational(v) for v in args.branch_points.split(",")] if args.branch_points else [0, 1, 2, 3, 4]
    try:
        center = make_center(
            seed=args.seed,
            branch=tuple(branch),
            coefficient_bound=args.bound,
            scale=_parse_rational(args.scale),
            clearance=clearance,
        )
    except (ValueError, CurveError, ClearanceError) as err:
        raise ConfigError(f"cannot build immersion center: {err}") from None
    config = {
        "center": center.to_json(),
        "seed": args.seed,
        "ode_tol": ode_tol,
        "fd_steps": steps,
    }
    if len(steps) == 1:
        report = immersion_experiment(center, steps[0], ode_tol)
        result = report.to_json()
        sv = report.singular_values
    else:
        ladder = fd_step_ladder(center, steps, ode_tol)
        result = ladder.to_json()
        sv = ladder.reports[0].singular_values
    if args.format == "csv":
        rows = [("index", "singular_value")] + [(i + 1, s) for i, s in enumerate(sv)]
        _write_csv(args, rows)
        return 0
    result["loops"] = center.loops.to_json()
    _write_report(args, _report(args, "immersion", config, result))
    return 0


def _add_curve_args(p):
    p.add_argument("--branch-points", help="comma-separated exact rationals, e.g. 0,1,2,3,4")
    p.add_argument("--quartic", choices=["fermat", "klein"], help="built-in smooth quartic")
    p.add_argument("--curve-json", help="path to a curve description JSON file")


def _add_format(p):
    # CSV covers only the lazarsfeld tally and the immersion singular-value table
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _add_common(p):
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--seed", type=int, default=0)
    # kept so that existing command lines still parse; every subcommand
    # runs in one thread
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffsys",
        description="rank criteria on curves and numerical monodromy experiments",
    )
    parser.add_argument("--config", help="JSON file of arguments (overridden by flags)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dims", help="dimension formulas for the moduli spaces")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--algebra", default="sl2", choices=["sl2", "gl2", "sl3"])
    _add_common(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("noether", help="surjectivity of the full multiplication map")
    _add_curve_args(p)
    _add_common(p)
    p.set_defaults(func=_cmd_noether)

    p = sub.add_parser("lazarsfeld", help="random-subspace surjectivity scan")
    _add_curve_args(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--w-dim", type=int, default=3)
    _add_format(p)
    _add_common(p)
    p.set_defaults(func=_cmd_lazarsfeld)

    p = sub.add_parser("criterion", help="injectivity criterion for a system")
    _add_curve_args(p)
    p.add_argument("--algebra", default="sl2", choices=["sl2", "gl2", "sl3"])
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--scale", default="1", help="exact rational factor applied to sampled coefficients")
    p.add_argument("--system-json", help="path to a system JSON file (overrides sampling)")
    _add_common(p)
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("monodromy", help="full monodromy representation with traces")
    _add_curve_args(p)
    p.add_argument("--algebra", default="sl2", choices=["sl2"])
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--scale", default="1/8")
    p.add_argument("--system-json")
    p.add_argument("--ode-tol", type=float, default=1e-12)
    p.add_argument("--clearance", type=float, default=0.22)
    _add_common(p)
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("immersion", help="finite-difference rank of the monodromy map")
    p.add_argument("--branch-points", help="odd-model normalized branch points (default 0,1,2,3,4)")
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--scale", default="1/8")
    p.add_argument("--fd-steps", default="1e-4,1e-5,1e-6")
    p.add_argument("--ode-tol", type=float, default=1e-12)
    p.add_argument("--clearance", type=float, default=0.22)
    _add_format(p)
    _add_common(p)
    p.set_defaults(func=_cmd_immersion)

    return parser


def _config_value(key, value) -> str:
    """A config-file value as the text its flag takes: scalars as they are,
    lists in the comma-separated form of --branch-points and --fd-steps."""
    if isinstance(value, list) and all(_is_scalar(v) for v in value):
        return ",".join(str(v) for v in value)
    if _is_scalar(value):
        return str(value)
    raise ConfigError(f"--config: {key} must be a number, a string or a list of them")


def _is_scalar(value) -> bool:
    # bool is an int subclass, but no flag is a switch: true/false is an error
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def _apply_config_file(argv):
    """--config supplies defaults; explicit flags win."""
    for idx, arg in enumerate(argv):
        if arg == "--config":
            if idx + 1 == len(argv):
                raise ConfigError("--config requires a path")
            path, consumed = argv[idx + 1], 2
            break
        if arg.startswith("--config="):
            path, consumed = arg[len("--config="):], 1
            break
    else:
        return argv
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"--config invalid: {err}") from None
    if not isinstance(data, dict) or "subcommand" not in data:
        raise ConfigError("--config must be an object with a 'subcommand' field")
    rebuilt = [str(data["subcommand"])]
    for key, value in data.items():
        if key == "subcommand":
            continue
        rebuilt += ["--" + key.replace("_", "-"), _config_value(key, value)]
    return rebuilt + argv[:idx] + argv[idx + consumed :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as err:
        # argparse exits itself on --help (0) and on bad usage; bad usage is
        # a configuration error under this tool's exit-code contract
        return 0 if err.code in (0, None) else 1
    except (IntegrationError, InvalidRepresentationError, SingularValueError, LinAlgError) as err:
        print(f"diffsys: numerical failure: {err}", file=sys.stderr)
        return 2
    except (ConfigError, ClearanceError, CurveError, ValueError) as err:
        print(f"diffsys: configuration error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"diffsys: cannot write output: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
