"""Batch command-line entry point.

One verification task per process invocation.  Each subcommand handler maps
the parsed arguments to the fully resolved configuration and its result and
writes nothing; ``main`` writes the one report, which echoes that
configuration (only a ``dims`` config is also a ``--config`` file), or the
CSV table read off the result.  Reports are written atomically (temp file in
the target directory, then rename).

Exit codes: 0 the run completed (negative mathematical verdicts are still
data, not errors), 1 the configuration failed validation or the output
could not be written, 2 a numerical computation failed (integration, a
representation that misses its validity gates, or a singular-value or
eigenvalue iteration that does not converge).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
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
from .field import ExactScalar
from .immersion import fd_step_ladder, immersion_experiment, make_center
from .monodromy import (
    ClearanceError,
    IntegrationError,
    InvalidRepresentationError,
    ODE_TOL_FLOOR,
    build_loops,
    irreducibility_probe,
    monodromy,
    standard_word_list,
    trace_values,
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


def _number(text: str, flag: str, kind=Fraction):
    try:
        return kind(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"{flag}: cannot parse {text!r}: {err}") from None


def _numbers(text: str, flag: str, kind=Fraction) -> list:
    """The comma-separated numbers of a flag; empty fields are skipped."""
    return [_number(v, flag, kind) for v in text.split(",") if v.strip()]


# what malformed JSON data raises in the curve and system loaders
_MALFORMED = (OSError, ValueError, LookupError, TypeError, AttributeError, ZeroDivisionError)


def _load_json(path, flag, loader):
    try:
        with open(path) as fh:
            return loader(json.load(fh))
    except _MALFORMED as err:
        raise ConfigError(f"{flag} invalid: {err}") from None


def _curve_from_args(args) -> object:
    """The curve of the one curve source the parser lets through."""
    if args.branch_points is not None:
        values = _numbers(args.branch_points, "--branch-points")
        if len(values) < 5:
            raise ConfigError("--branch-points needs at least 5 values (genus >= 2)")
        try:
            return HyperellipticCurve(tuple(ExactScalar.of(v) for v in values))
        except CurveError as err:
            raise ConfigError(f"--branch-points invalid: {err}") from None
    if args.quartic == "fermat":
        return PlaneQuartic.fermat()
    if args.quartic == "klein":
        return PlaneQuartic.klein()
    return _load_json(args.curve_json, "--curve-json", curve_from_json)


class _Given(argparse.Action):
    """Store the flag's value and record in ``given`` that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


def _system_from_args(args, curve):
    if args.system_json is not None:
        given = getattr(args, "given", ())
        unused = [f"--{n}" for n in ("scale", "bound", "algebra", "seed") if n in given]
        if unused:
            raise ConfigError(f"{', '.join(unused)} cannot be used with --system-json")
        system = _load_json(args.system_json, "--system-json", system_from_json)
        if system.curve != curve:
            raise ConfigError("system curve does not match the requested curve")
        return system
    lie = builtin_algebra(args.algebra)
    system = sample_system(curve, lie, seed=args.seed, coefficient_bound=args.bound)
    if args.scale != "1":
        system = scale_system(system, ExactScalar.of(_number(args.scale, "--scale")))
    return system


def _positive(value, flag, floor=0.0):
    if not 0 < value < math.inf:
        raise ConfigError(f"{flag} must be positive and finite")
    if value < floor:
        raise ConfigError(f"{flag} must be at least {floor:.3g}")
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


def _tally(result) -> list:
    return [("trials", "successes", "failures"),
            (result["trials"], result["successes"], len(result["failures"]))]


def _spectrum(result) -> list:
    return [("index", "singular_value"), *enumerate(result["singular_values"], 1)]


# -- subcommand handlers: parsed arguments -> (config, result) -----------------


def _cmd_dims(args):
    if args.genus < 2:
        raise ConfigError("--genus must be >= 2")
    config = {"genus": args.genus, "algebra": args.algebra}
    return config, dimension_report(args.genus, builtin_algebra(args.algebra)).to_json()


def _cmd_noether(args):
    curve = _curve_from_args(args)
    return {"curve": curve_to_json(curve)}, noether_check(curve).to_json()


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
    return config, scan.to_json()


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
    return config, {"criterion": verdict.to_json(), "dyad": dyad.to_json()}


def _cmd_monodromy(args):
    curve = _curve_from_args(args)
    if not isinstance(curve, HyperellipticCurve):
        raise ConfigError("monodromy runs on hyperelliptic curves only")
    system = _system_from_args(args, curve)
    ode_tol = _positive(args.ode_tol, "--ode-tol", ODE_TOL_FLOOR)
    clearance = _positive(args.clearance, "--clearance")
    loops = build_loops(curve, clearance)
    rep = monodromy(system, loops, ode_tol)
    traces = {
        "words": ["*".join(w) for w in standard_word_list(rep.genus)],
        "values": [[v.real, v.imag] for v in trace_values([rep])[0].tolist()],
    }
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
        "traces": traces,
        "irreducibility": probe.to_json(),
        "loops": loops.to_json(),
    }
    return config, result


def _cmd_immersion(args):
    ode_tol = _positive(args.ode_tol, "--ode-tol", ODE_TOL_FLOOR)
    clearance = _positive(args.clearance, "--clearance")
    steps = _numbers(args.fd_steps, "--fd-steps", float)
    if not steps or not all(0 < s < math.inf for s in steps):
        raise ConfigError("--fd-steps must be positive and finite")
    if args.format == "csv" and len(steps) > 1:
        raise ConfigError("--format csv takes a single --fd-steps value")
    branch = _numbers(args.branch_points, "--branch-points") if args.branch_points else [0, 1, 2, 3, 4]
    scale = _number(args.scale, "--scale")
    try:
        center = make_center(seed=args.seed, branch=tuple(branch), coefficient_bound=args.bound,
                             scale=scale, clearance=clearance)
    except (ValueError, CurveError, ClearanceError) as err:
        raise ConfigError(f"cannot build immersion center: {err}") from None
    config = {
        "center": center.to_json(),
        "seed": args.seed,
        "ode_tol": ode_tol,
        "fd_steps": steps,
    }
    if len(steps) == 1:
        result = immersion_experiment(center, steps[0], ode_tol).to_json()
    else:
        result = fd_step_ladder(center, steps, ode_tol).to_json()
    result["loops"] = center.loops.to_json()
    return config, result


def _add_curve_args(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--branch-points", help="comma-separated exact rationals, e.g. 0,1,2,3,4")
    source.add_argument("--quartic", choices=["fermat", "klein"], help="built-in smooth quartic")
    source.add_argument("--curve-json", help="path to a curve description JSON file")


def _add_format(p, table):
    """--format csv writes ``table(result)``, the rows read off the result."""
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(table=table)


def _add_common(p, seeded=True):
    p.add_argument("--out", help="report path (default: stdout)")
    if seeded:  # dims and noether draw nothing, so they take no seed
        p.add_argument("--seed", type=int, default=0, action=_Given)
    # every subcommand runs in one thread, so 1 is the only true value
    p.add_argument("--threads", type=int, default=1, choices=[1])


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffsys",
        description="rank criteria on curves and numerical monodromy experiments",
        allow_abbrev=False,  # a flag or config key is taken only under its full name
    )
    parser.add_argument("--config", help="JSON file of arguments (overridden by flags)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dims", help="dimension formulas for the moduli spaces", allow_abbrev=False)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--algebra", default="sl2", choices=["sl2", "gl2", "sl3"])
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("noether", help="surjectivity of the full multiplication map", allow_abbrev=False)
    _add_curve_args(p)
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_noether)

    p = sub.add_parser("lazarsfeld", help="random-subspace surjectivity scan", allow_abbrev=False)
    _add_curve_args(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--w-dim", type=int, default=3)
    _add_format(p, _tally)
    _add_common(p)
    p.set_defaults(func=_cmd_lazarsfeld)

    p = sub.add_parser("criterion", help="injectivity criterion for a system", allow_abbrev=False)
    _add_curve_args(p)
    p.add_argument("--algebra", default="sl2", choices=["sl2", "gl2", "sl3"], action=_Given)
    p.add_argument("--bound", type=int, default=5, action=_Given)
    p.add_argument("--scale", default="1", action=_Given, help="exact rational factor applied to sampled coefficients")
    p.add_argument("--system-json", help="path to a system JSON file (overrides sampling)")
    _add_common(p)
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("monodromy", help="full monodromy representation with traces", allow_abbrev=False)
    _add_curve_args(p)
    p.add_argument("--algebra", default="sl2", choices=["sl2"], action=_Given)
    p.add_argument("--bound", type=int, default=5, action=_Given)
    p.add_argument("--scale", default="1/8", action=_Given)
    p.add_argument("--system-json")
    p.add_argument("--ode-tol", type=float, default=1e-12)
    p.add_argument("--clearance", type=float, default=0.22)
    _add_common(p)
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("immersion", help="finite-difference rank of the monodromy map", allow_abbrev=False)
    p.add_argument("--branch-points", help="odd-model normalized branch points (default 0,1,2,3,4)")
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--scale", default="1/8")
    p.add_argument("--fd-steps", default="1e-4,1e-5,1e-6")
    p.add_argument("--ode-tol", type=float, default=1e-12)
    p.add_argument("--clearance", type=float, default=0.22)
    _add_format(p, _spectrum)
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
        config, result = args.func(args)
        if getattr(args, "format", "json") == "csv":
            text = "\n".join(",".join(map(str, row)) for row in args.table(result)) + "\n"
        else:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            report = {"subcommand": args.subcommand, "config": config, "timestamp": stamp, "result": result}
            # one line: without indent, json uses its C encoder
            text = json.dumps(report, sort_keys=True) + "\n"
        _write(args, text)
        return 0
    except SystemExit as err:
        # argparse exits itself on --help (0) and on bad usage; bad usage is
        # a configuration error under this tool's exit-code contract
        return 0 if err.code in (0, None) else 1
    except (IntegrationError, InvalidRepresentationError, LinAlgError) as err:
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
