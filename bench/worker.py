"""One workload run in its own process; started by ``bench/run.py``.

The worker only runs the program.  It prints on stdout, one JSON document
per line: ``"READY"`` when set-up is done (the parent times set-up from
process start to that line), then one line per op with the op's time and
plain-data output, then one closing line with the run's totals.  The parent
checks the outputs, so neither the checks nor the kept outputs count in this
process's time or memory.  diffsys must come from the checkout's ``src``
directory; anything else exits with code 3.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_DIR = os.path.join(BENCH_DIR, "tmp")
OUT_DIR = os.path.join(BENCH_DIR, "out")

from tracing import Tracer  # noqa: E402  (bench/ is on sys.path as the script's directory)

# -- workloads -------------------------------------------------------------------
#
# Each workload builds its fixed inputs in __init__ (timed as set-up), lists
# the ops of one round in ``round`` as (label, input) pairs, and runs one op
# in ``run``, which returns (failed, output) with the output as plain data.
# diffsys functions are looked up on their modules at call time, so a traced
# run goes through the wrappers.


class ExactScan:
    """Exact side only: scans, Noether dichotomy and injectivity criterion.

    One op is one exact round; its scan and system seeds come from the
    workload seed and the op index, so every op does the same kind of work.
    """

    SCAN_TRIALS = 8
    CRITERION_SYSTEMS = 8

    def __init__(self, seed):
        import diffsys.curves as curves
        import diffsys.systems as systems

        quartics = [("quartic", curves.PlaneQuartic.fermat()), ("quartic", curves.PlaneQuartic.klein())]

        def hyperelliptic(g):
            return ("hyperelliptic", curves.HyperellipticCurve.from_integers(range(2 * g + 1)))

        self.scan_curves = quartics + [hyperelliptic(g) for g in (3, 4, 5)]
        self.noether_curves = [hyperelliptic(g) for g in (3, 4, 5, 6)] + quartics
        self.genus2 = curves.HyperellipticCurve.from_integers(range(5))
        self.sl2 = systems.builtin_algebra("sl2")
        self.seed = seed

    def round(self, index):
        return [(index, index)]

    def run(self, k):
        import diffsys.multiplication as mult
        import diffsys.systems as systems

        base = self.seed * 100_003 + k
        scans = []
        for kind, curve in self.scan_curves:
            scan = mult.lazarsfeld_scan(curve, trials=self.SCAN_TRIALS, w_dim=3, seed=base, store_all=True)
            witnesses = [(t, [list(r) for r in rows], rank) for t, rows, rank in scan.all_witnesses]
            scans.append((kind, curve.genus, scan.w_dim, scan.successes, witnesses))
        noether = []
        for kind, curve in self.noether_curves:
            v = mult.noether_check(curve)
            noether.append((kind, curve.genus, v.rank, v.corank, v.surjective))
        criteria = []
        for j in range(self.CRITERION_SYSTEMS):
            system = systems.sample_system(
                self.genus2, self.sl2, seed=base * self.CRITERION_SYSTEMS + j, coefficient_bound=7
            )
            v = mult.criterion_injective(self.genus2, system)
            rows = [[int(e.re) for e in system.coefficients.row(i)] for i in range(3)]
            criteria.append((rows, v.v_dimension, v.theta_v_rank, v.holds))
        return False, {"scans": scans, "noether": noether, "criteria": criteria}


class ImmersionLadder:
    """Numerical side: fd step ladders at genus-2 centers that pass the
    criterion.  A round is one ladder per center; the centers are the first
    criterion-7 seeds and the workload seed fixes their order, so every run
    times the same ladders."""

    CENTER_SEEDS = (1, 2)
    STEPS = (1e-4, 1e-5, 1e-6)

    def __init__(self, seed):
        import diffsys.immersion as immersion

        order = list(self.CENTER_SEEDS)
        random.Random(seed).shuffle(order)
        self.centers = [(s, immersion.make_center(seed=s, require_criterion=True)) for s in order]

    def round(self, index):
        return self.centers

    def run(self, center):
        import diffsys.immersion as immersion

        ladder = immersion.fd_step_ladder(center, self.STEPS, ode_tol=1e-12)
        jacobians = [r.jacobian.to_numpy().real.tolist() for r in ladder.reports]
        return False, {"ladder": ladder.to_json(), "jacobians": jacobians}


class MonodromyCli:
    """The monodromy subcommand, called in-process on a genus-3 curve.

    A round is one call per system seed in CLI_SEEDS, in an order fixed by
    the workload seed.  The seed set does not depend on the workload seed:
    six of these seeds miss the validity gates at this scale and tolerance,
    and those calls fail the same way in every run.
    """

    BRANCH = "0,1,2,3,4,5,6"
    CLI_SEEDS = tuple(range(16))
    # diagonal system sum_k h_k x^k dx/y * H for the once-per-run abelian check
    ABELIAN_H = ((1, 4), (-1, 8), (1, 8))

    def __init__(self, seed):
        import diffsys.cli  # noqa: F401  (the import a CLI user pays)

        self.order = list(self.CLI_SEEDS)
        random.Random(seed).shuffle(self.order)
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        os.makedirs(TMP_DIR)

    def round(self, index):
        return [(s, s) for s in self.order]

    def _call(self, argv, path):
        import diffsys.cli as cli

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--threads", "1", "--out", path])
        report = None
        if os.path.exists(path):
            with open(path) as fh:
                report = fh.read()
            os.unlink(path)
        return code != 0, {"code": code, "report": report, "stderr": err.getvalue()}

    def run(self, seed):
        path = os.path.join(TMP_DIR, f"monodromy-{seed}.json")
        return self._call(["monodromy", "--branch-points", self.BRANCH, "--seed", str(seed)], path)

    def finish(self):
        """The abelian system's report, for the check against quadrature."""
        from fractions import Fraction

        import diffsys.curves as curves
        import diffsys.field as field
        import diffsys.systems as systems

        curve = curves.HyperellipticCurve.from_integers(range(7))
        h = [field.ExactScalar.of(Fraction(*c)) for c in self.ABELIAN_H]
        zero = [field.ExactScalar.of(0)] * len(h)
        system = systems.DifferentialSystem(
            curve, systems.builtin_algebra("sl2"), field.ExactMatrix.from_rows([h, zero, zero])
        )
        system_path = os.path.join(TMP_DIR, "abelian-system.json")
        with open(system_path, "w") as fh:
            json.dump(systems.system_to_json(system), fh)
        _, output = self._call(
            ["monodromy", "--branch-points", self.BRANCH, "--system-json", system_path],
            os.path.join(TMP_DIR, "abelian.json"),
        )
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        output["h"] = [list(c) for c in self.ABELIAN_H]
        return output


WORKLOADS = {
    "exact_scan": ExactScan,
    "immersion_ladder": ImmersionLadder,
    "monodromy_cli": MonodromyCli,
}


# -- the run ------------------------------------------------------------------------


def _import_program():
    """Import diffsys from the checkout's src directory, or exit 3."""
    try:
        import diffsys
    except ImportError as err:
        print(f"bench: cannot import diffsys from {SRC}: {err}", file=sys.stderr)
        sys.exit(3)
    if not os.path.abspath(diffsys.__file__).startswith(SRC + os.sep):
        print(f"bench: diffsys imported from {diffsys.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(3)


def _peak_rss_mb():
    """Peak resident memory of this process since exec (VmHWM).  ru_maxrss
    would not do: Linux carries the launching process's peak over fork and
    exec into it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true", help="stop after the first op that completes")
    args = parser.parse_args(argv)

    _import_program()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    _emit("READY")
    if args.setup_only:
        return 0

    # timed phase: whole rounds, until a round ends past the run length
    attempted = 0
    start = time.perf_counter()
    index = 0
    done = False
    while not done:
        for label, op_input in workload.round(index):
            if tracer is not None:
                tracer.op = attempted
            t0 = time.perf_counter()
            try:
                failed, output = workload.run(op_input)
            except Exception:
                traceback.print_exc()
                failed, output = True, None
            seconds = time.perf_counter() - t0
            attempted += 1
            _emit({"op": label, "seconds": seconds, "failed": failed, "output": output})
            if args.quick and not failed:
                done = True
                break
        index += 1
        done = done or args.quick or time.perf_counter() - start >= args.seconds
    timed_s = time.perf_counter() - start
    summary = {
        "timed_s": timed_s,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            metrics = json.load(fh)["per_layer"]
        # per op of the run, set-up included; ratios as they are
        summary["per_layer"] = {
            m["name"]: tracer.value(m["name"]) / (1 if m["unit"] == "ratio" else attempted)
            for m in metrics
        }
    # once per run, after the timed phase and the trace
    if hasattr(workload, "finish"):
        summary["finish"] = workload.finish()
    _emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
