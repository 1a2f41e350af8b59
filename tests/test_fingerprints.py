"""Exact-side outputs pinned by sha256.

The exact side is integer and rational arithmetic only, so these digests do
not depend on the machine: any changed bit of a structure constant, a gauge
conjugation, a criterion verdict, a theta matrix or a scan's draws and ranks
changes them.  The first three are the digests that the CI step "Exact-side
counts and fingerprints" prints.
"""

import hashlib
import json
import random
from fractions import Fraction

from diffsys.curves import HyperellipticCurve, PlaneQuartic
from diffsys.field import ExactMatrix, ExactScalar
from diffsys.multiplication import (
    SubspaceSelection,
    criterion_injective,
    lazarsfeld_scan,
    theta_matrix,
)
from diffsys.systems import builtin_algebra, conjugate_system, sample_system


def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


G2 = HyperellipticCurve.from_integers(range(5))
ALGEBRAS = {n: builtin_algebra(n) for n in ("sl2", "gl2", "sl3")}


def test_structure_constants():
    tables = [
        [[[c.to_json() for c in row] for row in plane] for plane in lie.structure_constants]
        for lie in ALGEBRAS.values()
    ]
    assert sha(tables) == "d1dadf857502733c36dc2793710152d149751dd03da72ec4d0607f9635956d34"


def test_conjugate_system():
    s = ExactMatrix.from_rows(
        [[ExactScalar.of(2), ExactScalar.of(1, 1)], [ExactScalar.of(-1), ExactScalar.of(3)]]
    )
    conjugated = [
        conjugate_system(sample_system(G2, ALGEBRAS[n], seed, 5), s).coefficients.to_json()
        for n in ("sl2", "gl2")
        for seed in range(10)
    ]
    assert sha(conjugated) == "4aabd7b07166c56ccd31b88ac0efe1f1a6a57b9bf147a7892e2aa00c82f04a51"


def test_criterion_verdicts():
    verdicts = [
        criterion_injective(G2, sample_system(G2, ALGEBRAS["sl2"], seed, bound)).to_json()
        for bound in (1, 5)
        for seed in range(40)
    ]
    assert sha(verdicts) == "0592a342bf12802bc2435d494483c6021d147a1b56f84938c6207de9f1916368"


def test_theta_matrices():
    """Four seeded Gaussian-rational W on each of odd and even genus 2-5,
    Fermat and Klein: 40 matrices with their ranks."""
    table_curves = [
        HyperellipticCurve.from_integers([k * k + 1 for k in range(n)])
        for g in range(2, 6)
        for n in (2 * g + 1, 2 * g + 2)
    ] + [PlaneQuartic.fermat(), PlaneQuartic.klein()]
    rng = random.Random("theta fingerprint")

    def scalar():
        return ExactScalar.of(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )

    out = []
    for curve in table_curves:
        g = curve.genus
        for _ in range(4):
            while True:
                gens = tuple(
                    tuple(scalar() for _ in range(g)) for _ in range(rng.randint(1, g))
                )
                try:
                    w = SubspaceSelection(curve, gens)
                    break
                except ValueError:
                    continue
            theta = theta_matrix(curve, w)
            out.append([theta.matrix.to_json(), theta.rank])
    assert len(out) == 40
    assert sha(out) == "70de7a0815be59443cf105e217d0806f426812fd092cd52890f2e074c0f7c9a6"


def test_scans():
    """Every draw and rank of 8-trial scans on the benchmark's five scan
    curves (Fermat, Klein, hyperelliptic 0..2g for g = 3, 4, 5), seeds 0..3."""
    scan_curves = [PlaneQuartic.fermat(), PlaneQuartic.klein()] + [
        HyperellipticCurve.from_integers(range(2 * g + 1)) for g in (3, 4, 5)
    ]
    witnesses = [
        lazarsfeld_scan(curve, trials=8, w_dim=3, seed=seed, store_all=True).all_witnesses
        for curve in scan_curves
        for seed in range(4)
    ]
    assert sha(witnesses) == "57e2fe04abcde16add7eaa8d510982dbf3560beea9a96594b9ccaa9725bc24a1"
