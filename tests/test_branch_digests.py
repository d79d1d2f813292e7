"""Committed digests of the exact-measure side of every enumerable family.

For each configuration of `test_step_families.ENUMERABLE_CASES` (every
family but Brun's, at p in {2, 3, 5}) one line of `golden/branch_digests.txt`
hashes

* the rows of `enumerate_branches` at the largest bound p**j (j <= 15) that
  lists at most BRANCHES_PER_CASE branches: each digit, its `LftParams`, its
  iota and its `HyperbolicCert`;
* the pieces of `preimage_cylinder` for those branches, taken in order while
  a branch has at most MAX_BRANCH_PIECES pieces and the running total stays
  within PIECES_PER_CYLINDER, on one seeded uniform cylinder per level 1..4:
  each ball's digit form (_clo, _cunit, level) and each piece's measure.

Branches with p**h > 1 pieces are included, so the lines cover both the
one-piece and the many-piece construction.

Regenerate the digest file only when a change to the outputs is intended:

    PYTHONPATH=src python tests/test_branch_digests.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from padic_cf import (
    PrimeCtx,
    branch_counts,
    certify_hyperbolic,
    enumerate_branches,
    format_rational,
    iota,
    measure,
    preimage_cylinder,
)
from padic_cf.cfsystems import digit_to_obj
from test_step_families import ENUMERABLE_CASES, _cylinders_at_levels_1_to_4

DIGESTS = Path(__file__).parent / "golden" / "branch_digests.txt"
CASE_IDS = [f"{name}-p{p}" for name, _, p in ENUMERABLE_CASES]
BRANCHES_PER_CASE = 600
MAX_BRANCH_PIECES = 27
PIECES_PER_CYLINDER = 400


def case_digest(name, make, p) -> str:
    ctx = PrimeCtx(p)
    spec = make(ctx)
    top = max(
        j
        for j in range(spec.m + 1, 16)
        if sum(branch_counts(spec, p**j).values()) <= BRANCHES_PER_CASE
    )
    branches = enumerate_branches(spec, p**top)
    rows, kept, pieces = [], [], 0
    for d, f in branches:
        cert = certify_hyperbolic(f)
        rows.append(
            [digit_to_obj(d), f.to_obj(), format_rational(iota(f)), [cert.u, cert.v, cert.h]]
        )
        if p**cert.h <= MAX_BRANCH_PIECES and pieces + p**cert.h <= PIECES_PER_CYLINDER:
            kept.append(f)
            pieces += p**cert.h
    multi = sum(p ** certify_hyperbolic(f).h > 1 for f in kept)
    rng = random.Random(f"branch-digest/{name}/p{p}")
    sums = [
        [
            [[[b._clo, b._cunit, b.level] for b in piece.balls], format_rational(measure(piece))]
            for f in kept
            for piece in preimage_cylinder(f, c)
        ]
        for c in _cylinders_at_levels_1_to_4(rng, ctx, spec.m)
    ]
    text = json.dumps([rows, sums], separators=(",", ":"), sort_keys=True)
    return (
        f"{name} p={p} bound={p}^{top} branches={len(rows)} kept={len(kept)} "
        f"multi_piece={multi} pieces={4 * pieces} "
        f"sha256={hashlib.sha256(text.encode()).hexdigest()}"
    )


def _golden_lines():
    return DIGESTS.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("name,make,p", ENUMERABLE_CASES, ids=CASE_IDS)
def test_branch_digest_matches_golden(name, make, p):
    line = case_digest(name, make, p)
    golden = [g for g in _golden_lines() if g.startswith(f"{name} p={p} ")]
    assert golden == [line]


def test_branch_digest_file_lists_every_case():
    assert [" ".join(g.split()[:2]) for g in _golden_lines()] == [
        f"{name} p={p}" for name, _, p in ENUMERABLE_CASES
    ]


def test_branch_digests_cover_many_piece_branches():
    # a construction used only for p**h > 1 must reach the digest too
    multi = [int(g.split("multi_piece=")[1].split()[0]) for g in _golden_lines()]
    assert sum(n > 0 for n in multi) >= 3


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_branch_digests.py --write")
    lines = [case_digest(name, make, p) for name, make, p in ENUMERABLE_CASES]
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {DIGESTS}")
