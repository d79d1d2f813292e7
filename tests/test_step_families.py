"""The step of every family against independent references.

Two checks run over the same twelve family/ell/m configurations at
p in {2, 3, 5}:

* an oracle: on seeded Haar orbits, the next point of `step` equals the
  emitted branch evaluated forwards, `apply_forward(branch_lft(spec, d), x)`,
  in `PadicApprox` arithmetic (value and absolute precision);
* committed digests: the digits, next points (with their precision) and
  stopping errors of seeded orbits hash to the lines of
  `golden/step_digests.txt`.

The same configurations check the integer path of the cylinder Monte Carlo
against `step` and `ProductCylinder.contains`: sample by sample on
low-precision points, and report by report against a reference loop.

Regenerate the digest file only when a change to the outputs is intended:

    PYTHONPATH=src python tests/test_step_families.py --write
"""

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padic_cf import (
    ExpansionTerminated,
    PadicApprox,
    PadicError,
    PrecisionExhausted,
    PrimeCtx,
    SystemSpec,
    apply_forward,
    branch_lft,
    expand,
    expansion_records,
    format_approx,
    format_rational,
    haar_sample_vector,
    invariance_mc,
    membership_mc,
    pivot_valuation,
    random_cylinder,
    step,
)
from padic_cf.cfsystems import digit_to_obj, step_core

DIGESTS = Path(__file__).parent / "golden" / "step_digests.txt"

CONFIGS = (
    ("schneider", lambda ctx: SystemSpec.schneider(ctx)),
    ("ruban", lambda ctx: SystemSpec.ruban(ctx)),
    ("t1", lambda ctx: SystemSpec.one_dim(ctx, 1)),
    ("t2", lambda ctx: SystemSpec.one_dim(ctx, 2)),
    ("tlm-l1-m1", lambda ctx: SystemSpec.multi_dim(ctx, 1, 1)),
    ("tlm-l0-m2", lambda ctx: SystemSpec.multi_dim(ctx, 0, 2)),
    ("tlm-l1-m2", lambda ctx: SystemSpec.multi_dim(ctx, 1, 2)),
    ("tlm-l1-m3", lambda ctx: SystemSpec.multi_dim(ctx, 1, 3)),
    ("jp-m2", lambda ctx: SystemSpec.jacobi_perron(ctx, 2)),
    ("jp-m3", lambda ctx: SystemSpec.jacobi_perron(ctx, 3)),
    ("brun-m2", lambda ctx: SystemSpec.brun(ctx, 2)),
    ("brun-m3", lambda ctx: SystemSpec.brun(ctx, 3)),
)
PRIMES = (2, 3, 5)
CASES = [(name, make, p) for name, make in CONFIGS for p in PRIMES]
CASE_IDS = [f"{name}-p{p}" for name, _, p in CASES]


def _rational_point(rng, p, m):
    """A point of (p*Z_p)^m with small exact rational coordinates."""
    coords = []
    for _ in range(m):
        while True:
            num, den = rng.randint(1, 60), rng.randint(1, 60)
            if num % p and den % p:
                break
        coords.append(Fraction(num * p ** rng.randint(1, 3), den))
    return tuple(coords)


def _value_text(x) -> str:
    return format_approx(x) if isinstance(x, PadicApprox) else format_rational(x)


def _orbit_records(spec, x, max_steps):
    """One record per step: the digit and the next point, or the error raised."""
    out = []
    for _ in range(max_steps):
        try:
            d, x = step(spec, x)
        except PadicError as exc:
            out.append(type(exc).__name__)
            break
        out.append([digit_to_obj(d), [_value_text(c) for c in x]])
    return out


def case_digest(name, make, p) -> str:
    """Digest line of one configuration: Haar orbits at precisions 6, 12 and
    40 digits plus exact rational orbits, each run for up to 40 steps."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    records = []
    for prec in (6, 12, 40):
        rng = random.Random(f"{name}/p{p}/n{prec}")
        for _ in range(6):
            records.append(_orbit_records(spec, haar_sample_vector(ctx, spec.m, prec, rng), 40))
    rng = random.Random(f"{name}/p{p}/exact")
    for _ in range(4):
        records.append(_orbit_records(spec, _rational_point(rng, p, spec.m), 40))
    steps = sum(len(r) for r in records)
    text = json.dumps(records, separators=(",", ":"), sort_keys=True)
    return f"{name} p={p} records={steps} sha256={hashlib.sha256(text.encode()).hexdigest()}"


def _golden_lines():
    return DIGESTS.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_expansion_digest_matches_golden(name, make, p):
    line = case_digest(name, make, p)
    golden = [g for g in _golden_lines() if g.startswith(f"{name} p={p} ")]
    assert golden == [line]


def test_digest_file_lists_every_case():
    assert [" ".join(g.split()[:2]) for g in _golden_lines()] == [
        f"{name} p={p}" for name, _, p in CASES
    ]


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_next_point_is_the_branch_applied_forwards(name, make, p):
    """150 steps per configuration, each checked in p-adic arithmetic."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"oracle/{name}/p{p}")
    checked = 0
    while checked < 150:
        x = haar_sample_vector(ctx, spec.m, 120, rng)
        for _ in range(15):
            if checked == 150:
                break
            try:
                d, nxt = step(spec, x)
            except PadicError:
                break
            assert apply_forward(branch_lft(spec, d), x) == nxt
            checked += 1
            x = nxt
    assert checked == 150


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_expansion_records_read_the_pivot_depth(name, make, p):
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"records/{name}/p{p}")
    for _ in range(5):
        exp = expand(spec, haar_sample_vector(ctx, spec.m, 60, rng), 12)
        depths = [rec["ord_consumed"] for rec in expansion_records(spec, exp)]
        assert depths == [pivot_valuation(spec, d) for d in exp.digits]


def _outcome(fn):
    try:
        return fn()
    except (PrecisionExhausted, ExpansionTerminated) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_integer_sample_path_matches_step_and_contains(name, make, p):
    """Sample by sample, on points of 1 to 6 digits, so that steps and
    membership tests run out of precision: step_core asked for the digits
    below max(c.levels), then ProductCylinder.contains_digits on its
    unnormalised triples, decides as step then ProductCylinder.contains does
    (True, False or the error raised)."""
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"integer/{name}/p{p}")
    seen = set()
    for _ in range(25):
        c = random_cylinder(rng, ctx, spec.m, max_level=4)
        want = max(c.levels)
        for n_digits in (1, 2, 3, 4, 6):
            for _ in range(4):
                units = [rng.randrange(p**n_digits) for _ in range(spec.m)]
                x = tuple(PadicApprox(ctx, 1, u, n_digits + 1) for u in units)
                triples = [(1, u, n_digits + 1) for u in units]
                direct = _outcome(lambda: c.contains(x))
                assert _outcome(lambda: c.contains_digits(triples)) == direct
                image = _outcome(lambda: c.contains(step(spec, x)[1]))
                assert _outcome(lambda: c.contains_digits(step_core(spec, triples, want)[3])) == image
                seen.update((direct, image))
    assert {True, False, "PrecisionExhausted"} <= seen


def _reference_mc(spec, c, n_samples, seed, preimage):
    """(hits, done) of one shard, written with the value types: Haar samples,
    step and ProductCylinder.contains, dropping samples that raise."""
    rng = random.Random(seed)
    hits = done = 0
    for _ in range(n_samples):
        x = haar_sample_vector(spec.ctx, spec.m, max(c.levels) + 48, rng)
        try:
            inside = c.contains(step(spec, x)[1] if preimage else x)
        except (PrecisionExhausted, ExpansionTerminated):
            continue
        hits += inside
        done += 1
    return hits, done


@pytest.mark.parametrize("name,make,p", CASES, ids=CASE_IDS)
def test_cylinder_mc_matches_reference_loop(name, make, p):
    ctx = PrimeCtx(p)
    spec = make(ctx)
    rng = random.Random(f"mc/{name}/p{p}")
    for _ in range(2):
        c = random_cylinder(rng, ctx, spec.m, max_level=3)
        seed = rng.randrange(10**6)
        for mc, preimage in ((invariance_mc, True), (membership_mc, False)):
            rep = mc(spec, c, 300, seed)
            hits, done = _reference_mc(spec, c, 300, seed, preimage)
            est = Fraction(hits, done)
            assert (rep.estimate, rep.n_samples) == (float(est), done)
            assert rep.stderr == math.sqrt(float(est * (1 - est)) / done)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_step_families.py --write")
    lines = [case_digest(name, make, p) for name, make, p in CASES]
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {DIGESTS}")
