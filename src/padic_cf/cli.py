"""Command line front end: expansion, convergents, and statistics runs.

Output is machine readable (JSON lines or CSV) and byte-deterministic for a
fixed configuration and seed.  Exit codes: 0 success, 1 a statistics check
missed its tolerance, 2 malformed input or configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import cfsystems, ergodics
from .cfsystems import (
    Digit1D,
    SystemSpec,
    convergents,
    digit_from_obj,
    digit_to_obj,
    enumerate_branches,
    expand,
    expansion_records,
)
from .lft import iota
from .errors import PadicError, ShardProcessDied
from .padic_core import (
    INF,
    PrimeCtx,
    format_rational,
    haar_sample_vector,
    is_prime,
    parse_rational,
    valuation,
)

CSV_HEADER = "check,p,l,m,estimate,stderr,theoretical,pass"

# Most branches the literal iota-sum check lists (21,844 take about 2 s).
IOTA_SUM_BRANCH_CAP = 50_000


class CliError(Exception):
    pass


def _parse_ell(s: str):
    if s == "inf":
        return INF
    try:
        v = int(s)
    except ValueError:
        raise CliError(f"invalid --l value {s!r}")
    if v < 0:
        raise CliError("--l must be >= 0 or 'inf'")
    return v


def _count(s: str) -> int:
    """argparse type for counts that must be >= 1; argparse prefixes the flag."""
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {s!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _prime(s: str) -> int:
    """argparse type for --p; argparse prefixes the flag."""
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a prime, got {s!r}")
    if not is_prime(v):
        raise argparse.ArgumentTypeError(f"must be prime, got {v}")
    return v


def _bound(s: str) -> int:
    """argparse type for an iota bound, N or B^E with integers and E >= 0;
    argparse prefixes the flag."""
    base, sep, expo = s.partition("^")
    try:
        b, e = int(base), (int(expo) if sep else 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or B^E with integers, got {s!r}")
    if e < 0:
        raise argparse.ArgumentTypeError(f"exponent must be >= 0, got {s!r}")
    return b**e


# systems whose depth parameter is not a flag, and why
_NO_L = {"schneider": "fixes l = 0", "ruban": "fixes l = inf", "brun": "has no depth parameter"}


def _build_spec(args) -> SystemSpec:
    ctx = PrimeCtx(args.p)
    system = args.system
    if args.l is not None and system in _NO_L:
        raise CliError(f"argument --l: --system {system} {_NO_L[system]}")
    if args.m != 1 and system in ("schneider", "ruban"):
        raise CliError(f"argument --m: --system {system} is one-dimensional, got {args.m}")
    ell = _parse_ell(args.l) if args.l is not None else None
    if system == "schneider":
        return SystemSpec.schneider(ctx)
    if system == "ruban":
        return SystemSpec.ruban(ctx)
    if system == "tl":
        if ell is None:
            raise CliError("--system tl requires --l")
        if args.m > 1:
            return SystemSpec.multi_dim(ctx, ell, args.m)
        return SystemSpec.one_dim(ctx, ell)
    if system == "jacobi-perron":
        return SystemSpec.multi_dim(ctx, INF if ell is None else ell, args.m)
    if system == "brun":
        return SystemSpec.brun(ctx, args.m)
    raise CliError(f"unknown system {system!r}")


def _parse_point(spec: SystemSpec, tokens: list[str], seed: int, name: str = "point") -> tuple:
    """Point input, as a coordinate tuple: one 'num/den' per coordinate, or a
    single 'random:N'.  Errors name the argument `name`."""
    if len(tokens) == 1 and tokens[0].startswith("random:"):
        try:
            n = int(tokens[0].split(":", 1)[1])
        except ValueError:
            n = 0
        if n < 1:
            raise CliError(
                f"argument {name}: expected random:N with an integer N >= 1, got {tokens[0]!r}"
            )
        return haar_sample_vector(spec.ctx, spec.m, n, random.Random(seed))
    if len(tokens) == 1 and "," in tokens[0]:
        tokens = tokens[0].split(",")
    if len(tokens) != spec.m:
        raise CliError(f"argument {name}: expected {spec.m} coordinates, got {len(tokens)}")
    coords = []
    for t in tokens:
        try:
            x = parse_rational(t)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"argument {name}: cannot parse coordinate {t!r}")
        if x != 0 and valuation(x, spec.ctx) < 1:
            raise CliError(f"argument {name}: coordinate {t} is not in p*Z_p")
        coords.append(x)
    return tuple(coords)


def _emit(line: str, out):
    out.write(line + "\n")


def cmd_expand(args, out) -> int:
    spec = _build_spec(args)
    point = _parse_point(spec, args.point, args.seed)
    exp = expand(spec, point, args.steps)
    for rec in expansion_records(spec, exp):
        _emit(json.dumps(rec, separators=(",", ":")), out)
    status = {"status": exp.status, "step": exp.stopped_at}
    _emit(json.dumps(status, separators=(",", ":")), out)
    return 0


def cmd_convergents(args, out) -> int:
    spec = _build_spec(args)
    if args.digits == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.digits, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    digits = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise CliError(f"invalid digit record: {line!r}")
        if not isinstance(obj, dict):
            raise CliError(f"invalid digit record: {line!r}")
        if "digit" in obj:
            try:
                digits.append(digit_from_obj(obj["digit"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                raise CliError(f"invalid digit record: {line!r}")
        elif "status" in obj:
            continue
        else:
            raise CliError(f"invalid digit record: {line!r}")
    point = None
    if args.point is not None:
        point = _parse_point(spec, args.point, args.seed, "--point")
    for j, vec in enumerate(convergents(spec, digits)):
        coords = vec if isinstance(vec, tuple) else (vec,)
        cols = [str(j), " ".join(format_rational(c) for c in coords)]
        if point is not None:
            ords = []
            for c, x in zip(coords, point):
                diff = x - c
                if isinstance(diff, Fraction):
                    ords.append(valuation(diff, spec.ctx))
                else:  # an approximation: a lower bound, the true ord may be deeper
                    ords.append(diff.valuation_lower_bound())
            vmin = min(ords)
            cols.append("inf" if vmin == INF else str(vmin))
        _emit("\t".join(cols), out)
    return 0


def cmd_branches(args, out) -> int:
    spec = _build_spec(args)
    bound = spec.ctx.p**4 if args.bound is None else args.bound
    for digit, f in enumerate_branches(spec, bound):
        rec = {
            "digit": digit_to_obj(digit),
            "iota": format_rational(iota(f)),
            "lft": f.to_obj(),
        }
        _emit(json.dumps(rec, separators=(",", ":")), out)
    return 0


def _csv_row(out, check, p, l, m, estimate, stderr, theoretical, passed):
    theo = "" if theoretical is None else repr(float(theoretical))
    _emit(
        f"{check},{p},{l},{m},{repr(float(estimate))},{repr(float(stderr))},"
        f"{theo},{str(bool(passed)).lower()}",
        out,
    )


def _parse_word(text: str, flag: str):
    """Word syntax for 1-D systems: '(k,v)' letters separated by ';'."""
    letters = []
    for part in text.split(";"):
        part = part.strip().strip("()")
        if not part:
            continue
        try:
            k_s, v_s = part.split(",", 1)
            letters.append(Digit1D(int(k_s), parse_rational(v_s)))
        except (ValueError, ZeroDivisionError):
            raise CliError(
                f"argument {flag}: expected '(k,v)' letters separated by ';', got {text!r}"
            )
    return tuple(letters)


def cmd_stats(args, out) -> int:
    spec = _build_spec(args)
    p = spec.ctx.p
    ell_s = spec.ell_str
    rows = []
    if args.check == "digit-means":
        rep_a, rep_b = ergodics.digit_mean_reports(
            spec,
            args.samples,
            args.steps,
            args.seed,
            precision=args.precision,
            threads=args.threads,
        )
        for functional, rep in (("a", rep_a), ("b", rep_b)):
            rows.append(
                (
                    f"digit-mean-{functional}",
                    rep.estimate,
                    rep.stderr,
                    rep.theoretical,
                    rep.within(4.0),
                )
            )
    elif args.check == "iota-sum":
        # the literal sum over every branch against the sum of class counts
        bound = p**20 if args.bound is None else args.bound
        n_branches = sum(cfsystems.branch_counts(spec, bound).values())
        if n_branches > IOTA_SUM_BRANCH_CAP:
            raise CliError(
                f"argument --bound: the literal iota-sum would enumerate {n_branches} "
                f"branches at bound {bound}, more than {IOTA_SUM_BRANCH_CAP}; give a smaller --bound"
            )
        total = sum((1 / iota(f) for _, f in enumerate_branches(spec, bound)), Fraction(0))
        theo = ergodics.iota_sum(spec, bound)
        rows.append(("iota-sum", total, 0.0, theo, total == theo))
    elif args.check == "mixing":
        if spec.kind != cfsystems.ONE_DIM:
            raise CliError("mixing check expects a one-dimensional system")
        if not args.wordA or not args.wordB:
            raise CliError("mixing check requires --wordA and --wordB")
        A = ergodics.SymbolicCylinder(spec, _parse_word(args.wordA, "--wordA"))
        B = ergodics.SymbolicCylinder(spec, _parse_word(args.wordB, "--wordB"))
        rep = ergodics.mixing_exact(A, B, args.n, iota_bound=args.bound)
        passed = abs(rep.lhs - rep.rhs) <= rep.tail_bound
        rows.append(("mixing", rep.lhs, 0.0, rep.rhs, passed))
    elif args.check == "invariance":
        rng = random.Random(args.seed)
        for idx in range(args.cylinders):
            c = ergodics.random_cylinder(rng, spec.ctx, spec.m, max_level=3)
            rep = ergodics.invariance_mc(
                spec, c, args.samples, args.seed + 1000 * (idx + 1), threads=args.threads
            )
            rows.append(
                (f"invariance-{idx}", rep.estimate, rep.stderr, rep.theoretical, rep.within(4.0))
            )
    else:
        raise CliError(f"unknown check {args.check!r}")

    if args.format == "json":
        for check, est, se, theo, passed in rows:
            _emit(
                json.dumps(
                    {
                        "check": check,
                        "p": p,
                        "l": ell_s,
                        "m": spec.m,
                        "estimate": float(est),
                        "stderr": float(se),
                        "theoretical": None if theo is None else float(theo),
                        "pass": bool(passed),
                    },
                    separators=(",", ":"),
                ),
                out,
            )
    else:
        _emit(CSV_HEADER, out)
        for check, est, se, theo, passed in rows:
            _csv_row(out, check, p, ell_s, spec.m, est, se, theo, passed)
    return 0 if all(r[4] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-cf",
        description="p-adic continued fraction algorithms and their statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=_prime, required=True, help="prime base")
        sp.add_argument(
            "--system",
            required=True,
            choices=["schneider", "ruban", "tl", "jacobi-perron", "brun"],
        )
        sp.add_argument("--l", default=None, help="depth parameter, integer or 'inf'")
        sp.add_argument("--m", type=_count, default=None, help="dimension")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--precision", type=_count, default=None, help="digits for random points")
        sp.add_argument("--steps", type=_count, default=32)
        sp.add_argument("--threads", type=_count, default=1)

    sp_expand = sub.add_parser("expand", help="emit the digit stream of a point")
    common(sp_expand)
    sp_expand.add_argument("point", nargs="+", help="'num/den' per coordinate or random:N")

    sp_conv = sub.add_parser("convergents", help="exact convergents of a digit file")
    common(sp_conv)
    sp_conv.add_argument("digits", help="JSON-lines digit file, or - for stdin")
    sp_conv.add_argument(
        "--point",
        nargs="+",
        default=None,
        help="optional reference point; adds an ord(x - convergent) column",
    )

    sp_br = sub.add_parser("branches", help="enumerate branches up to an iota bound")
    common(sp_br)
    sp_br.add_argument("--bound", type=_bound, default=None, help="iota bound, e.g. 2^6 (default p^4)")

    sp_stats = sub.add_parser("stats", help="statistics checks with CSV/JSON output")
    common(sp_stats)
    sp_stats.add_argument(
        "--check",
        required=True,
        choices=["digit-means", "iota-sum", "mixing", "invariance"],
    )
    sp_stats.add_argument("--samples", type=_count, default=2000)
    sp_stats.add_argument("--bound", type=_bound, default=None, help="iota bound, e.g. 2^20")
    sp_stats.add_argument("--wordA", default=None)
    sp_stats.add_argument("--wordB", default=None)
    sp_stats.add_argument("--n", type=_count, default=1, help="iterate count for mixing")
    sp_stats.add_argument("--cylinders", type=_count, default=20)
    sp_stats.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _fill_defaults(args):
    if args.seed is None:
        env = os.environ.get("PADIC_CF_SEED")
        args.seed = int(env) if env else 0
    if args.m is None:
        args.m = 2 if args.system in ("jacobi-perron", "brun") else 1
    bound = getattr(args, "bound", None)
    if bound is not None and bound < args.p:
        raise CliError(f"argument --bound: must be at least p = {args.p}, got {bound}")
    if args.precision is None:
        args.precision = 4 * args.steps
    elif args.precision < 4 * args.steps:
        print(
            f"warning: precision {args.precision} below 4*steps = {4 * args.steps}",
            file=sys.stderr,
        )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state between
    calls.  build_parser itself still returns a fresh parser."""
    return build_parser()


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _fill_defaults(args)
        if args.command == "expand":
            return cmd_expand(args, out)
        if args.command == "convergents":
            return cmd_convergents(args, out)
        if args.command == "branches":
            return cmd_branches(args, out)
        if args.command == "stats":
            return cmd_stats(args, out)
        raise CliError(f"unknown command {args.command!r}")
    except NotImplementedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShardProcessDied as exc:
        print(f"error: {exc}; --threads 1 runs every shard in this process", file=sys.stderr)
        return 2
    except (CliError, PadicError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
