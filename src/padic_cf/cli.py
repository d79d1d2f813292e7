"""Command line front end: expansion, convergents, and statistics runs.

Output is machine readable (JSON lines or CSV) and byte-deterministic for a
fixed configuration and seed.  Exit codes: 0 success, 1 a statistics check
missed its tolerance, 2 malformed input or configuration, 141 the reader
closed the output pipe.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import cfsystems, ergodics
from .cfsystems import (
    Digit1D,
    SystemSpec,
    _coerce_point,
    _convergent_pairs,
    digit_from_obj,
    digit_to_obj,
    enumerate_branches,
    expand,
    expansion_records,
)
from .lft import iota
from .errors import (
    InsufficientData,
    InvalidDigit,
    PadicError,
    ShardProcessDied,
    WordTooShort,
)
from .padic_core import (
    INF,
    PrimeCtx,
    _intval,
    format_rational,
    haar_sample_vector,
    is_prime,
    parse_int,
    parse_rational,
    valuation,
)

# Most branches a command lists (21,844 take about 2 s).
BRANCH_CAP = 50_000


class CliError(argparse.ArgumentTypeError):
    """Malformed input: exit 2.  An argparse type may raise it too, and
    argparse then prefixes the flag."""


def _int(s: str, error: str) -> int:
    """s read by parse_int, the one rule for integer text from outside;
    CliError(error) if it does not read."""
    try:
        return parse_int(s)
    except ValueError:
        raise CliError(error) from None


def _count(s: str) -> int:
    """argparse type for counts that must be >= 1."""
    v = _int(s, f"expected an integer >= 1, got {s!r}")
    if v < 1:
        raise CliError(f"must be >= 1, got {v}")
    return v


def _prime(s: str) -> int:
    """argparse type for --p."""
    v = _int(s, f"expected a prime, got {s!r}")
    if not is_prime(v):
        raise CliError(f"must be prime, got {v}")
    return v


def _ell(s: str):
    """argparse type for --l, an integer >= 0 or 'inf'."""
    if s == "inf":
        return INF
    v = _int(s, f"expected an integer >= 0 or 'inf', got {s!r}")
    if v < 0:
        raise CliError(f"must be >= 0 or 'inf', got {s!r}")
    return v


def _bound(s: str) -> int:
    """argparse type for an iota bound, N or B^E with integers and E >= 0."""
    base, sep, expo = s.partition("^")
    error = f"expected N or B^E with integers, got {s!r}"
    b, e = _int(base, error), (_int(expo, error) if sep else 1)
    if e < 0:
        raise CliError(f"exponent must be >= 0, got {s!r}")
    return b**e


def _seed(s: str) -> int:
    """argparse type for --seed."""
    return _int(s, f"expected an integer, got {s!r}")


# --system name: (the spec it builds from (ctx, l, m), why it refuses --l or
# None when it requires --l, its default --m)
_SYSTEMS = {
    "schneider": (lambda ctx, l, m: SystemSpec.schneider(ctx), "fixes l = 0", 1),
    "ruban": (lambda ctx, l, m: SystemSpec.ruban(ctx), "fixes l = inf", 1),
    "tl": (
        lambda ctx, l, m: SystemSpec.multi_dim(ctx, l, m) if m > 1 else SystemSpec.one_dim(ctx, l),
        None,
        1,
    ),
    "jacobi-perron": (lambda ctx, l, m: SystemSpec.jacobi_perron(ctx, m), "fixes l = inf", 2),
    "brun": (lambda ctx, l, m: SystemSpec.brun(ctx, m), "has no depth parameter", 2),
}


def _build_spec(args) -> SystemSpec:
    build, no_l, default_m = _SYSTEMS[args.system]
    if args.l is not None and no_l is not None:
        raise CliError(f"argument --l: --system {args.system} {no_l}")
    if args.l is None and no_l is None:
        raise CliError(f"argument --l: required by --system {args.system}")
    m = default_m if args.m is None else args.m
    spec = build(PrimeCtx(args.p), args.l, m)
    if spec.m != m:
        raise CliError(f"argument --m: --system {args.system} is one-dimensional, got {m}")
    return spec


def _parse_point(spec: SystemSpec, tokens: list[str], seed: int, name: str = "point") -> tuple:
    """Point input, as a coordinate tuple: one 'num/den' per coordinate, or a
    single 'random:N'.  Errors name the argument `name`."""
    if len(tokens) == 1 and tokens[0].startswith("random:"):
        error = f"argument {name}: expected random:N with an integer N >= 1, got {tokens[0]!r}"
        n = _int(tokens[0].removeprefix("random:"), error)
        if n < 1:
            raise CliError(error)
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


def _quote_prefix(text: str) -> str:
    """repr(text), cut to its first 100 characters and marked as cut when it
    is longer."""
    if len(text) <= 100:
        return repr(text)
    return f"{text[:100]!r}... ({len(text)} characters)"


def cmd_convergents(args, out) -> int:
    spec = _build_spec(args)
    try:
        if args.digits == "-":
            text = sys.stdin.read()
        else:
            with open(args.digits, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise CliError(f"argument digits: cannot read {args.digits!r}: {reason}")
    digits = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if isinstance(obj, dict) and "digit" not in obj and "status" in obj:
                continue  # the status line that ends an expansion
            # a record that is not an object fails the lookup with TypeError
            digits.append(digit_from_obj(obj["digit"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError):
            raise CliError(f"invalid digit record: {_quote_prefix(line)}") from None
    if args.point is not None:
        x0, point = _coerce_point(spec, _parse_point(spec, args.point, args.seed, "--point"))
    p = spec.ctx.p
    for j, pairs in enumerate(_convergent_pairs(spec, digits)):
        # each coordinate is the reduced pair (num, den) of format_rational's text
        cols = [str(j), " ".join([f"{num}/{den}" for num, den in pairs])]
        if args.point is not None:
            ords = []
            for (lo, unit, prec), (num, den) in zip(point, pairs):
                # x - num/den = n / (x0 * den), and x0 and den are prime to p;
                # an exact zero has lo = inf and unit 0
                n = (unit and unit * den * p**lo) - x0 * num
                ords.append(min(_intval(n, p) if n else INF, prec))
            vmin = min(ords)
            cols.append("inf" if vmin == INF else str(vmin))
        _emit("\t".join(cols), out)
    return 0


def _int_text(n: int) -> str:
    """n >= 0 in decimal up to 50 digits; above that '2^E' for a power of 2,
    else '> 2^E' with 2^E <= n, a form that Python's integer-to-text limit
    (4,300 digits) cannot refuse."""
    if n < 10**50:
        return str(n)
    e = n.bit_length() - 1
    return f"2^{e}" if n == 1 << e else f"> 2^{e}"


def _check_branch_cap(spec: SystemSpec, bound: int, what: str) -> None:
    """Refuse a bound at which branch_counts finds more than BRANCH_CAP branches."""
    try:
        n_branches = sum(cfsystems.branch_counts(spec, bound).values())
    except NotImplementedError as exc:  # Brun
        raise CliError(f"argument --system: {exc}")
    if n_branches > BRANCH_CAP:
        raise CliError(
            f"argument --bound: {what} would enumerate {_int_text(n_branches)} branches at "
            f"bound {_int_text(bound)}, more than {BRANCH_CAP}; give a smaller --bound"
        )


def cmd_branches(args, out) -> int:
    spec = _build_spec(args)
    p = spec.ctx.p
    bound = p**4 if args.bound is None else args.bound
    _check_branch_cap(spec, bound, "the listing")
    top = cfsystems._top_exponent(p, bound)
    limit = sys.get_int_max_str_digits()  # 0 for no limit
    if limit and p**top >= 10**limit:  # iota p**top is the longest integer a record prints
        raise CliError(
            f"argument --bound: the listing would print iota {p}^{top}, more than the "
            f"{limit} digits Python turns into text; give a smaller --bound"
        )
    for digit, f in enumerate_branches(spec, bound):
        rec = {
            "digit": digit_to_obj(digit),
            "iota": format_rational(iota(f)),
            "lft": f.to_obj(),
        }
        _emit(json.dumps(rec, separators=(",", ":")), out)
    return 0


def _parse_cylinder(spec: SystemSpec, text: str, flag: str):
    """The symbolic cylinder of a word: '(k,v)' letters separated by ';', for
    1-D systems; a part that is empty after a strip is skipped, and any other
    part must be exactly one '(k,v)'.  Errors name the flag."""
    letters = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            if part[0] + part[-1] != "()":
                raise ValueError(part)
            k_s, v_s = part[1:-1].split(",", 1)
            letters.append(Digit1D(parse_int(k_s), parse_rational(v_s)))
        except (ValueError, ZeroDivisionError):
            raise CliError(
                f"argument {flag}: expected '(k,v)' letters separated by ';', got {text!r}"
            )
    try:
        return ergodics.SymbolicCylinder(spec, letters)
    except InvalidDigit as exc:
        raise CliError(f"argument {flag}: {exc}")


def _require_one_dim(spec: SystemSpec, args, refusal: str):
    """Refuse a multi-dimensional family; at --m 1 it is Ruban's map."""
    if spec.kind != cfsystems.ONE_DIM:
        if spec.m == 1:
            raise CliError(
                f"argument --m: --check {args.check} runs on one-dimensional systems only; "
                f"--system {args.system} --m 1 is the map of --system ruban, use that"
            )
        raise CliError(f"argument --system: {refusal}")


def cmd_stats(args, out) -> int:
    spec = _build_spec(args)
    p = spec.ctx.p
    rows = []

    def row(check, estimate, stderr, theoretical, passed) -> dict:
        """One output row; its keys are the CSV header."""
        return {
            "check": check,
            "p": p,
            "l": spec.ell_str,
            "m": spec.m,
            "estimate": float(estimate),
            "stderr": float(stderr),
            "theoretical": float(theoretical),
            "pass": bool(passed),
        }

    if args.check == "digit-means":
        _require_one_dim(spec, args, "digit observables are defined for one-dimensional systems")
        if args.precision is not None and args.precision < 4 * args.steps:
            print(
                f"warning: precision {args.precision} below 4*steps = {4 * args.steps}",
                file=sys.stderr,
            )
        try:
            rep_a, rep_b = ergodics.digit_mean_reports(
                spec,
                args.samples,
                args.steps,
                args.seed,
                precision=args.precision,
                threads=args.threads,
            )
        except InsufficientData as exc:
            if args.precision is None:
                raise
            raise CliError(f"argument --precision: {exc}")
        for name, rep in (("digit-mean-a", rep_a), ("digit-mean-b", rep_b)):
            rows.append(row(name, rep.estimate, rep.stderr, rep.theoretical, rep.within(4.0)))
    elif args.check == "iota-sum":
        # the literal sum over every branch against the sum of class counts
        bound = p**20 if args.bound is None else args.bound
        _check_branch_cap(spec, bound, "the literal iota-sum")
        total = sum((1 / iota(f) for _, f in enumerate_branches(spec, bound)), Fraction(0))
        theo = ergodics.iota_sum(spec, bound)
        rows.append(row("iota-sum", total, 0.0, theo, total == theo))
    elif args.check == "mixing":
        _require_one_dim(spec, args, "mixing check expects a one-dimensional system")
        for flag, word in (("--wordA", args.wordA), ("--wordB", args.wordB)):
            if not word:
                raise CliError(f"argument {flag}: required by --check mixing")
        A = _parse_cylinder(spec, args.wordA, "--wordA")
        B = _parse_cylinder(spec, args.wordB, "--wordB")
        try:
            rep = ergodics.mixing_exact(A, B, args.n, iota_bound=args.bound)
        except WordTooShort as exc:
            raise CliError(f"argument --n: {exc}, the length of --wordB")
        passed = abs(rep.lhs - rep.rhs) <= rep.tail_bound
        rows.append(row("mixing", rep.lhs, 0.0, rep.rhs, passed))
    else:  # invariance
        rng = random.Random(args.seed)
        for idx in range(args.cylinders):
            c = ergodics.random_cylinder(rng, spec.ctx, spec.m, max_level=3)
            rep = ergodics.invariance_mc(
                spec, c, args.samples, args.seed + 1000 * (idx + 1), threads=args.threads
            )
            rows.append(
                row(f"invariance-{idx}", rep.estimate, rep.stderr, rep.theoretical, rep.within(4.0))
            )

    if args.format == "json":
        for r in rows:
            _emit(json.dumps(r, separators=(",", ":")), out)
    else:
        _emit(",".join(rows[0]), out)
        for r in rows:
            # str of a float is its repr; booleans print lower-case
            cells = (str(v).lower() if isinstance(v, bool) else str(v) for v in r.values())
            _emit(",".join(cells), out)
    return 0 if all(r["pass"] for r in rows) else 1


# flags beside the system flags, each registered only by the commands that read it
_RUN_FLAGS = {
    "--seed": {"type": _seed, "default": None},
    "--steps": {"type": _count, "default": 32},
    "--precision": {"type": _count, "default": None, "help": "digits of digit-means orbits"},
    "--threads": {"type": _count, "default": 1},
}


# argparse reads a token that starts with '-' as an option unless it matches
# the parser's negative-number pattern, by default only '-N' and '-N.N'.  The
# parsers that take points widen it to any '-' then a digit, so a coordinate
# such as -6/5 is a value; none of their flags starts that way.
_NEGATIVE_VALUE = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-cf",
        description="p-adic continued fraction algorithms and their statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *flags):
        """The system flags, then those of `flags` (keys of _RUN_FLAGS)."""
        sp.add_argument("--p", type=_prime, required=True, help="prime base")
        sp.add_argument(
            "--system",
            required=True,
            choices=list(_SYSTEMS),
        )
        sp.add_argument("--l", type=_ell, default=None, help="depth parameter, integer or 'inf'")
        sp.add_argument("--m", type=_count, default=None, help="dimension")
        for flag in flags:
            sp.add_argument(flag, **_RUN_FLAGS[flag])

    sp_expand = sub.add_parser("expand", help="emit the digit stream of a point")
    sp_expand._negative_number_matcher = _NEGATIVE_VALUE
    common(sp_expand, "--seed", "--steps")
    sp_expand.add_argument("point", nargs="+", help="'num/den' per coordinate or random:N")

    sp_conv = sub.add_parser("convergents", help="exact convergents of a digit file")
    sp_conv._negative_number_matcher = _NEGATIVE_VALUE
    common(sp_conv, "--seed")
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
    common(sp_stats, "--seed", "--steps", "--precision", "--threads")
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
    if "seed" in args and args.seed is None:
        env = os.environ.get("PADIC_CF_SEED")
        args.seed = _int(env, f"PADIC_CF_SEED: expected an integer, got {env!r}") if env else 0
    bound = getattr(args, "bound", None)
    if bound is not None and bound < args.p:
        raise CliError(f"argument --bound: must be at least p = {args.p}, got {bound}")


@functools.lru_cache(maxsize=2)
def _parser(build) -> argparse.ArgumentParser:
    """The parser of build, built once per builder (parse_args keeps no
    state between calls).  main passes build_parser as it reads at the call,
    so a builder swapped in after a run gets a parser of its own."""
    return build()


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser(build_parser).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _fill_defaults(args)
        commands = {"expand": cmd_expand, "convergents": cmd_convergents, "branches": cmd_branches}
        code = commands.get(args.command, cmd_stats)(args, out)
        out.flush()  # a closed pipe raises here rather than at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe, which is no fault of the input: end
        # quietly, with stdout on devnull so the flush at exit cannot fail
        if out is sys.stdout:
            try:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            except (OSError, ValueError):  # a stdout without a file descriptor
                pass
        return 141  # 128 + SIGPIPE
    except ShardProcessDied as exc:
        print(f"error: {exc}; --threads 1 runs every shard in this process", file=sys.stderr)
        return 2
    except (
        CliError, PadicError, NotImplementedError, ValueError, ZeroDivisionError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
