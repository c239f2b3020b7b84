"""Command-line surface: chain, compute, count, verify, table, bench.

Output on stdout is canonical and byte-identical across runs and worker
counts; anything diagnostic goes to stderr.  Exit codes: 0 ok, 1 a requested
verification failed, 2 invalid input (including non-regular partitions),
3 the term cap was exceeded by the folding pairs or the fillings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .chain import (
    InternalInvariantError,
    NonRegularError,
    Partition,
    build_chain,
    render_chain,
)
from .compression import verify_all_classes
from .fillings import check_filling_cap, compressed_sum
from .oracle import check_specializations
from .parallel import parallel_count, resolve_jobs
from .qt import (
    RationalQT,
    SymFun,
    monomial_json_obj,
    rational_str,
    rational_zero,
    symfun_str,
)
from .ramyip import (
    TermCapExceeded,
    check_term_cap,
    folding_pair_count,
    folding_pairs_text,
    ram_yip_sum,
    term_cap,
)

TABLE_SHAPES: list[tuple[tuple[int, ...], int]] = [
    ((3, 2, 1, 0), 4),
    ((5, 3, 1, 0), 4),
    ((4, 3, 2, 1, 0), 5),
    ((5, 4, 2, 1, 0), 5),
]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_CAP = 3

JSON_SEPARATORS = (",", ":")

BENCH_RAM_YIP_PAIRS = 1 << 16     # bench times ram-yip only up to this many pairs
MAP_EXHAUSTIVE_PAIRS = 50000      # --map-properties checks every pair up to this many
MAP_SAMPLES = 500                 # and this many seeded samples past it
MAP_WITNESSES = 5000              # fillings whose witness --map-properties maps back
MAX_FRACTION_CHARS = 40           # longest --q/--t accepted
FRACTION = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
NEGATIVE_VALUE = re.compile(r"-[0-9]")


def _parse_partition(raw: str, n: int | None) -> Partition:
    try:
        parts = [int(x) for x in raw.split(",") if x != ""]
    except ValueError as exc:
        raise NonRegularError(f"cannot parse partition {raw!r}: {exc}") from exc
    return Partition(parts, n)


def _parse_fraction(flag: str, raw: str) -> Fraction:
    """A rational ``a`` or ``a/b`` in decimal digits, checked before it is built."""
    if len(raw) <= MAX_FRACTION_CHARS and FRACTION.fullmatch(raw):
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            pass
    got = repr(raw) if len(raw) <= MAX_FRACTION_CHARS else f"{len(raw)} characters"
    raise ValueError(f"{flag} must be a rational number a/b with b != 0, in at most "
                     f"{MAX_FRACTION_CHARS} characters, got {got}")


def _join_negative_points(argv: list[str]) -> list[str]:
    """``--q -2/3`` as ``--q=-2/3``, and likewise for ``--t``.

    argparse reads an argument that starts with ``-`` and is not a plain
    number as a flag, so a negative fraction would leave ``--q`` without its
    value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--q", "--t") and NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _oracle_points(args) -> list[tuple[Fraction, Fraction]] | None:
    """The explicit oracle point (--q, --t), or None to draw seeded points."""
    if args.q is None and args.t is None:
        return None
    if args.q is None or args.t is None:
        raise NonRegularError("--q and --t must be given together")
    return [(_parse_fraction("--q", args.q), _parse_fraction("--t", args.t))]


def _format_1dp_half_up(value: Fraction) -> str:
    scaled = value * 10
    units = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    return f"{units // 10}.{units % 10}"


def _compute(lam: Partition, n: int, formula: str, jobs: int) -> SymFun:
    if formula == "ram-yip":
        return ram_yip_sum(lam, n, jobs=jobs)
    if formula == "compressed":
        return compressed_sum(lam, n, jobs=jobs)
    raise NonRegularError(f"unknown formula {formula!r}")


def _emit_symfun(P: SymFun, lam: Partition, n: int, out: str) -> None:
    """Print P as text, or as one JSON line written a monomial at a time."""
    if out != "json":
        print(symfun_str(P))
        return
    write = sys.stdout.write
    write(f'{{"lambda":{json.dumps(list(lam.parts), separators=JSON_SEPARATORS)},'
          f'"n":{n},"monomials":[')
    for i, content in enumerate(sorted(P, reverse=True)):
        if i:
            write(",")
        write(json.dumps(monomial_json_obj(content, P[content]),
                         separators=JSON_SEPARATORS))
    write("]}\n")


def cmd_chain(args) -> int:
    lam = _parse_partition(args.lam, args.n)
    chain = build_chain(lam)
    print(render_chain(chain))
    print(f"m = {chain.m}")
    return EXIT_OK


def cmd_compute(args) -> int:
    lam = _parse_partition(args.lam, args.n)
    if args.verbose:
        if args.formula == "ram-yip":
            size = f"{check_term_cap(build_chain(lam))} folding pairs"
        else:
            size = f"{parallel_count(lam, lam.n, 'paper')} fillings"
        print(f"evaluating {size} for {lam.parts} with {args.jobs} worker(s)",
              file=sys.stderr)
    P = _compute(lam, lam.n, args.formula, args.jobs)
    _emit_symfun(P, lam, lam.n, args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    lam = _parse_partition(args.lam, args.n)
    print(parallel_count(lam, lam.n, args.convention))
    return EXIT_OK


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x, where: str, length: int | None = None) -> list[int]:
    if not isinstance(x, list) or not all(_is_int(v) for v in x):
        raise ValueError(f"--in: {where} must be a list of integers")
    if length is not None and len(x) != length:
        raise ValueError(f"--in: {where} must have {length} entries")
    return x


def _load_symfun_json(stream) -> tuple[Partition, int, SymFun]:
    """Parse a ``compute --out json`` document, checking its whole schema.

    Any breach (a non-object, a missing key, a non-integer exponent or
    coefficient, a denominator factor that is not an [a, b] pair) raises a
    one-line ValueError, so ``main`` exits 2 instead of failing later.
    """
    try:
        obj = json.load(stream)
    except RecursionError:
        raise ValueError("--in: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("--in: expected a JSON object with lambda, n and monomials")
    for key in ("lambda", "n", "monomials"):
        if key not in obj:
            raise ValueError(f"--in: missing key {key!r}")
    lam = Partition(_int_list(obj["lambda"], "lambda"))
    n = obj["n"]
    if not _is_int(n) or n != lam.n:
        raise ValueError(f"--in: n must be {lam.n}, the length of lambda")
    if not isinstance(obj["monomials"], list):
        raise ValueError("--in: monomials must be a list")
    P: SymFun = {}
    for idx, mono in enumerate(obj["monomials"]):
        where = f"monomials[{idx}]"
        if not isinstance(mono, dict) or not {"exp", "num", "den"} <= mono.keys():
            raise ValueError(f"--in: {where} must be an object with exp, num and den")
        exp = _int_list(mono["exp"], f"{where}.exp", length=n)
        if any(e < 0 for e in exp):
            raise ValueError(f"--in: {where}.exp has a negative entry")
        for key, width in (("num", 3), ("den", 2)):
            rows = mono[key]
            if not isinstance(rows, list):
                raise ValueError(f"--in: {where}.{key} must be a list")
            for row in rows:
                _int_list(row, f"each entry of {where}.{key}", length=width)
        num = {(a, b): c for a, b, c in mono["num"]}
        den = [tuple(f) for f in mono["den"]]
        P[tuple(exp)] = RationalQT(num, den)
    return lam, n, P


def cmd_verify(args) -> int:
    if not args.oracle:
        for flag, value in (("--q", args.q), ("--t", args.t), ("--seed", args.seed)):
            if value is not None:
                raise ValueError(f"{flag} is read only with --oracle")
    points = _oracle_points(args) if args.oracle else None
    P: SymFun | None = None
    if args.infile:
        if args.infile == "-":
            lam, n, P = _load_symfun_json(sys.stdin)
        else:
            with open(args.infile) as fh:
                lam, n, P = _load_symfun_json(fh)
    else:
        lam = _parse_partition(args.lam, args.n)
        n = lam.n
    if args.map_properties:
        _check_map_properties_cap(lam)
    report: dict = {"lambda": list(lam.parts), "n": n, "checks": [], "ok": True}

    def add(name: str, ok: bool, detail: str = "") -> None:
        entry = {"name": name, "ok": ok}
        if detail:
            entry["detail"] = detail
        report["checks"].append(entry)
        if not ok:
            report["ok"] = False

    requested = args.per_class or args.oracle or args.map_properties
    if args.per_class:
        class_report = verify_all_classes(lam, n)
        passed = sum(1 for c in class_report.classes.values() if c.ok)
        detail = f"{passed}/{len(class_report.classes)} classes"
        if class_report.first_failure:
            detail += "; first failure:\n" + class_report.first_failure
        add("per-class", class_report.ok, detail)
        add(
            "fibers-partition",
            class_report.total_pairs == folding_pair_count(build_chain(lam))
            and not class_report.missing_fillings,
            f"{class_report.total_pairs} pairs over "
            f"{len(class_report.classes)} fibers",
        )
        report["classes"] = [
            {"filling": list(values), "pairs": len(result.pairs),
             "ok": result.ok}
            for values, result in class_report.classes.items()
        ]
    if args.oracle:
        P_here = P if P is not None else _compute(lam, n, args.formula, args.jobs)
        result = check_specializations(P_here, lam, n, seed=args.seed or 0,
                                       points=points)
        for entry in result.checks:
            add(entry.name, entry.ok, entry.detail)
    if args.map_properties:
        for name, ok, detail in _map_property_checks(lam, n):
            add(name, ok, detail)
    if not requested and P is not None:
        add(*_input_check(P, _compute(lam, n, args.formula, args.jobs),
                          args.formula))
    elif not requested:
        ry = ram_yip_sum(lam, n, jobs=args.jobs)
        cp = compressed_sum(lam, n, jobs=args.jobs)
        add("formulas-agree", ry == cp,
            f"{len(ry)} monomials" if ry == cp else "expansions differ")

    print(json.dumps(report, separators=JSON_SEPARATORS))
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def _input_check(P: SymFun, want: SymFun, formula: str) -> tuple[str, bool, str]:
    """Compare an input expansion with the computed one, as RationalQT values."""
    zero = rational_zero()
    for content in sorted(set(P) | set(want), reverse=True):
        got, expected = P.get(content, zero), want.get(content, zero)
        if not got == expected:
            return (
                "input-matches", False,
                f"first difference at x[{','.join(map(str, content))}]: input "
                f"{rational_str(got)}, {formula} {rational_str(expected)}",
            )
    return "input-matches", True, f"{len(want)} monomials equal the {formula} expansion"


def _check_map_properties_cap(lam: Partition) -> None:
    """Bound ``--map-properties`` before any work.

    Each witness built and each sampled pair costs about one pass over the
    cells, so the work is bounded by cells x (witnesses + samples); past the
    term cap it raises ``TermCapExceeded``.
    """
    per_cell = MAP_WITNESSES + MAP_SAMPLES
    cap = term_cap()
    if lam.size * per_cell > cap:
        raise TermCapExceeded(
            f"map-properties work of {lam.size} cells x {per_cell} exceeds "
            f"the term cap {cap}")


def _map_pairs(chain, n: int):
    """Every folding pair if there are few enough, else seeded samples."""
    import random

    from .weyl import all_perms

    m = chain.m
    perms = all_perms(n)
    if folding_pair_count(chain) <= MAP_EXHAUSTIVE_PAIRS:
        for w in perms:
            for mask in range(1 << m):
                yield w, [p for p in range(1, m + 1) if mask >> (p - 1) & 1]
    else:
        rng = random.Random(0)
        for _ in range(MAP_SAMPLES):
            w = rng.choice(perms)
            yield w, sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))


def _map_pair_check(w, folds: list[int], chain, lam: Partition) -> tuple[bool, bool]:
    """Whether one pair's walk term has even fold parity and the right content.

    The content must equal both the image filling's content and w applied
    to the folded weight; with odd parity the content is not checked.
    """
    from .compression import filling_map
    from .ramyip import _walk_term_raw, folded_weight
    from .weyl import permute_weight

    try:
        _, _, content = _walk_term_raw(w, folds, chain)
    except InternalInvariantError:
        return False, True
    sigma = filling_map(w, folds, lam)
    return True, content == sigma.content() == permute_weight(
        w, folded_weight(folds, chain))


def _map_property_checks(lam: Partition, n: int):
    """Fold parity, content identity, multiplicity-arm identity, witness."""
    from .compression import fiber_witness
    from .fillings import enumerate_nonattacking

    chain = build_chain(lam)
    yield (
        "multiplicity-arm",
        all(e.mult == lam.parts[e.root[0] - 1] - (e.column - 1) for e in chain),
        f"{chain.m} positions",
    )
    parity_ok = True
    content_ok = True
    checked = 0
    for w, folds in _map_pairs(chain, n):
        parity, content = _map_pair_check(w, folds, chain, lam)
        if not parity:
            parity_ok = False
            break
        content_ok = content_ok and content
        checked += 1
    yield ("fold-parity", parity_ok, f"{checked} pairs")
    yield ("content-identity", content_ok, f"{checked} pairs")
    # fiber_witness maps its pair back and raises unless it hits sigma
    count = 0
    for sigma in enumerate_nonattacking(lam, n):
        fiber_witness(sigma, lam)
        count += 1
        if count >= MAP_WITNESSES:
            break
    yield ("surjectivity-witness", True, f"{count} fillings")


def _table_rows(raw: str | None) -> list[tuple[tuple[int, ...], int]]:
    """The table shapes to print: all of them, or the 1-based rows listed in raw."""
    if not raw:
        return TABLE_SHAPES
    try:
        wanted = {int(x) for x in raw.split(",")}
    except ValueError:
        raise ValueError(
            f"--rows must be comma-separated row numbers, got {raw!r}") from None
    unknown = sorted(wanted - set(range(1, len(TABLE_SHAPES) + 1)))
    if unknown:
        raise ValueError(
            f"--rows: there is no row {unknown[0]}; rows are 1 to {len(TABLE_SHAPES)}")
    return [r for i, r in enumerate(TABLE_SHAPES, start=1) if i in wanted]


def cmd_table(args) -> int:
    rows = _table_rows(args.rows)
    widths = (16, 3, 11, 11, 11)
    header = ("lambda", "n", "t(lambda)", "c(lambda)", "r(lambda)")
    print("".join(h.ljust(w) if i == 0 else h.rjust(w)
                  for i, (h, w) in enumerate(zip(header, widths))))
    for parts, n in rows:
        lam = Partition(parts)
        if args.verbose:
            print(f"counting fillings for {parts} ...", file=sys.stderr)
        chain = build_chain(lam)
        t_count = parallel_count(lam, n, "paper")
        hhl_count = parallel_count(lam, n, "hhl")
        ry_terms = folding_pair_count(chain)
        c_factor = _format_1dp_half_up(Fraction(ry_terms, t_count))
        r_factor = _format_1dp_half_up(Fraction(hhl_count, t_count))
        cells = (
            "(" + ", ".join(map(str, parts)) + ")",
            str(n),
            f"{t_count:,}",
            c_factor,
            r_factor,
        )
        print("".join(c.ljust(w) if i == 0 else c.rjust(w)
                      for i, (c, w) in enumerate(zip(cells, widths))))
    return EXIT_OK


def cmd_bench(args) -> int:
    lam = _parse_partition(args.lam, args.n)
    n = lam.n
    check_filling_cap(lam, n)     # both counts below need it; fail before any work

    def timed(label, fn):
        start = time.perf_counter()
        result = fn()
        print(f"{label}: {time.perf_counter() - start:.3f}s")
        return result

    chain = timed("build-chain", lambda: build_chain(lam))
    print(f"  m = {chain.m}, folding pairs = {folding_pairs_text(chain)}")
    t_count = timed("count-paper", lambda: parallel_count(lam, n, "paper"))
    print(f"  t(lambda) = {t_count}")
    timed("count-hhl", lambda: parallel_count(lam, n, "hhl"))
    try:
        check_term_cap(chain)
    except TermCapExceeded:
        print("ram-yip: skipped (term cap)")
        return EXIT_OK
    pairs = folding_pair_count(chain)
    if pairs <= BENCH_RAM_YIP_PAIRS:
        timed("ram-yip", lambda: ram_yip_sum(lam, n, jobs=args.jobs))
    else:
        print(f"ram-yip: skipped ({pairs} pairs > {BENCH_RAM_YIP_PAIRS})")
    timed("compressed", lambda: compressed_sum(lam, n, jobs=args.jobs))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macdonald",
        description="Exact Macdonald P-polynomials by alcove walks and "
        "nonattacking fillings, with cross-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_lambda=True):
        if with_lambda:
            p.add_argument("--lambda", dest="lam", required=True,
                           help="comma-separated partition, e.g. 4,3,1,0")
            p.add_argument("-n", type=int, default=None,
                           help="number of variables (pads with zeros)")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default MACDONALD_JOBS or 1; "
                       "capped at the CPU count)")

    p_chain = sub.add_parser("chain", help="print the factored root chain")
    add_common(p_chain)
    p_chain.set_defaults(func=cmd_chain)

    p_compute = sub.add_parser("compute", help="expand P_lambda(X;q,t)")
    add_common(p_compute)
    p_compute.add_argument("--formula", choices=("ram-yip", "compressed"),
                           required=True)
    p_compute.add_argument("--out", choices=("text", "json"), default="text")
    p_compute.add_argument("--verbose", action="store_true",
                           help="progress notes on stderr")
    p_compute.set_defaults(func=cmd_compute)

    p_count = sub.add_parser("count", help="count nonattacking fillings")
    add_common(p_count)
    p_count.add_argument("--convention", choices=("paper", "hhl"),
                         default="paper")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("--lambda", dest="lam", default=None,
                          help="comma-separated partition")
    p_verify.add_argument("-n", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=None)
    p_verify.add_argument("--per-class", action="store_true")
    p_verify.add_argument("--oracle", action="store_true")
    p_verify.add_argument("--map-properties", action="store_true")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed of the oracle points (default 0)")
    p_verify.add_argument("--q", default=None, help="explicit q0 as a/b")
    p_verify.add_argument("--t", default=None, help="explicit t0 as c/d")
    p_verify.add_argument("--formula", choices=("ram-yip", "compressed"),
                          default="compressed")
    p_verify.add_argument("--in", dest="infile", default=None,
                          help="read a computed JSON expansion ('-' = stdin)")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="recompute the compression table")
    p_table.add_argument("--rows", default=None,
                         help="restrict to row numbers, e.g. 1,2")
    p_table.add_argument("--jobs", type=int, default=None)
    p_table.add_argument("--verbose", action="store_true")
    p_table.set_defaults(func=cmd_table)

    p_bench = sub.add_parser("bench", help="time the main computations")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_points(
        sys.argv[1:] if argv is None else argv))
    if getattr(args, "lam", "") is None and getattr(args, "infile", None) is None:
        print("error: --lambda is required without --in", file=sys.stderr)
        return EXIT_INVALID
    try:
        args.jobs = resolve_jobs(args.jobs)
        return args.func(args)
    except TermCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (NonRegularError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
