"""Command line front end.

Subcommands: orbits, words, encode, verify, sequence.  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 verification failure
(verify, or an orbits --list whose length, coverage of the states or orbit
sizes fail the listing check verify makes), 2 usage error or a count too
long to print, 3 state budget exceeded.  Json and csv counts are decimal
strings, so consumers never round large values.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter
from functools import partial
from itertools import chain, islice
from time import perf_counter
from types import SimpleNamespace

from . import bridge, formulas, orbits, words
from .budget import BudgetExceeded, check_budget, check_printable
from .residues import GroupSpec


TABLE_ROWS = 4096  # the most strings one formatter's table holds
HALVING_CHUNKS = 16  # a formatter splits longer runs of table chunks in halves


class _Rows:
    """The one-row strings g:k, indexed g * p + k, for p too large to tabulate."""

    def __init__(self, p: int):
        self.p = p

    def __getitem__(self, x: int) -> str:
        g, k = divmod(x, self.p)
        return f"{g}:{k}"


def state_formatter(spec: GroupSpec):
    """Return fmt(i): the n rows of the state with packed index
    i = G * p^n + K as digit strings, row j the j-th base-p digits g_j then
    k_j of G and K (with a ":" between them when p > 10), the first row
    most significant, joined by spaces; "-" at n = 0.

    fmt looks up c rows at a time in a table of their p^(2c) joined strings,
    c as large as keeps it at TABLE_ROWS entries (and at most n), and the
    leading n mod c rows in a head table.  Each table is the last one with
    one more row appended, so building them costs about TABLE_ROWS
    concatenations.  When p^2 is over TABLE_ROWS, c is 1 and the rows come
    from _Rows.  Peeling c rows at a time off the n-row G and K divides
    numbers of O(n) digits n / c times, so a state of more than
    HALVING_CHUNKS chunks is cut by halves first, down to runs that short.
    """
    p, n = spec.p, spec.n
    if p * p > TABLE_ROWS:
        cells = _Rows(p)
    else:
        colon = "" if p <= 10 else ":"
        cells = [f"{g}{colon}{k}" for g in range(p) for k in range(p)]
    c = 1
    while c < n and p ** (2 * c + 2) <= TABLE_ROWS:
        c += 1
    tables = [cells]  # tables[j]: the strings of j + 1 rows, index G * p^(j+1) + K
    # by the new row's g digit: a space and the row, for each k digit
    appended = [[" " + cells[g * p + k] for k in range(p)] for g in range(p)] if c > 1 else []
    for j in range(1, c):
        last, q = tables[-1], p ** j
        tables.append([left + right
                       for gs in range(0, q * q, q) for row in appended
                       for left in last[gs:gs + q] for right in row])
    body, t, h = tables[c - 1], *divmod(n, c)
    head = tables[h - 1] if h else None
    base, head_base, order = p ** c, p ** h, p ** n

    def cut(g: int, k: int, count: int, parts: list) -> tuple[int, int]:
        # append the strings of the low count chunks of g and k, the last
        # first, and return what is left above them
        if count > HALVING_CHUNKS:
            half = count // 2
            scale = base ** half
            g, g_low = divmod(g, scale)
            k, k_low = divmod(k, scale)
            cut(g_low, k_low, half, parts)
            return cut(g, k, count - half, parts)
        for _ in range(count):
            g, gc = divmod(g, base)
            k, kc = divmod(k, base)
            parts.append(body[gc * base + kc])
        return g, k

    def fmt(i: int) -> str:
        g, k = divmod(i, order)
        parts = []
        g, k = cut(g, k, t, parts)
        if h:
            parts.append(head[g * head_base + k])
        parts.reverse()
        return " ".join(parts) or "-"

    return fmt


def _emit(fmt: str, header: list[str], rows, payload, text=None, listing=None) -> None:
    """Write one result to stdout in the chosen format, a chunk at a time.

    text: the text lines, by default each row joined by spaces; csv: header
    then rows; json: payload, indented, in iterencode's chunks, or with the
    rows as its list `listing` (per row a dict by header, for one column a
    string) from one row template: the bytes of json.dumps of the whole
    document.  The template needs no escaping, as row values hold only
    digits, spaces, ":" and "-", and every listing has a first row (the zero
    orbit, the all-1s word).  rows and text may be generators.
    """
    if fmt == "json" and listing:
        placeholder = dict.fromkeys(header, "%s") if len(header) > 1 else "%s"
        row = "    " + json.dumps(placeholder, indent=2).replace("\n", "\n    ")
        head, tail = json.dumps({**payload, listing: [placeholder]}, indent=2).split(row)
        rows = map(tuple, rows)
        lines = chain([head, row % next(rows)], map((",\n" + row).__mod__, rows), [tail, "\n"])
    elif fmt == "json":
        lines = chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"])
    elif fmt == "csv":  # writerow returns what write returns: here, the line
        writerow = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
        lines = map(writerow, chain([header], rows))
    else:
        lines = (f"{line}\n" for line in (map(" ".join, rows) if text is None else text))
    # one write per 4096 lines: under PYTHONUNBUFFERED each write is a syscall
    while chunk := "".join(islice(lines, 4096)):
        sys.stdout.write(chunk)


# The census routes, which share no counting code (see orbits): name ->
# (what `orbitlab orbits` charges it to the budget, its count of a GroupSpec)
ROUTES = {
    "bfs": ("states", lambda spec: orbits.count_orbits_bfs(spec).orbit_count),
    "canonical": ("states", lambda spec: orbits.count_orbits_canonical(spec).orbit_count),
    "burnside": ("diagonals", lambda spec: orbits.count_orbits_burnside(spec).orbit_count),
    "formula": (None, lambda spec: formulas.r_formula(spec.p, spec.n)),
}


def walk_listing(spec: GroupSpec):
    """The echelon listing walked once, not held: length, size sum, distinct sizes."""
    sizes = Counter(size for _, size in orbits._echelon_minima(spec))
    return sizes.total(), sum(size * count for size, count in sizes.items()), sizes.keys()


def listing_fault(spec: GroupSpec, counts: dict, listing) -> str | None:
    """Why walk_listing's totals are no census, or None: its length against each
    method's count, its size sum against p^(2n), each size against p(p^2 - 1)."""
    listed, covered, sizes = listing
    group = spec.p * (spec.p * spec.p - 1)
    for method, count in counts.items():
        if count != listed:
            return f"{method} counts {count} orbits, the listing has {listed}"
    if covered != spec.state_count:
        return f"the listing's sizes sum to {covered}, not to the {spec.state_count} states"
    for size in sizes:
        if group % size:
            return f"the listing has an orbit of size {size}, which does not divide {group}"
    return None


def check_cell(spec: GroupSpec):
    """Time each check of one cell, run once: the ROUTES, the listing and, at
    p = 2, n >= 1, product, words and bridge; return (values, seconds) by name."""
    checks = {name: partial(count, spec) for name, (_, count) in ROUTES.items()}
    checks["listing"] = partial(walk_listing, spec)
    if spec.p == 2 and spec.n >= 1:
        checks.update(product=partial(formulas.r_p2_product, spec.n),
                      words=partial(words.count_words, spec.n),
                      bridge=partial(bridge.verify_bridge, spec.n))
    values, seconds = {}, {}
    for name, check in checks.items():
        start = perf_counter()
        values[name] = check()
        seconds[name] = perf_counter() - start
    return values, seconds


def judge(spec: GroupSpec, values: dict):
    """Return (verdict, evidence) for check_cell's values: whether each
    column passes, and, unless all do, every count, the listing's totals and
    the bridge's first certificate of each kind, as key=value pairs."""
    bfs, r, report = values["bfs"], values["formula"], values.get("bridge")
    verdict = {
        "methods": listing_fault(spec, {m: values[m] for m in ROUTES if m != "formula"},
                                 values["listing"]) is None,
        "formula": bfs == r == values.get("product", r),
        "words": report is None or values["words"] == r == report.word_count,
        "bridge": report is None or report.is_injective_on_orbits and report.is_surjective_on_orbits,
    }
    if all(verdict.values()):
        return verdict, None
    evidence = " ".join(f"{name}={values[name]}" for name in ROUTES)
    if report is not None:
        pair = "/".join(map(str, report.collisions[0])) if report.collisions else "-"
        miss = (state_formatter(spec)(report.missed_orbits[0]).replace(" ", ",")
                if report.missed_orbits else "-")
        evidence += (f" words={values['words']} bridge_words={report.word_count} "
                     f"collisions={len(report.collisions)} first_collision={pair} "
                     f"missed={len(report.missed_orbits)} first_missed={miss}")
    return verdict, f"{evidence} listed={values['listing'][0]} covered={values['listing'][1]}"


def cmd_orbits(args) -> int:
    spec = GroupSpec(args.p, args.n)
    charged, count_of = ROUTES[args.method]
    # over the budget exits 3 before any count or row: a listing or a sweep
    # is charged its p^(2n) states, Burnside its p^2 diagonals
    if args.list or charged == "states":
        check_budget(args.p, 2 * args.n, args.budget)
    check_printable(args.p, args.n)  # for a sweep, the budget has already bounded it
    if charged == "diagonals":
        check_budget(args.p, 2, args.budget, charged)
    count = count_of(spec)
    payload = {"p": args.p, "n": args.n, "method": args.method,
               "orbit_count": str(count)}

    if not args.list:
        _emit(args.format, ["p", "n", "method", "orbit_count"],
              [[str(args.p), str(args.n), args.method, str(count)]],
              payload, text=[str(count)])
        return 0

    listing = walk_listing(spec)
    if fault := listing_fault(spec, {args.method: count}, listing):
        print(f"orbits: {fault}", file=sys.stderr)
        return 1
    header = ["representative", "size", "stabilizer_order"]
    fmt, p = state_formatter(spec), args.p
    shown = {size: [str(size), str(formulas.exact_div(p * (p * p - 1), size)) if args.n else "-"]
             for size in listing[2]}  # each orbit size: its two columns
    rows = ([fmt(i), *shown[size]] for i, size in orbits._echelon_minima(spec))
    _emit(args.format, header, rows, payload, listing="orbits")
    return 0


def cmd_words(args) -> int:
    # over the state budget exits 3 before the count; count_words refuses m < 0
    if args.list and args.m >= 0:
        check_budget(4, args.m, args.budget)
    check_printable(2, args.m)  # count_words(m) = r(2, m)
    count = str(words.count_words(args.m))
    payload = {"m": args.m, "count": count}
    if args.list:  # the words stream as the walk yields them
        listed = (bytes(w).translate(words._SPELLING).decode() for w in words._words(args.m))
        _emit(args.format, ["word"], ([w] for w in listed), payload, text=listed,
              listing="words")
    else:
        _emit(args.format, ["m", "count"], [[str(args.m), count]], payload, text=[count])
    return 0


def cmd_encode(args) -> int:
    word = words.word_from_string(args.word)  # so str(word) is args.word
    m = len(word)
    i = bridge._word_index(word.letters, m)  # refuses the empty word
    spec = GroupSpec(2, m)
    least, _ = orbits._canonical_engine(spec)
    fmt = state_formatter(spec)
    rows, canon = fmt(i), fmt(least(i))
    _emit(args.format, ["word", "rows", "canonical"], [[args.word, rows, canon]],
          {"word": args.word, "rows": rows.split(" "),
           "canonical": canon.split(" ")},
          text=[f"rows: {rows}", f"canonical: {canon}"])
    return 0


def cmd_verify(args) -> int:
    if args.m_max < 1:
        raise ValueError(f"m-max must be >= 1, got {args.m_max}")
    check_budget(4, args.m_max, args.budget)  # the largest m has the most states
    rows = []
    for m in range(1, args.m_max + 1):
        spec = GroupSpec(2, m)
        values, _ = check_cell(spec)
        verdict, evidence = judge(spec, values)
        if evidence:
            print(f"verify: m={m} FAIL {evidence}", file=sys.stderr)
        flags = [*verdict.values(), not evidence]
        rows.append([str(m), *("PASS" if ok else "FAIL" for ok in flags), str(values["formula"])])

    header = ["m", *verdict, "result", "r"]
    _emit(args.format, header, rows, [dict(zip(header, row)) for row in rows],
          text=[" ".join(row) for row in [header, *rows]])
    return 1 if any(row[-2] == "FAIL" for row in rows) else 0  # the result column


def cmd_sequence(args) -> int:
    check_printable(args.p, args.n_max)  # r grows with n
    table = [(n, str(r)) for n, r in formulas.sequence_table(args.p, args.n_max)]
    _emit(args.format, ["n", "r"], [[str(n), r] for n, r in table],
          [{"n": n, "r": r} for n, r in table])
    return 0


def budget(text: str) -> int:
    """The --budget argument: a number of states, so never negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
    return value


def _add_common(sub, run, budgeted: bool = True) -> None:
    sub.set_defaults(run=run)
    sub.add_argument("--format", choices=["text", "json", "csv"],
                     default="text", help="output format (default text)")
    if budgeted:  # encode and sequence visit no states
        sub.add_argument("--budget", type=budget, default=None,
                         help="state budget cap (default 2^28)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="Exact orbit censuses over Z_p^n, restricted growth "
                    "words, and the bit-row encoding between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbits = sub.add_parser("orbits", help="count or list orbit classes")
    p_orbits.add_argument("--p", type=int, required=True)
    p_orbits.add_argument("--n", type=int, required=True)
    p_orbits.add_argument("--method", default="bfs", choices=list(ROUTES))
    p_orbits.add_argument("--list", action="store_true",
                          help="print one orbit summary per line")
    _add_common(p_orbits, cmd_orbits)

    p_words = sub.add_parser("words", help="count or list restricted growth words")
    p_words.add_argument("--m", type=int, required=True)
    p_words.add_argument("--list", action="store_true")
    _add_common(p_words, cmd_words)

    p_encode = sub.add_parser("encode", help="encode a word as a bit matrix")
    p_encode.add_argument("word", help="digit string such as 234")
    _add_common(p_encode, cmd_encode, budgeted=False)

    p_verify = sub.add_parser("verify", help="cross-check every route for m <= m-max")
    p_verify.add_argument("--m-max", dest="m_max", type=int, required=True)
    _add_common(p_verify, cmd_verify)

    p_seq = sub.add_parser("sequence", help="emit the orbit count table")
    p_seq.add_argument("--p", type=int, required=True)
    p_seq.add_argument("--n-max", dest="n_max", type=int, required=True)
    _add_common(p_seq, cmd_sequence, budgeted=False)

    return parser


def main(argv=None, parser=None) -> int:
    """Parse argv with parser (the CLI's by default, or a script's) and call its run."""
    parser = build_parser() if parser is None else parser
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:  # the reader stopped early, as `| head -1` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
