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
import os
import sys
from collections import Counter
from itertools import repeat, starmap

from . import bridge, formulas, orbits, words
from .budget import BudgetExceeded, check_budget, check_printable
from .residues import GroupSpec


TABLE_ROWS = 4096  # the most strings one formatter's table holds


class _Rows:
    """The one-row strings g:k, indexed g * p + k, for p too large to tabulate."""

    def __init__(self, p: int):
        self.p = p

    def __getitem__(self, x):
        if isinstance(x, slice):  # its strings, as from a list
            return map(self.__getitem__, range(x.start, x.stop))
        g, k = divmod(x, self.p)
        return f"{g}:{k}"


def state_formatter(spec: GroupSpec):
    """Return fmt(i), the one-state formatter of _formatters."""
    return _formatters(spec)[0]


def _formatters(spec: GroupSpec):
    """Return (fmt, pieces, body).  fmt(i): the n rows of the state with
    packed index i = G * p^n + K as digit strings, row j the j-th base-p
    digits g_j then k_j of G and K (with a ":" between them when p > 10),
    the first row most significant, joined by spaces; "-" at n = 0.

    A state's last c rows are one entry of body, the table of the p^(2c)
    strings of c rows, c as large as keeps it at TABLE_ROWS entries (and at
    most n).  Each table of j rows is the last one with one more row
    appended, so building them costs about TABLE_ROWS concatenations.  When
    p^2 is over TABLE_ROWS, c is 1 and the rows come from _Rows.  The n - c
    rows above the body's, then a space, are the state's head, from rows: c
    rows or fewer are one table lookup, more are cut in two, the low part
    about half its whole chunks, and each part spelled by rows again: so
    numbers of O(n) digits are divided O(log(n / c)) deep, and only the top
    piece can be short of c rows, read from the table of its own row count.

    pieces(runs) yields (key, head, lo, hi) for each run (first, count,
    key) of the count states from first, a piece of consecutive indices
    that differ only in their last c rows at a time: their strings are
    head + body[j], j from lo to hi.
    """
    p, n = spec.p, spec.n
    if p * p > TABLE_ROWS:
        cells = _Rows(p)
    else:
        colon = "" if p <= 10 else ":"
        cells = [f"{g}{colon}{k}" for g in range(p) for k in range(p)]
    c = min(n, 1)
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
    body = tables[c - 1] if n else ["-"]  # n = 0: the one state, "-", is all body
    base, order, top = p ** c, p ** n, n - c  # top: the head's rows

    def rows(g: int, k: int, count: int) -> str:
        # the count rows of g and k, the first row first
        if count <= c:
            return tables[count - 1][g * p ** count + k]
        low = count // (2 * c) * c or c  # the high part, then the low whole chunks
        scale = p ** low
        g, g_low = divmod(g, scale)
        k, k_low = divmod(k, scale)
        return rows(g, k, count - low) + " " + rows(g_low, k_low, low)

    def head(g: int, k: int) -> str:
        # the head of the states whose upper digits are g and k
        return rows(g, k, top) + " " if top else ""

    def fmt(i: int) -> str:
        g, k = divmod(i, order)
        return head(g // base, k // base) + body[g % base * base + k % base]

    def pieces(runs):
        for first, count, key in runs:
            end = first + count
            while first < end:
                g, k = divmod(first, order)
                g, g_low = divmod(g, base)
                k, k_low = divmod(k, base)
                lo = g_low * base + k_low
                stop = min(end, first + base - k_low)
                yield key, head(g, k), lo, lo + stop - first
                first = stop

    return fmt, pieces, body


def _layout(fmt: str, header: list[str], payload=None, listing=None, numbers=()):
    """(head, row, sep, tail) of a table of rows in fmt: the output is head,
    the rows joined by sep, then tail, and a row is the template row % its
    values.  text: the values joined by spaces, one row a line; csv: the
    header line first, the values joined by commas; json: payload with the
    rows as its list `listing` (per row a dict by header, for one column a
    string), or without a payload the list of rows alone, as json.dumps
    writes it with indent 2, the columns named in numbers as JSON numbers,
    the rest as strings.  Neither the template nor a csv line needs
    escaping, as values hold only digits, spaces, ":", "-" and letters."""
    if fmt == "json":
        import json  # here, not at the top: a text run never loads json
        placeholder = dict.fromkeys(header, "%s") if len(header) > 1 else "%s"
        document, indent = (([placeholder], "  ") if payload is None else
                            ({**payload, listing: [placeholder]}, "    "))
        row = indent + json.dumps(placeholder, indent=2).replace("\n", "\n" + indent)
        head, tail = json.dumps(document, indent=2).split(row)
        for name in numbers:  # its placeholder loses its quotes
            row = row.replace(f'"{name}": "%s"', f'"{name}": %s')
        return head, row, ",\n", tail + "\n"
    if fmt == "csv":
        return ",".join(header) + "\n", ",".join(["%s"] * len(header)), "\n", "\n"
    return "", " ".join(["%s"] * len(header)), "\n", "\n"


def _write(head: str, pieces, sep: str, tail: str) -> None:
    """Write head, the texts of pieces, then tail, one write per 4096 rows
    or 1 MiB of text, whichever comes first: under PYTHONUNBUFFERED each
    write is a syscall, and a row of `sequence` can hold 4300 digits.  A
    piece is a pair (text, its number of rows), never none, and each text
    begins with sep, which the first one's drops."""
    pieces = iter(pieces)
    text, rows = next(pieces)
    chunk, size = [head, text[len(sep):]], len(text)
    for text, count in pieces:
        chunk.append(text)
        rows += count
        size += len(text)
        if rows >= 4096 or size >= 1 << 20:
            sys.stdout.write("".join(chunk))
            chunk, rows, size = [], 0, 0
    chunk.append(tail)
    sys.stdout.write("".join(chunk))


def _listing(fmt: str, header: list[str], payload: dict, name: str, tables: dict, pieces):
    """A listing in fmt as _write's (head, pieces, sep, tail), a piece at a time.

    tables maps each key to (body, columns): body a list of strings, or a
    _Rows, and columns the strings of the columns after the first.  pieces
    yields (key, head, lo, hi): the rows head + body[j] for j from lo to
    hi, each then its key's columns.  The row template of _layout, split at
    its first %s, gives each row's lead, and with the columns filled in,
    its key's tail t.  So with start = sep + lead + head, a piece is one
    join in C, start + (t + start).join(body[lo:hi]) + t: the tails are
    joined in, and no body is copied per key.  A row is empty only in the
    word of `words --m 0 --list`, whose piece is then sep alone: in csv the
    row is "", as csv.writer quotes a row of one empty field."""
    head, row, sep, tail = _layout(fmt, header, payload, name)
    lead, rest = row.split("%s", 1)
    blank = sep + '""' if fmt == "csv" else sep
    tails = {key: (body, rest % tuple(columns)) for key, (body, columns) in tables.items()}

    def render(key, prefix: str, lo: int, hi: int):
        body, t = tails[key]
        start = sep + lead + prefix
        text = start + (t + start).join(body[lo:hi]) + t
        return text if text != sep else blank, hi - lo

    return head, starmap(render, pieces), sep, tail


def _emit(fmt: str, header: list[str], row: list[str], payload, text) -> None:
    """Write one record to stdout whole: text, its lines; csv, header then
    row; json, payload indented as json.dumps writes it."""
    if fmt == "json":
        import json
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        lines = text if fmt == "text" else map(",".join, [header, row])
        sys.stdout.write("".join(line + "\n" for line in lines))


# The census routes, which share no counting code (see orbits): name ->
# (what `orbitlab orbits` charges it to the budget, its count of a GroupSpec)
ROUTES = {
    "bfs": ("states", lambda spec: orbits.count_orbits_bfs(spec).orbit_count),
    "canonical": ("states", lambda spec: orbits.count_orbits_canonical(spec).orbit_count),
    "burnside": ("diagonals", lambda spec: orbits.count_orbits_burnside(spec).orbit_count),
    "formula": (None, lambda spec: formulas.r_formula(spec.p, spec.n)),
}


def walk_listing(spec: GroupSpec) -> dict:
    """The echelon runs walked once, not held: their orbits `listed`, the sum
    `covered` of their sizes and their distinct `sizes`, increasing."""
    sizes = Counter()
    for _, count, size in orbits._echelon_runs(spec):
        sizes[size] += count
    return {"listed": sizes.total(), "covered": sum(size * count for size, count in sizes.items()),
            "sizes": tuple(sorted(sizes))}


def listing_fault(spec: GroupSpec, counts: dict, listing: dict) -> str | None:
    """Why walk_listing's totals are no census, or None: its length against each
    method's count, its size sum against p^(2n), each size against p(p^2 - 1)."""
    listed, covered, group = listing["listed"], listing["covered"], spec.sl2_order
    for method, count in counts.items():
        if count != listed:
            return f"{method} counts {count} orbits, the listing has {listed}"
    if covered != spec.state_count:
        return f"the listing's sizes sum to {covered}, not to the {spec.state_count} states"
    for size in listing["sizes"]:
        if group % size:
            return f"the listing has an orbit of size {size}, which does not divide {group}"
    return None


def _bridge_values(spec: GroupSpec) -> dict:
    """The bridge's word count and its first certificate of each kind."""
    report = bridge.verify_bridge(spec.n)
    collisions, missed = report.collisions, report.missed_orbits
    return {"bridge_words": report.word_count, "collisions": len(collisions),
            "first_collision": "/".join(map(str, collisions[0])) if collisions else "-",
            "missed": len(missed),
            "first_missed": state_formatter(spec)(missed[0]).replace(" ", ",") if missed else "-"}


# verify's checks in column order, name -> (run, verdict), each looking up its
# engines at call time: run(spec) gives the column's values by evidence key, or
# None where it does not apply; verdict(spec, values) reads the cell's values.
COLUMNS = {
    "methods": (lambda spec: {**{name: count(spec) for name, (_, count) in ROUTES.items()
                                 if name != "formula"}, **walk_listing(spec)},
                lambda spec, v: listing_fault(
                    spec, {name: v[name] for name in ROUTES if name != "formula"}, v) is None),
    "formula": (lambda spec: {"formula": formulas.r_formula(spec.p, spec.n),
                              **({"product": formulas.r_p2_product(spec.n)}
                                 if spec.p == 2 and spec.n else {})},
                lambda spec, v: v["bfs"] == v["formula"] == v.get("product", v["formula"])),
    "words": (lambda spec: {"words": words.count_words(spec.n)}
              if spec.p == 2 and spec.n else None,
              lambda spec, v: v["words"] == v["formula"] == v["bridge_words"]),
    "bridge": (lambda spec: _bridge_values(spec) if spec.p == 2 and spec.n else None,
               # one word per orbit: no two share one, and as many as Burnside counts
               lambda spec, v: v["collisions"] == 0 and v["bridge_words"] == v["burnside"]),
}


def check_cell(spec: GroupSpec):
    """Run each COLUMNS row once on one cell: its verdicts by column, None where the run
    gave None; its key=value evidence, None unless one fails, the listing's totals last; r."""
    ran = [(name, run(spec), verdict) for name, (run, verdict) in COLUMNS.items()]
    values = {key: value for _, got, _ in ran if got for key, value in got.items()}
    verdicts = {name: None if got is None else verdict(spec, values) for name, got, verdict in ran}
    values |= {key: values.pop(key) for key in ("listed", "covered", "sizes")}
    evidence = " ".join(f"{key}={','.join(map(str, value)) if type(value) is tuple else value}"
                        for key, value in values.items())
    return verdicts, evidence if False in verdicts.values() else None, values["formula"]


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
              [str(args.p), str(args.n), args.method, str(count)],
              payload, text=[str(count)])
        return 0

    listing = walk_listing(spec)
    if fault := listing_fault(spec, {args.method: count}, listing):
        print(f"orbits: {fault}", file=sys.stderr)
        return 1
    header = ["representative", "size", "stabilizer_order"]
    _, pieces, body = _formatters(spec)
    tables = {size: (body, [str(size), str(formulas.exact_div(spec.sl2_order, size))
                            if args.n else "-"]) for size in listing["sizes"]}
    listed = pieces(orbits._echelon_runs(spec))  # keyed by orbit size
    _write(*_listing(args.format, header, payload, "orbits", tables, listed))
    return 0


def cmd_words(args) -> int:
    # over the state budget exits 3 before the count; count_words refuses m < 0
    if args.list and args.m >= 0:
        check_budget(4, args.m, args.budget)
    check_printable(2, args.m)  # count_words(m) = r(2, m)
    count = str(words.count_words(args.m))
    payload = {"m": args.m, "count": count}
    if args.list:  # the words stream block by block, each tails table spelled once
        spell, (tails, walk) = words.spell, words._blocks(args.m)
        tables = {rank: ([*map(spell, t)], ()) for rank, t in enumerate(tails)}
        blocks = ((rank, spell(prefix), 0, len(tails[rank])) for prefix, rank in walk)
        _write(*_listing(args.format, ["word"], payload, "words", tables, blocks))
    else:
        _emit(args.format, ["m", "count"], [str(args.m), count], payload, text=[count])
    return 0


def cmd_encode(args) -> int:
    word = words.word_from_string(args.word)  # so str(word) is args.word
    m = len(word)
    i = bridge._word_index(word, m)  # refuses the empty word
    spec = GroupSpec(2, m)
    least = orbits._least(spec)
    fmt = state_formatter(spec)
    rows, canon = fmt(i), fmt(least(i))
    _emit(args.format, ["word", "rows", "canonical"], [args.word, rows, canon],
          {"word": args.word, "rows": rows.split(" "),
           "canonical": canon.split(" ")},
          text=[f"rows: {rows}", f"canonical: {canon}"])
    return 0


def cmd_verify(args) -> int:
    if args.m_max < 1:
        raise ValueError(f"m-max must be >= 1, got {args.m_max}")
    GroupSpec(args.p, 0)  # a composite or unit p exits 2 before the budget
    check_budget(args.p, 2 * args.m_max, args.budget)  # the largest m has the most states
    header, failed = ["m", *COLUMNS, "result", "r"], False
    head, row, sep, tail = _layout(args.format, header)
    sys.stdout.write(" ".join(header) + "\n" if args.format == "text" else head)
    for m in range(1, args.m_max + 1):  # each row out as its m finishes
        verdicts, evidence, r = check_cell(GroupSpec(args.p, m))
        if evidence:
            print(f"verify: m={m} FAIL {evidence}", file=sys.stderr)
            failed = True
        cells = (str(m), *("-" if ok is None else "PASS" if ok else "FAIL"
                           for ok in (*verdicts.values(), not evidence)), str(r))
        sys.stdout.write(row % cells + (sep if m < args.m_max else tail))
        sys.stdout.flush()
    return 1 if failed else 0


def cmd_sequence(args) -> int:
    check_printable(args.p, args.n_max)  # r grows with n
    table = formulas._sequence(args.p, args.n_max)
    head, row, sep, tail = _layout(args.format, ["n", "r"], numbers=["n"])
    _write(head, zip(map((sep + row).__mod__, table), repeat(1)), sep, tail)
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

    p_verify = sub.add_parser("verify", help="cross-check every route over Z_p^m, m <= m-max")
    p_verify.add_argument("--p", type=int, default=2, help="the prime p (default 2)")
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
