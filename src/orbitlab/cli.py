"""Command line front end.

Subcommands: orbits, words, encode, verify, sequence.  Data goes to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 verification failure
(verify, or an orbits listing whose length differs from the count),
2 usage error or a count too long to print, 3 state budget exceeded.  Json
and csv counts are decimal strings, so consumers never round large values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import bridge, formulas, orbits, words
from .budget import BudgetExceeded, check_budget
from .residues import GroupSpec, PairState


def format_state(state: PairState) -> str:
    """Rows as digit strings, row i = g_i then k_i, joined by spaces."""
    if state.spec.n == 0:
        return "-"
    sep = "" if state.spec.p <= 10 else ":"
    return " ".join(f"{gi}{sep}{ki}" for gi, ki in state.rows())


def _refuse_unprintable(p: int, n: int) -> None:
    """Refuse r(p, n) before computing it when it has more digits than Python
    prints; p^(2n-1) / (p^2 - 1) < r, so a count that prints passes."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    log10 = (2 * n - 1) * math.log10(p) - math.log10(p * p - 1) if p > 1 else 0
    if limit and log10 > limit:
        raise ValueError(f"the count has {int(log10) + 1} digits, more than the "
                         f"{limit} that sys.get_int_max_str_digits() allows to print")


def _emit(fmt: str, header: list[str], rows: list[list[str]], payload,
          text: list[str] | None = None) -> None:
    """Write one result to stdout in the chosen format.

    text: the text lines, by default each row joined by spaces; csv: header
    then rows; json: payload, indented.
    """
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        if text is None:
            text = [" ".join(row) for row in rows]
        sys.stdout.write("".join(f"{line}\n" for line in text))


def cmd_orbits(args) -> int:
    spec = GroupSpec.uniform(args.p, args.n)
    # the listing first: an input over the state budget exits 3 before any count
    summaries = orbits.orbit_summaries(spec, args.budget) if args.list else None
    if args.method in ("formula", "burnside"):  # the others are bounded by the budget
        _refuse_unprintable(args.p, args.n)
    if args.method == "formula":
        count = formulas.r_formula(args.p, args.n)
    elif args.method == "bfs":
        count = orbits.count_orbits_bfs(spec, args.budget).orbit_count
    elif args.method == "canonical":
        count = orbits.count_orbits_canonical(spec, args.budget).orbit_count
    else:
        count = orbits.count_orbits_burnside(spec).orbit_count
    payload = {"p": args.p, "n": args.n, "method": args.method,
               "orbit_count": str(count)}

    if not args.list:
        _emit(args.format, ["p", "n", "method", "orbit_count"],
              [[str(args.p), str(args.n), args.method, str(count)]],
              payload, text=[str(count)])
        return 0

    if count != len(summaries):  # the listing is not a census of its own
        print(f"orbits: {args.method} counts {count} orbits, "
              f"the listing has {len(summaries)}", file=sys.stderr)
        return 1
    header = ["representative", "size", "stabilizer_order"]
    rows = [[format_state(s.representative), str(s.size),
             "-" if s.stabilizer_order is None else str(s.stabilizer_order)]
            for s in summaries]
    if args.format == "json":  # tens of thousands of dicts; skip them otherwise
        payload["orbits"] = [dict(zip(header, row)) for row in rows]
    _emit(args.format, header, rows, payload)
    return 0


def cmd_words(args) -> int:
    if args.list:
        listed = [str(w) for w in words.enumerate_words(args.m, args.budget)]
        _emit(args.format, ["word"], [[w] for w in listed],
              {"m": args.m, "count": str(len(listed)), "words": listed})
        return 0

    _refuse_unprintable(2, args.m)  # count_words(m) = r(2, m)
    count = str(words.count_words(args.m))
    _emit(args.format, ["m", "count"], [[str(args.m), count]],
          {"m": args.m, "count": count}, text=[count])
    return 0


def cmd_encode(args) -> int:
    word = words.word_from_string(args.word)
    state = bridge.encode_word(word)
    rows = format_state(state)
    canon = format_state(orbits.canonical_form(state))
    _emit(args.format, ["word", "rows", "canonical"], [[str(word), rows, canon]],
          {"word": str(word), "rows": rows.split(" "),
           "canonical": canon.split(" ")},
          text=[f"rows: {rows}", f"canonical: {canon}"])
    return 0


def cmd_verify(args) -> int:
    if args.m_max < 1:
        raise ValueError(f"m-max must be >= 1, got {args.m_max}")
    check_budget(4 ** args.m_max, args.budget)  # the largest m has the most states
    rows = []
    all_ok = True
    for m in range(1, args.m_max + 1):
        spec = GroupSpec.uniform(2, m)
        report = bridge.verify_bridge(m, args.budget)
        bfs = orbits.count_orbits_bfs(spec, args.budget).orbit_count
        can = orbits.count_orbits_canonical(spec, args.budget).orbit_count
        bur = report.orbit_count  # verify_bridge's Burnside census
        r = formulas.r_formula(2, m)
        wc = words.count_words(m)

        methods_ok = bfs == can == bur
        formula_ok = bfs == r and formulas.r_p2_product(m) == r
        words_ok = wc == r and report.word_count == r
        bridge_ok = (report.is_injective_on_orbits
                     and report.is_surjective_on_orbits)
        ok = methods_ok and formula_ok and words_ok and bridge_ok
        all_ok = all_ok and ok
        if not ok:  # the evidence: every count, the first certificate of each kind
            pair = "/".join(map(str, report.collisions[0])) if report.collisions else "-"
            miss = (format_state(report.missed_orbits[0]).replace(" ", ",")
                    if report.missed_orbits else "-")
            print(f"verify: m={m} FAIL bfs={bfs} canonical={can} burnside={bur} "
                  f"formula={r} words={wc} bridge_words={report.word_count} "
                  f"collisions={len(report.collisions)} first_collision={pair} "
                  f"missed={len(report.missed_orbits)} first_missed={miss}",
                  file=sys.stderr)
        flag = lambda b: "PASS" if b else "FAIL"
        rows.append([str(m), flag(methods_ok), flag(formula_ok),
                     flag(words_ok), flag(bridge_ok), flag(ok), str(r)])

    header = ["m", "methods", "formula", "words", "bridge", "result", "r"]
    _emit(args.format, header, rows, [dict(zip(header, row)) for row in rows],
          text=[" ".join(row) for row in [header, *rows]])
    return 0 if all_ok else 1


def cmd_sequence(args) -> int:
    _refuse_unprintable(args.p, args.n_max)  # r grows with n
    table = formulas.sequence_table(args.p, args.n_max)
    _emit(args.format, ["n", "r"], [[str(n), str(r)] for n, r in table],
          [{"n": n, "r": str(r)} for n, r in table])
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=["text", "json", "csv"],
                     default="text", help="output format (default text)")
    sub.add_argument("--budget", type=int, default=None,
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
    p_orbits.add_argument("--method", default="bfs",
                          choices=["bfs", "canonical", "burnside", "formula"])
    p_orbits.add_argument("--list", action="store_true",
                          help="print one orbit summary per line")
    _add_common(p_orbits)

    p_words = sub.add_parser("words", help="count or list restricted growth words")
    p_words.add_argument("--m", type=int, required=True)
    p_words.add_argument("--list", action="store_true")
    _add_common(p_words)

    p_encode = sub.add_parser("encode", help="encode a word as a bit matrix")
    p_encode.add_argument("word", help="digit string such as 234")
    _add_common(p_encode)

    p_verify = sub.add_parser("verify", help="cross-check every route for m <= m-max")
    p_verify.add_argument("--m-max", dest="m_max", type=int, required=True)
    _add_common(p_verify)

    p_seq = sub.add_parser("sequence", help="emit the orbit count table")
    p_seq.add_argument("--p", type=int, required=True)
    p_seq.add_argument("--n-max", dest="n_max", type=int, required=True)
    _add_common(p_seq)

    return parser


_HANDLERS = {
    "orbits": cmd_orbits,
    "words": cmd_words,
    "encode": cmd_encode,
    "verify": cmd_verify,
    "sequence": cmd_sequence,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
