"""Command-line interface.

Subcommands: report, verify, oracle, necklace, classical, corpus. Output is
JSON on stdout (deterministic field order, integer payloads as decimal
strings); --csv switches tabular commands to CSV. Exit codes: 0 success or
all checks passed, 1 verification failure, 2 input error, 3 resource cap,
4 stdout closed before the output was written (for example `| head`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Sequence

from .config import DEFAULT_LIMITS, DEFAULT_ORACLE_MAX, DEFAULT_ORDER
from .corpus import write_corpus
from .errors import CapExceeded, ExactnessError
from .graphs import OrientedGraph, build_edge_matrix, check_connected, load_graph, symmetrize
from .matrices import (
    IntMatrix,
    det_poly_direct,
    det_poly_from_traces,
    edge_walk_traces,
    kronecker,
    mat_pow,
    trace_powers,
)
from .oracle import count_nonperiodic_classes, enumerate_cycles, necklace_classes
from .report import build_report
from .series import TruncSeries, product_power, series_inverse
from .witt import (
    class_kron_pair_sides,
    class_mixed_powers_sides,
    class_power_sides,
    classical_necklace_count,
    coefficients_from_traces,
    cycle_class_count,
    s_kron_multi_sides,
    s_kron_pair_sides,
    s_mixed_powers_sides,
    s_power_sides,
    traces_from_coefficients,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_OUTPUT = 4

GRAPH_CHECKS = ("det-routes", "det-product", "zeta", "coeff-roundtrip")
PARTITION_CHECKS = ("zeta", "coeff-roundtrip")
PAIR_CHECKS = ("s-kron", "class-kron", "s-mixed-powers", "class-mixed-powers")
POWER_CHECKS = ("s-power", "class-power")
MULTI_CHECKS = ("s-kron-multi",)
ALL_CHECKS = GRAPH_CHECKS + PAIR_CHECKS + POWER_CHECKS + MULTI_CHECKS

# Default verify grid, chosen to finish in seconds on desk-scale graphs.
VERIFY_PAIR_N = 6
VERIFY_POWER_N = 6
VERIFY_POWER_L = (2, 3)
VERIFY_MULTI_N = 4
VERIFY_MIXED_N = 4
VERIFY_MIXED_RS = (2, 3)


def _emit(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2))


def _load(path: str, strict_connected: bool) -> OrientedGraph:
    g = load_graph(path)
    if strict_connected and not check_connected(g):
        raise ValueError(f"{path}: graph is not connected (--strict-connected)")
    return g


def _str_list(values: Sequence[int]) -> list[str]:
    return [str(v) for v in values]


def cmd_report(args: argparse.Namespace) -> int:
    g = _load(args.graph, args.strict_connected)
    doc = build_report(g, order=args.order)
    if args.csv:
        print("n,trace,class_count,lie_dim,enveloping_dim")
        for n in range(1, doc.order + 1):
            print(
                f"{n},{doc.traces[n - 1]},{doc.class_counts[n - 1]},"
                f"{doc.lie_dims[n - 1]},{doc.enveloping_dims[n - 1]}"
            )
    else:
        _emit(doc.to_json_dict())
    return EXIT_OK


def _check_entry(check: str, graphs: tuple[str, ...], params: dict[str, Any],
                 lhs: Any, rhs: Any, ok: bool, detail: str = "") -> dict[str, Any]:
    entry = {
        "check": check,
        "graphs": list(graphs),
        "params": params,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "pass": ok,
    }
    if detail:
        entry["detail"] = detail
    return entry


def _safe_entry(check: str, graphs: tuple[str, ...], params: dict[str, Any],
                thunk) -> dict[str, Any]:
    """Run one two-sided check; an exactness failure is a verification
    failure with the message as witness, not a crash."""
    try:
        lhs, rhs = thunk()
    except ExactnessError as exc:
        return _check_entry(check, graphs, params, "-", "-", False, detail=str(exc))
    return _check_entry(check, graphs, params, lhs, rhs, lhs == rhs)


def _graph_level_checks(
    name: str, t: IntMatrix, traces: Sequence[int], order: int, tokens: set[str]
) -> list[dict[str, Any]]:
    out = []
    if "det-routes" in tokens:
        def det_routes():
            a = det_poly_from_traces(traces, t.dim)
            b = det_poly_direct(t)
            return _str_list(a.coefficients), _str_list(b.coefficients)

        out.append(_safe_entry("det-routes", (name,), {"dim": t.dim}, det_routes))
    if "det-product" in tokens:
        def det_product():
            det = det_poly_from_traces(traces, t.dim)
            counts = [cycle_class_count(n, traces) for n in range(1, order + 1)]
            lhs = product_power(counts, "plus").integer_coefficients()
            rhs = tuple(det.coefficient(i) for i in range(order + 1))
            return _str_list(lhs), _str_list(rhs)

        out.append(_safe_entry("det-product", (name,), {"order": order}, det_product))
    if "zeta" in tokens:
        def zeta_triple():
            det = det_poly_from_traces(traces, t.dim)
            counts = [cycle_class_count(n, traces) for n in range(1, order + 1)]
            zeta = series_inverse(TruncSeries.from_coefficients(det.coefficients, order))
            lhs = zeta.integer_coefficients()
            rhs = product_power(counts, "minus").integer_coefficients()
            c_minus = coefficients_from_traces(traces, "minus", order)
            if any(c < 0 for c in c_minus):
                raise ExactnessError(f"negative zeta coefficient: {c_minus}")
            return (_str_list(lhs), _str_list(lhs[1:])), (_str_list(rhs), _str_list(c_minus))

        out.append(_safe_entry("zeta", (name,), {"order": order}, zeta_triple))
    if "coeff-roundtrip" in tokens:
        def roundtrip():
            lhs, rhs = [], []
            for sign in ("plus", "minus"):
                coeffs = coefficients_from_traces(traces, sign, order)
                lhs.append(list(map(str, traces_from_coefficients(coeffs, sign, order))))
                rhs.append(_str_list(traces[:order]))
            return lhs, rhs

        out.append(_safe_entry("coeff-roundtrip", (name,), {"order": order}, roundtrip))
    return out


def _identity_checks(
    named: list[tuple[str, IntMatrix, tuple[int, ...]]],
    tokens: set[str],
    max_dim: int,
) -> tuple[list[dict[str, Any]], int]:
    """Run the convolution identities over the loaded graphs; returns
    (entries, skipped). Oversized composites are skipped, not failed."""
    out: list[dict[str, Any]] = []
    skipped = 0

    def guarded_kron(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
        if a.dim * b.dim > max_dim:
            return None
        return kronecker(a, b, max_dim=max_dim)

    pair_tokens = tokens & set(PAIR_CHECKS)
    if pair_tokens:
        for name_a, t_a, tr_a in named:
            for name_b, t_b, tr_b in named:
                kron = guarded_kron(t_a, t_b)
                if kron is None:
                    skipped += len(pair_tokens)
                    continue
                if {"s-kron", "class-kron"} & pair_tokens:
                    trk = trace_powers(kron, VERIFY_PAIR_N)
                    for token, sides in (("s-kron", s_kron_pair_sides),
                                         ("class-kron", class_kron_pair_sides)):
                        if token not in pair_tokens:
                            continue
                        for n in range(1, VERIFY_PAIR_N + 1):
                            out.append(_safe_entry(
                                token, (name_a, name_b), {"n": n},
                                lambda sides=sides, n=n: sides(tr_a, tr_b, trk, n)[:2],
                            ))
                if {"s-mixed-powers", "class-mixed-powers"} & pair_tokens:
                    r, s = VERIFY_MIXED_RS
                    mixed = guarded_kron(mat_pow(t_a, s), mat_pow(t_b, r))
                    if mixed is None:
                        skipped += len({"s-mixed-powers", "class-mixed-powers"} & pair_tokens)
                    else:
                        tr_mixed = trace_powers(mixed, VERIFY_MIXED_N)
                        for token, sides in (("s-mixed-powers", s_mixed_powers_sides),
                                             ("class-mixed-powers", class_mixed_powers_sides)):
                            if token not in pair_tokens:
                                continue
                            for n in range(1, VERIFY_MIXED_N + 1):
                                out.append(_safe_entry(
                                    token, (name_a, name_b), {"n": n, "r": r, "s": s},
                                    lambda sides=sides, n=n, tm=tr_mixed:
                                        sides(tr_a, tr_b, tm, r, s, n)[:2],
                                ))
    if tokens & set(POWER_CHECKS):
        for name, t, tr in named:
            for l in VERIFY_POWER_L:
                tr_power = trace_powers(mat_pow(t, l), VERIFY_POWER_N)
                for token, sides in (("s-power", s_power_sides),
                                     ("class-power", class_power_sides)):
                    if token not in tokens:
                        continue
                    for n in range(1, VERIFY_POWER_N + 1):
                        out.append(_safe_entry(
                            token, (name,), {"n": n, "l": l},
                            lambda sides=sides, n=n, l=l, tp=tr_power, tr=tr:
                                sides(tp, tr, l, n)[:2],
                        ))
    if "s-kron-multi" in tokens:
        for name_a, t_a, tr_a in named:
            for name_b, t_b, tr_b in named:
                for name_c, t_c, tr_c in named:
                    if t_a.dim * t_b.dim * t_c.dim > max_dim:
                        skipped += 1
                        continue
                    kron = kronecker(kronecker(t_a, t_b, max_dim), t_c, max_dim)
                    trk = trace_powers(kron, VERIFY_MULTI_N)
                    for n in range(1, VERIFY_MULTI_N + 1):
                        out.append(_safe_entry(
                            "s-kron-multi", (name_a, name_b, name_c), {"n": n},
                            lambda n=n, a=tr_a, b=tr_b, c=tr_c, trk=trk:
                                s_kron_multi_sides((a, b, c), trk, n)[:2],
                        ))
    return out, skipped


def cmd_verify(args: argparse.Namespace) -> int:
    tokens = set(ALL_CHECKS if args.identities is None else args.identities.split(","))
    unknown = tokens - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown identities: {sorted(unknown)}; available: {list(ALL_CHECKS)}")
    partition_checks = sorted(tokens & set(PARTITION_CHECKS))
    if partition_checks and args.order > DEFAULT_LIMITS.max_partition_order:
        raise CapExceeded(
            f"--order {args.order} exceeds the partition-sum cap "
            f"{DEFAULT_LIMITS.max_partition_order} of {', '.join(partition_checks)}"
        )

    named: list[tuple[str, IntMatrix, tuple[int, ...]]] = []
    for path in args.graphs:
        g = _load(path, args.strict_connected)
        sg = symmetrize(g)
        t = build_edge_matrix(sg)
        depth = max(args.order, t.dim, VERIFY_POWER_N * max(VERIFY_POWER_L),
                    VERIFY_MIXED_N * max(VERIFY_MIXED_RS))
        named.append((Path(path).stem, t, edge_walk_traces(sg.origins, sg.ends, depth)))

    if args.perturb_trace is not None:
        name, t, traces = named[0]
        if not (1 <= args.perturb_trace <= len(traces)):
            raise ValueError(f"--perturb-trace must be in 1..{len(traces)}")
        mutated = list(traces)
        mutated[args.perturb_trace - 1] += 1
        named[0] = (name, t, tuple(mutated))

    checks: list[dict[str, Any]] = []
    for name, t, traces in named:
        checks.extend(_graph_level_checks(name, t, traces, args.order, tokens))
    identity_entries, skipped = _identity_checks(named, tokens, DEFAULT_LIMITS.max_matrix_dim)
    checks.extend(identity_entries)

    failed = sum(1 for c in checks if not c["pass"])
    payload = {
        "order": args.order,
        "graphs": [name for name, _, _ in named],
        "perturbed_trace": args.perturb_trace,
        "checks": checks,
        "counts": {"passed": len(checks) - failed, "failed": failed, "skipped": skipped},
        "all_pass": failed == 0,
    }
    _emit(payload)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load(args.graph, args.strict_connected)
    if args.oracle_max > DEFAULT_LIMITS.max_cycle_length:
        raise CapExceeded(
            f"--oracle-max {args.oracle_max} exceeds the enumeration cap "
            f"{DEFAULT_LIMITS.max_cycle_length}"
        )
    warnings = []
    if not check_connected(g):
        warnings.append("graph is not connected")
    sg = symmetrize(g)
    traces = edge_walk_traces(sg.origins, sg.ends, args.oracle_max)
    rows = []
    all_match = True
    for n in range(1, args.oracle_max + 1):
        enumerated = sum(1 for _ in enumerate_cycles(sg, n))
        classes = count_nonperiodic_classes(sg, n)
        formula = cycle_class_count(n, traces)
        match = enumerated == traces[n - 1] and classes == formula
        all_match = all_match and match
        rows.append({
            "n": n,
            "trace": str(traces[n - 1]),
            "enumerated": str(enumerated),
            "class_count": str(formula),
            "nonperiodic_classes": str(classes),
            "match": match,
        })
    if args.csv:
        print("n,trace,enumerated,class_count,nonperiodic_classes,match")
        for row in rows:
            print(f"{row['n']},{row['trace']},{row['enumerated']},"
                  f"{row['class_count']},{row['nonperiodic_classes']},{row['match']}")
    else:
        _emit({
            "graph": {"vertices": g.vertex_count, "edges": g.edge_count,
                      "warnings": warnings},
            "oracle_max": args.oracle_max,
            "rows": rows,
            "all_match": all_match,
        })
    return EXIT_OK if all_match else EXIT_VERIFY_FAILED


def cmd_necklace(args: argparse.Namespace) -> int:
    g = _load(args.graph, args.strict_connected)
    sg = symmetrize(g)
    classes = necklace_classes(sg, args.length)
    words = [cls.word for cls in classes]
    if args.csv:
        for word in words:
            print(word)
    else:
        _emit({
            "length": args.length,
            "colors": 2 * g.edge_count,
            "count": str(len(words)),
            "words": words,
        })
    return EXIT_OK


def cmd_classical(args: argparse.Namespace) -> int:
    if args.r < 0:
        raise ValueError(f"color count must be >= 0, got {args.r}")
    if args.n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {args.n_max}")
    values = [classical_necklace_count(n, args.r) for n in range(1, args.n_max + 1)]
    if args.csv:
        print("n,value")
        for n, v in enumerate(values, start=1):
            print(f"{n},{v}")
    else:
        _emit({
            "colors": args.r,
            "rows": [{"n": n, "value": str(v)} for n, v in enumerate(values, start=1)],
        })
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    paths = write_corpus(args.out_dir)
    _emit({"written": [str(p) for p in sorted(paths)]})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcycles",
        description="Exact cycle-class counting, graph zeta functions, and "
                    "graded dimension data for oriented graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, order: bool = True) -> None:
        if order:
            p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                           help=f"series/table truncation order K (default {DEFAULT_ORDER})")
        p.add_argument("--strict-connected", action="store_true",
                       help="reject disconnected graphs instead of warning")
        p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")

    p_report = sub.add_parser("report", help="full per-graph report")
    p_report.add_argument("graph", help="graph JSON file")
    add_common(p_report)
    p_report.set_defaults(func=cmd_report)

    p_verify = sub.add_parser("verify", help="run the identity check suite")
    p_verify.add_argument("graphs", nargs="+", help="graph JSON file(s)")
    p_verify.add_argument("--identities", default=None,
                          help="comma-separated subset of: " + ",".join(ALL_CHECKS))
    p_verify.add_argument("--perturb-trace", type=int, default=None, metavar="N",
                          help="corrupt trace N of the first graph (negative control)")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration vs formulas")
    p_oracle.add_argument("graph", help="graph JSON file")
    p_oracle.add_argument("--oracle-max", type=int, default=DEFAULT_ORACLE_MAX,
                          help=f"largest cycle length to enumerate (default {DEFAULT_ORACLE_MAX})")
    add_common(p_oracle, order=False)
    p_oracle.set_defaults(func=cmd_oracle)

    p_neck = sub.add_parser("necklace", help="coloring words of non-periodic classes")
    p_neck.add_argument("graph", help="graph JSON file")
    p_neck.add_argument("length", type=int, help="necklace length N")
    add_common(p_neck, order=False)
    p_neck.set_defaults(func=cmd_necklace)

    p_cls = sub.add_parser("classical", help="necklace polynomial table M(n; r)")
    p_cls.add_argument("n_max", type=int, help="largest n")
    p_cls.add_argument("r", type=int, help="number of colors")
    p_cls.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p_cls.set_defaults(func=cmd_classical)

    p_corpus = sub.add_parser("corpus", help="write the reference graph files")
    p_corpus.add_argument("out_dir", help="target directory")
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        # The reader went away; nobody is left to tell. Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OUTPUT
    except (ValueError, OSError, ExactnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())
