"""Command-line interface: detection, evaluation and the benchmark harness."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import gc
import math
import os
import random
import statistics
import sys
import time

from .cover import read_cover_file, write_cover_file
from .graph import Graph, GraphParseError, load_edge_list
from .metrics import cover_stats, modularity
from .pipeline import detect
from .traversal import RunConfig, run_traversal


class CliError(Exception):
    """Input or usage error; maps to exit code 2."""


def _utf8_lines(lines):
    """``lines`` in order, up to the first that is not valid UTF-8.

    ``lines`` come from a file read with ``errors="surrogateescape"``, so each
    encodes back to the bytes it was read from; the first that does not
    decode raises :class:`GraphParseError` naming its line and byte offset.
    """
    for lineno, line in enumerate(lines, start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphParseError(
                lineno, f"not valid UTF-8 ({exc.reason} at byte {exc.start})"
            ) from None
        yield line


def _parse_utf8(path: str, parse):
    """``parse`` applied to the lines of ``path`` read as UTF-8 text.

    Text mode splits lines at every newline convention, and a leading
    byte-order mark is dropped, so it never becomes part of the first
    label.  If the file is not valid UTF-8 it is read again and checked line
    by line in file order, so the first bad line is named, whether it is
    malformed or not UTF-8.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            return parse(_utf8_lines(fh))


def _load_graph(path: str) -> Graph:
    try:
        return _parse_utf8(path, load_edge_list)
    except OSError as exc:
        raise CliError(f"cannot read input {path}: {exc}") from exc
    except GraphParseError as exc:
        raise CliError(f"cannot parse {path}: {exc}") from exc


def _resolve_start(g: Graph, value: str) -> int | None:
    if value == "auto":
        return None
    try:
        return g.labels.index(value)
    except ValueError:
        raise CliError(f"start node {value!r} not present in the graph") from None


def _run_config(**fields) -> RunConfig:
    try:
        return RunConfig(**fields)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_detect(args) -> int:
    t0 = time.perf_counter()
    g = _load_graph(args.input)
    parse_ms = (time.perf_counter() - t0) * 1000.0
    cfg = _run_config(
        method=args.method,
        threshold=args.threshold,
        start=_resolve_start(g, args.start),
        run_modmax=not args.skip_modmax,
    )
    t0 = time.perf_counter()
    result = detect(g, cfg)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    q = modularity(g, result.cover)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_cover_file(g, result.cover, fh)
    except OSError as exc:
        raise CliError(f"cannot write output {args.output}: {exc}") from exc
    print(f"parse_ms={parse_ms:.1f}", file=sys.stderr)
    print(f"{g.n}\t{g.m}\t{result.cover.k}\t{q:.3f}\t{elapsed_ms:.1f}")
    return 0


def cmd_eval(args) -> int:
    g = _load_graph(args.input)
    try:
        cover = _parse_utf8(args.cover, functools.partial(read_cover_file, g))
    except OSError as exc:
        raise CliError(f"cannot read cover {args.cover}: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    stats = cover_stats(g, cover)
    print(f"Q\t{stats.modularity:.3f}")
    print(f"k\t{len(stats.sizes)}")
    print(
        "sizes\t"
        + "\t".join(f"{c}:{stats.sizes[c]}" for c in sorted(stats.sizes))
    )
    print(
        "conductance\t"
        + "\t".join(f"{c}:{stats.conductances[c]:.3f}" for c in sorted(stats.conductances))
    )
    return 0


def _time_samples(graphs: list[Graph], run, cfg: RunConfig, rounds: int):
    """Times ``run(g, cfg)`` on every graph once per round, back to back, for
    ``rounds`` rounds (README, ``bench``).  Returns ``times[r][i]`` in ms, each
    graph's last result and the fit against edge count of each median round
    share times the median round total: slope and intercept in ms, R^2."""
    times = []
    gc.disable()
    try:
        for _ in range(rounds):
            results, row = [], []
            for g in graphs:
                t0 = time.perf_counter()
                results.append(run(g, cfg))
                row.append((time.perf_counter() - t0) * 1000.0)
            times.append(row)
    finally:
        gc.enable()
    xs = [g.m for g in graphs]
    totals = [sum(row) for row in times]
    shares = [statistics.median(t / total for t, total in zip(col, totals)) for col in zip(*times)]
    scale = statistics.median(totals)
    slope, intercept = statistics.linear_regression(xs, [share * scale for share in shares])
    r2 = statistics.correlation(xs, shares) ** 2 if len(set(shares)) > 1 else 1.0
    return times, results, (slope, intercept, r2)


def cmd_bench(args) -> int:
    cfg = _run_config(method=args.method, threshold=args.threshold)
    if args.repeats < 1:
        raise CliError("repeats must be >= 1")
    graphs = [_load_graph(path) for path in args.input]
    if len({g.m for g in graphs}) < 2:
        raise CliError("need at least two inputs with distinct edge counts for a linearity fit")
    full = args.phase == "full"
    times, results, (slope, intercept, r2) = _time_samples(
        graphs, detect if full else run_traversal, cfg, args.repeats
    )
    quality = [
        (f"{modularity(g, result.cover):.6f}", result.cover.k) if full else ("", 0)
        for g, result in zip(graphs, results)
    ]
    datasets = [os.path.splitext(os.path.basename(path))[0] for path in args.input]
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(("dataset", "n", "m", "method", "phase", "run", "time_ms", "Q", "k"))
    for r, row in enumerate(times):
        for dataset, g, ms, (q_text, k) in zip(datasets, graphs, row, quality):
            out.writerow((dataset, g.n, g.m, args.method, args.phase, r, f"{ms:.3f}", q_text, k))
    print(f"fit slope_ms_per_edge={slope:.6g} intercept_ms={intercept:.6g} r2={r2:.4f}", file=sys.stderr)
    return 0


def cmd_sweep_threshold(args) -> int:
    if not (args.step > 0 and args.start_r <= args.stop):
        raise CliError("need step > 0 and a non-empty threshold range")
    # Row i runs round(from + i*step, 10) capped at --to, so thresholds rise
    # from the first to at most --to and checking both ends checks all.  A
    # step below 1e-10 would run some rounded threshold twice.  The 1e-9
    # absorbs the float error of the division when the step divides the range.
    _run_config(threshold=round(args.start_r, 10))
    _run_config(threshold=args.stop)
    if args.step < 1e-10:
        raise CliError(f"step {args.step:g} cannot advance the threshold up to {args.stop:g}")
    if math.isinf(args.step):
        raise CliError(f"step {args.step:g} is not finite")
    rows = math.floor((args.stop - args.start_r) / args.step + 1e-9) + 1
    g = _load_graph(args.input)
    print("r,Q,k")
    for i in range(rows):
        threshold = min(round(args.start_r + i * args.step, 10), args.stop)
        result = detect(g, _run_config(method="ins", threshold=threshold))
        q = modularity(g, result.cover)
        # Two decimals where they are exact, else every digit the run used.
        label = f"{threshold:.2f}" if round(threshold, 2) == threshold else str(threshold)
        print(f"{label},{q:.6f},{result.cover.k}")
    return 0


def cmd_sweep_start(args) -> int:
    cfg = _run_config(method="ins", threshold=args.threshold)
    g = _load_graph(args.input)
    if g.n == 0:
        raise CliError("cannot sweep start nodes of an empty graph")
    if args.sample == "all":
        count = g.n
    else:
        try:
            count = int(args.sample)
        except ValueError:
            raise CliError(f"--sample must be 'all' or an integer, got {args.sample!r}") from None
        if count < 1:
            raise CliError("--sample must be >= 1")
    # A sorted sample of every node is every node in id order.
    starts = sorted(random.Random(args.seed).sample(range(g.n), min(count, g.n)))
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(("start", "degree", "Q", "k"))
    qs = []
    for v in starts:
        result = detect(g, dataclasses.replace(cfg, start=v))
        q = modularity(g, result.cover)
        qs.append(q)
        out.writerow((g.labels[v], len(g.adj[v]), f"{q:.6f}", result.cover.k))
    mean = statistics.fmean(qs)
    stddev = statistics.pstdev(qs)
    rsd = stddev / mean if mean else float("inf")
    print(f"mean_Q={mean:.4f} stddev={stddev:.4f} rsd={rsd:.4f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commspread",
        description="Traversal-based community detection and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect communities and write a cover file")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("ins", "cond"), required=True)
    p.add_argument("--threshold", type=float, default=0.75)
    p.add_argument("--start", default="auto", help="start node label or 'auto'")
    p.add_argument("--skip-modmax", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="evaluate a cover file against a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="runtime-vs-edges benchmark over a family of input graphs")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--method", choices=("ins", "cond"), default="ins")
    p.add_argument("--threshold", type=float, default=0.75)
    p.add_argument("--phase", choices=("traversal", "full"), default="traversal")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep-threshold", help="detection quality across thresholds")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="start_r", type=float, default=0.4)
    p.add_argument("--to", dest="stop", type=float, default=0.85)
    p.add_argument("--step", type=float, default=0.05)
    p.set_defaults(func=cmd_sweep_threshold)

    p = sub.add_parser("sweep-start", help="detection quality across starting nodes")
    p.add_argument("--input", required=True)
    p.add_argument("--sample", default="all", help="'all' or a sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.75)
    p.set_defaults(func=cmd_sweep_start)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
