"""Command-line interface: detection, evaluation and the benchmark harness."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
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

    Text mode splits lines at every newline convention.  If the file is not
    valid UTF-8 it is read again and checked line by line in file order, so
    the first bad line is named, whether it is malformed or not UTF-8.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return parse(_utf8_lines(fh))


def _load_graph(path: str) -> tuple[Graph, float]:
    start = time.perf_counter()
    try:
        g = _parse_utf8(path, load_edge_list)
    except OSError as exc:
        raise CliError(f"cannot read input {path}: {exc}") from exc
    except GraphParseError as exc:
        raise CliError(f"cannot parse {path}: {exc}") from exc
    return g, (time.perf_counter() - start) * 1000.0


def _resolve_start(g: Graph, value: str) -> int | None:
    if value == "auto":
        return None
    try:
        return g.id_of(value)
    except KeyError:
        raise CliError(f"start node {value!r} not present in the graph") from None


def _run_config(**fields) -> RunConfig:
    try:
        return RunConfig(**fields)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _config(args, start: int | None) -> RunConfig:
    return _run_config(
        method=args.method,
        threshold=args.threshold,
        start=start,
        run_modmax=not getattr(args, "skip_modmax", False),
    )


def cmd_detect(args) -> int:
    g, parse_ms = _load_graph(args.input)
    cfg = _config(args, _resolve_start(g, args.start))
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
    g, _ = _load_graph(args.input)
    try:
        cover = _parse_utf8(args.cover, functools.partial(read_cover_file, g))
    except OSError as exc:
        raise CliError(f"cannot read cover {args.cover}: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    stats = cover_stats(g, cover)
    print(f"Q\t{stats.modularity:.3f}")
    print(f"k\t{stats.community_count}")
    print(
        "sizes\t"
        + "\t".join(f"{c}:{stats.sizes[c]}" for c in sorted(stats.sizes))
    )
    print(
        "conductance\t"
        + "\t".join(f"{c}:{stats.conductances[c]:.3f}" for c in sorted(stats.conductances))
    )
    return 0


def _linear_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares slope, intercept and R^2 (1.0 when ``ys`` is constant)."""
    slope, intercept = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2 if len(set(ys)) > 1 else 1.0
    return slope, intercept, r2


def cmd_bench(args) -> int:
    cfg = _config(args, None)
    g, _ = _load_graph(args.input)
    try:
        fractions = [float(tok) for tok in args.fractions.split(",") if tok]
    except ValueError as exc:
        raise CliError(f"bad fraction list {args.fractions!r}") from exc
    if not fractions or any(not 0.0 < f <= 1.0 for f in fractions):
        raise CliError("fractions must lie in (0, 1]")
    if len(set(fractions)) < 2:
        raise CliError("need at least two distinct fractions for a linearity fit")
    if args.repeats < 1:
        raise CliError("repeats must be >= 1")
    samples = [g if f == 1.0 else g.sample_edges(f, args.seed) for f in fractions]
    if len({sample.m for sample in samples}) < 2:
        raise CliError("fewer than two distinct edge counts for a linearity fit")

    dataset = os.path.splitext(os.path.basename(args.input))[0]
    print("dataset,fraction,method,phase,run,time_ms,Q,k")
    medians: list[tuple[int, float]] = []
    for fraction, sample in zip(fractions, samples):
        times = []
        for run in range(args.repeats):
            t0 = time.perf_counter()
            if args.phase == "traversal":
                run_traversal(sample, cfg)
                q, k = float("nan"), 0
            else:
                result = detect(sample, cfg)
                q, k = modularity(sample, result.cover), result.cover.k
            ms = (time.perf_counter() - t0) * 1000.0
            times.append(ms)
            q_text = "" if math.isnan(q) else f"{q:.6f}"
            print(
                f"{dataset},{fraction},{args.method},{args.phase},{run},{ms:.3f},{q_text},{k}"
            )
        times.sort()
        medians.append((sample.m, times[len(times) // 2]))
    xs = [float(m) for m, _ in medians]
    ys = [t for _, t in medians]
    slope, intercept, r2 = _linear_fit(xs, ys)
    print(f"fit slope_ms_per_edge={slope:.6g} intercept_ms={intercept:.6g} r2={r2:.4f}", file=sys.stderr)
    return 0


def cmd_sweep_threshold(args) -> int:
    if not (args.step > 0 and args.start_r <= args.stop):
        raise CliError("need step > 0 and a non-empty threshold range")
    # Thresholds rise from the first to at most --to, so checking both ends
    # checks all.  r + step > r for every r up to end once step exceeds half
    # an ulp of end; a smaller step (0.4 + 1e-20 == 0.4) never ends the sweep.
    _run_config(threshold=round(args.start_r, 10))
    _run_config(threshold=args.stop)
    end = args.stop + 1e-9  # slack for the float error the steps accumulate
    if not args.step > math.ulp(end) / 2:
        raise CliError(f"step {args.step:g} cannot advance the threshold up to {args.stop:g}")
    g, _ = _load_graph(args.input)
    print("r,Q,k")
    r = args.start_r
    while r <= end:
        result = detect(g, _run_config(method="ins", threshold=min(round(r, 10), args.stop)))
        q = modularity(g, result.cover)
        print(f"{r:.2f},{q:.6f},{result.cover.k}")
        r += args.step
    return 0


def cmd_sweep_start(args) -> int:
    cfg = _run_config(method="ins", threshold=args.threshold)
    g, _ = _load_graph(args.input)
    if g.n == 0:
        raise CliError("cannot sweep start nodes of an empty graph")
    if args.sample == "all":
        starts = list(range(g.n))
    else:
        try:
            count = int(args.sample)
        except ValueError:
            raise CliError(f"--sample must be 'all' or an integer, got {args.sample!r}") from None
        if count < 1:
            raise CliError("--sample must be >= 1")
        if count >= g.n:
            starts = list(range(g.n))
        else:
            import random

            starts = sorted(random.Random(args.seed).sample(range(g.n), count))
    print("start,degree,Q,k")
    qs = []
    for v in starts:
        result = detect(g, dataclasses.replace(cfg, start=v))
        q = modularity(g, result.cover)
        qs.append(q)
        print(f"{g.label_of(v)},{g.degree(v)},{q:.6f},{result.cover.k}")
    mean = sum(qs) / len(qs)
    stddev = math.sqrt(sum((q - mean) ** 2 for q in qs) / len(qs))
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

    p = sub.add_parser("bench", help="runtime benchmark over edge-sampled subgraphs")
    p.add_argument("--input", required=True)
    p.add_argument("--fractions", default="0.25,0.5,0.75,1.0")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
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
