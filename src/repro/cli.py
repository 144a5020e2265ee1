"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — available apps, designs, policies and retention classes.
* ``run`` — one design on one app, with optional prefetcher/DRAM model.
* ``figure N`` / ``table N`` — regenerate one artifact of the paper.
* ``trace`` — generate a workload trace and save it as ``.npz``.
* ``search`` — the static-partition design-space search.
* ``validate`` — check the paper's headline claims end to end (exits
  non-zero if a claim band fails, for CI use).
* ``sweep`` — run a design x app x seed grid through the execution
  engine (``--jobs N`` for multiprocess fan-out, store-backed).
* ``cache`` — inspect (``stats``, ``--json`` for machines) or empty
  (``clear``, with ``--results`` / ``--streams`` / ``--all`` selectors)
  the persistent result store and L2-stream cache; ``stats`` includes
  each cache's lifetime hit-rate and corruption counters.
* ``obs`` — observability tooling: ``obs summary RUN.jsonl`` renders a
  where-did-the-time-go table from a structured run log.

``run``, ``sweep`` and ``validate`` accept ``--trace PATH`` to write a
JSONL run log of the execution (spans, events, metrics — see
``docs/observability.md``); progress lines always go to stderr so piped
stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import obs
from repro.cache.prefetch import make_prefetcher
from repro.cache.replacement import POLICY_NAMES
from repro.config import DEFAULT_PLATFORM, platform_preset
from repro.core.designs import DESIGN_NAMES, make_design
from repro.engine import default_store, default_stream_cache, run_sweep
from repro.engine.store import ResultStore
from repro.engine.streamcache import StreamCache, load_stream
from repro.core.search import find_static_partition
from repro.dram import DRAMModel
from repro.energy.technology import RETENTION_CLASSES
from repro.experiments import (
    EXPERIMENT_TRACE_LENGTH,
    fig1_kernel_share,
    fig2_interference,
    fig3_size_sweep,
    fig4_static_space,
    fig5_intervals,
    fig6_energy_breakdown,
    fig7_dynamic_timeline,
    fig8_energy_summary,
    format_percent,
    format_table,
    table1_configuration,
    table2_technology,
    table3_workloads,
    table4_performance,
)
from repro.trace.generator import generate_trace
from repro.trace.io import save_trace
from repro.trace.workloads import APP_NAMES, app_profile

__all__ = ["main", "build_parser"]

_FIGURES = {
    1: fig1_kernel_share,
    2: fig2_interference,
    3: fig3_size_sweep,
    4: fig4_static_space,
    5: fig5_intervals,
    6: fig6_energy_breakdown,
    7: lambda length: fig7_dynamic_timeline("browser", length),
    8: fig8_energy_summary,
}

_TABLES = {
    1: lambda length: table1_configuration(),
    2: lambda length: table2_technology(),
    3: lambda length: table3_workloads(),
    4: table4_performance,
}


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-efficient user/kernel-partitioned L2 cache reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show available apps, designs and policies")

    run_p = sub.add_parser("run", help="run one design on one app")
    run_p.add_argument("--app", choices=APP_NAMES, default="browser")
    run_p.add_argument("--design", choices=DESIGN_NAMES, default="static-stt")
    run_p.add_argument("--length", type=int, default=240_000)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--prefetcher", choices=("nextline", "stride"))
    run_p.add_argument("--banked-dram", action="store_true",
                       help="use the bank/row-buffer DRAM model")
    run_p.add_argument("--trace", metavar="PATH",
                       help="write a JSONL run log of the execution to PATH")

    fig_p = sub.add_parser("figure", help="regenerate one figure")
    fig_p.add_argument("number", type=int, choices=sorted(_FIGURES))
    fig_p.add_argument("--length", type=int, default=EXPERIMENT_TRACE_LENGTH)

    tab_p = sub.add_parser("table", help="regenerate one table")
    tab_p.add_argument("number", type=int, choices=sorted(_TABLES))
    tab_p.add_argument("--length", type=int, default=EXPERIMENT_TRACE_LENGTH)

    trace_p = sub.add_parser("trace", help="generate a trace and save as .npz")
    trace_p.add_argument("--app", choices=APP_NAMES, required=True)
    trace_p.add_argument("--out", required=True)
    trace_p.add_argument("--length", type=int, default=240_000)
    trace_p.add_argument("--seed", type=int, default=0)

    search_p = sub.add_parser("search", help="static-partition design-space search")
    search_p.add_argument("--length", type=int, default=240_000)
    search_p.add_argument("--tolerance", type=float, default=0.10)
    search_p.add_argument("--apps", nargs="+", choices=APP_NAMES,
                          default=["browser", "social", "game"])

    val_p = sub.add_parser("validate", help="check the paper's headline claims")
    val_p.add_argument("--length", type=int, default=EXPERIMENT_TRACE_LENGTH)
    val_p.add_argument("--trace", metavar="PATH",
                       help="write a JSONL run log of the execution to PATH")

    exp_p = sub.add_parser("export", help="dump the (design x app) grid as CSV")
    exp_p.add_argument("--out", required=True)
    exp_p.add_argument("--length", type=int, default=EXPERIMENT_TRACE_LENGTH)

    sweep_p = sub.add_parser("sweep", help="run a design x app x seed grid via the engine")
    sweep_p.add_argument("--designs", nargs="+", choices=DESIGN_NAMES,
                         default=list(DESIGN_NAMES))
    sweep_p.add_argument("--apps", nargs="+", choices=APP_NAMES, default=list(APP_NAMES))
    sweep_p.add_argument("--seeds", nargs="+", type=int, default=[0])
    sweep_p.add_argument("--length", type=int, default=EXPERIMENT_TRACE_LENGTH)
    sweep_p.add_argument("--platform", choices=("default", "little", "big"),
                         default="default")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes (results are identical for any value)")
    sweep_p.add_argument("--no-progress", action="store_true",
                         help="suppress per-job progress lines (written to stderr)")
    sweep_p.add_argument("--trace", metavar="PATH",
                         help="write a JSONL run log of the sweep to PATH")

    cache_p = sub.add_parser("cache", help="manage the persistent result and stream caches")
    cache_p.add_argument("action", choices=("stats", "clear"))
    cache_p.add_argument("--json", action="store_true",
                         help="stats: print machine-readable JSON instead of tables")
    cache_scope = cache_p.add_mutually_exclusive_group()
    cache_scope.add_argument("--results", action="store_true",
                             help="clear: only the result store")
    cache_scope.add_argument("--streams", action="store_true",
                             help="clear: only the stream cache")
    cache_scope.add_argument("--all", action="store_true",
                             help="clear: results and streams (the default)")

    obs_p = sub.add_parser("obs", help="observability tooling for run logs")
    obs_p.add_argument("action", choices=("summary",))
    obs_p.add_argument("log", metavar="RUN_LOG",
                       help="JSONL run log written by --trace or REPRO_TRACE")

    return parser


def _cmd_list(out) -> int:
    print(format_table("apps", ["name", "description"],
                       [[a, app_profile(a).description] for a in APP_NAMES],
                       align_left_cols=2), file=out)
    print(file=out)
    print(format_table("designs", ["name"], [[d] for d in DESIGN_NAMES]), file=out)
    print(file=out)
    print(format_table("replacement policies", ["name"], [[p] for p in POLICY_NAMES]), file=out)
    print(file=out)
    print(format_table("retention classes", ["name", "window"],
                       [[n, "infinite" if c.retention_s is None else f"{c.retention_s * 1e3:.0f} ms"]
                        for n, c in RETENTION_CLASSES.items()], align_left_cols=2), file=out)
    return 0


def _cmd_run(args, out) -> int:
    stream = load_stream(args.app, args.length, args.seed)
    design = make_design(args.design)
    kwargs = {}
    if args.prefetcher:
        if args.design == "dynamic-stt":
            print("error: prefetcher is not supported by the dynamic design", file=sys.stderr)
            return 2
        kwargs["prefetcher"] = make_prefetcher(args.prefetcher)
    if args.banked_dram:
        if args.design == "dynamic-stt":
            print("error: banked DRAM is not supported by the dynamic design", file=sys.stderr)
            return 2
        kwargs["dram_model"] = DRAMModel()
    result = design.run(stream, DEFAULT_PLATFORM, **kwargs)
    stats = result.l2_stats
    energy = result.l2_energy
    rows = [
        ["L2 accesses", f"{stats.accesses:,}"],
        ["demand miss rate", format_percent(stats.demand_miss_rate, 2)],
        ["cross-priv evictions", f"{stats.cross_privilege_evictions:,}"],
        ["expiry misses", f"{stats.expiry_invalidations:,}"],
        ["L2 energy", f"{energy.total_j * 1e6:.1f} uJ"],
        ["  leakage", f"{energy.leakage_j * 1e6:.1f} uJ"],
        ["  dynamic", f"{energy.dynamic_j * 1e6:.1f} uJ"],
        ["busy cycles", f"{result.timing.busy_cycles:,.0f}"],
        ["IPC", f"{result.timing.ipc:.3f}"],
    ]
    print(format_table(f"{args.design} on {args.app} ({args.length:,} accesses)",
                       ["metric", "value"], rows, align_left_cols=2), file=out)
    return 0


def _cmd_validate(length, out) -> int:
    checks = []
    share = fig1_kernel_share(length).mean
    checks.append(("kernel share > 40%", share > 0.40, f"{share:.1%}"))
    summary = fig8_energy_summary(length)
    s_saving = summary.saving("static-stt")
    d_saving = summary.saving("dynamic-stt")
    checks.append(("static saving in [65%, 85%]", 0.65 < s_saving < 0.85, f"{s_saving:.1%}"))
    checks.append(("dynamic saving in [75%, 92%]", 0.75 < d_saving < 0.92, f"{d_saving:.1%}"))
    checks.append(("dynamic beats static", d_saving > s_saving, ""))
    perf = table4_performance(length)
    s_loss = perf.mean("static-stt")
    d_loss = perf.mean("dynamic-stt")
    checks.append(("static perf loss < 6%", s_loss < 0.06, f"{s_loss:.2%}"))
    checks.append(("dynamic perf loss < 12%", d_loss < 0.12, f"{d_loss:.2%}"))
    rows = [[name, "PASS" if ok else "FAIL", measured] for name, ok, measured in checks]
    print(format_table("headline claim validation", ["claim", "status", "measured"],
                       rows, align_left_cols=1), file=out)
    return 0 if all(ok for _, ok, _ in checks) else 1


def _cmd_sweep(args, out) -> int:
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    progress = None
    if not args.no_progress:
        # Progress is ephemeral status, not output: stderr keeps piped
        # stdout (tables, CSV, JSON) free of interleaved status lines.
        def progress(event):
            print(event.render(), file=sys.stderr)
    sweep = run_sweep(
        designs=args.designs,
        apps=args.apps,
        seeds=args.seeds,
        length=args.length,
        platform=platform_preset(args.platform),
        jobs=args.jobs,
        store=default_store(),
        progress=progress,
    )
    print(sweep.render(), file=out)
    return 0


def _stats_rows(stats) -> list[list[str]]:
    return [
        ["root", str(stats.root)],
        ["entries", f"{stats.entries:,}"],
        ["size", f"{stats.total_bytes / 1024:.1f} KiB"],
        ["lookups", f"{stats.lookups:,}"],
        ["hits", f"{stats.hits:,}"],
        ["misses", f"{stats.misses:,}"],
        ["hit rate", format_percent(stats.hit_rate, 1)],
        ["writes", f"{stats.writes:,}"],
        ["corrupt evictions", f"{stats.corrupt_evictions:,}"],
    ]


def _cmd_cache(args, out) -> int:
    store = default_store()
    if store is None:
        store = ResultStore()
    streams = default_stream_cache()
    if streams is None:
        streams = StreamCache()
    if args.action == "stats":
        result_stats, stream_stats = store.stats(), streams.stats()
        if args.json:
            import json as _json

            def payload(stats):
                return {
                    "root": str(stats.root),
                    "entries": stats.entries,
                    "total_bytes": stats.total_bytes,
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "hit_rate": stats.hit_rate,
                    "writes": stats.writes,
                    "corrupt_evictions": stats.corrupt_evictions,
                }
            print(_json.dumps({"results": payload(result_stats),
                               "streams": payload(stream_stats)},
                              indent=2, sort_keys=True), file=out)
            return 0
        print(format_table("result store", ["field", "value"], _stats_rows(result_stats),
                           align_left_cols=2), file=out)
        print(file=out)
        print(format_table("stream cache", ["field", "value"], _stats_rows(stream_stats),
                           align_left_cols=2), file=out)
        return 0
    clear_results = args.results or args.all or not (args.results or args.streams)
    clear_streams = args.streams or args.all or not (args.results or args.streams)
    if clear_results:
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}", file=out)
    if clear_streams:
        removed = streams.clear()
        print(f"removed {removed} stream bundle(s) from {streams.root}", file=out)
    return 0


def _cmd_obs(args, out) -> int:
    from repro.obs import summary as obs_summary

    try:
        run = obs_summary.load_run(args.log)
    except FileNotFoundError:
        print(f"error: no run log at {args.log}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(obs_summary.summarize(run).render(), file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    When the selected command carries ``--trace PATH``, a JSONL
    recorder is installed for the duration of the command (and exported
    through ``REPRO_TRACE`` so ``--jobs`` pool workers append their
    spans to the same log); a final metrics snapshot is written before
    the recorder closes.
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)

    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return _dispatch(args, out)
    saved_env = os.environ.get(obs.TRACE_ENV)
    os.environ[obs.TRACE_ENV] = trace_path
    recorder = obs.configure(trace_path)
    try:
        return _dispatch(args, out)
    finally:
        recorder.metrics()
        obs.configure(None)
        if saved_env is None:
            os.environ.pop(obs.TRACE_ENV, None)
        else:
            os.environ[obs.TRACE_ENV] = saved_env


def _dispatch(args, out) -> int:
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "figure":
        print(_FIGURES[args.number](args.length).render(), file=out)
        return 0
    if args.command == "table":
        print(_TABLES[args.number](args.length).render(), file=out)
        return 0
    if args.command == "trace":
        trace = generate_trace(app_profile(args.app), args.length, args.seed)
        save_trace(trace, args.out)
        print(f"wrote {trace.describe()} -> {args.out}", file=out)
        return 0
    if args.command == "search":
        streams = [load_stream(app, args.length) for app in args.apps]
        point = find_static_partition(streams, DEFAULT_PLATFORM, args.tolerance)
        print(
            f"chosen partition: {point.user_ways} user + {point.kernel_ways} kernel ways "
            f"({point.total_bytes // 1024} KB) at miss rate "
            f"{format_percent(point.demand_miss_rate, 2)}",
            file=out,
        )
        return 0
    if args.command == "validate":
        return _cmd_validate(args.length, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "cache":
        return _cmd_cache(args, out)
    if args.command == "obs":
        return _cmd_obs(args, out)
    if args.command == "export":
        from repro.experiments.export import export_grid_csv

        rows = export_grid_csv(args.out, args.length)
        print(f"wrote {rows} rows -> {args.out}", file=out)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")
