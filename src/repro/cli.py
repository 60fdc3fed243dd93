"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table N``      regenerate paper Table N (1-8)
``figure N``     regenerate paper Figure N (1-6)
``npb K``        run an NPB benchmark functionally (``--npb-class S..C``)
``suite``        run the whole functional suite at one class
``stream``       run STREAM on the host and print modelled Figure 1 points
``machines``     list the machine catalog
``predict``      one model prediction with its cost breakdown
``cg-study``     the Section 6 CG vectorisation analysis
``ablate``       upgrade attribution (SG2042 -> SG2044, step by step)
``cluster``      multi-socket strong-scaling projection
``roofline``     roofline placement of the kernels on one machine
``export``       write every table and figure to a directory as CSV
``score``        model-vs-paper error scorecard across all tables
``lint``         repo-aware static analysis (determinism, locking, units,
                 telemetry discipline, exception hygiene, store I/O,
                 whole-program concurrency: lock order,
                 blocking-under-lock)
``stats``        regenerate one table/figure with telemetry enabled and
                 print the span tree, counters and timings
``serve``        long-running prediction service: HTTP API + job manager
                 over the shared sweep engine (submit, poll, artifacts,
                 cancel, /health, /stats)
``campaign``     fan a YAML scenario file out into sweep jobs and collect
                 artifacts (``run``), or cost-estimate it (``plan``);
                 interrupted runs resume from the result store (``--store``
                 or ``<out>/store``), and independent jobs (no ``needs``
                 edge) run concurrently, up to ``--jobs`` at a time
``bench``        run a named benchmark-suite subset and rewrite its rows
                 in the committed baseline ``benchmarks/bench_artifact.json``;
                 ``--check`` gates a fresh run against that baseline
                 and writes nothing (escalate-until re-measurement
                 before any regression verdict; exit 1 when one
                 survives)

Sweep-backed commands accept ``--store DIR`` (or ``REPRO_STORE``): a
persistent content-addressed result store that makes every restart
warm -- results and rendered artifacts land there once and are reused
bit-identically by any later process, so an interrupted run resumes by
rerunning with the same ``--store``.

Every process pays its own start-up, so each command imports only what
it runs: :func:`build_parser` needs nothing beyond :mod:`argparse`, and
each ``_cmd_*`` handler imports its packages in its body.
``tests/cli/test_import_budget.py`` pins the module sets.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Is RISC-V ready for HPC? An evaluation of "
            "the Sophon SG2044' (SC 2025)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    telemetry_help = "write a schema-v1 telemetry JSON report to PATH"
    store_help = (
        "persistent content-addressed result store at DIR: finished "
        "results and artifacts are published there and every later run "
        "(any process) starts warm (default: REPRO_STORE)"
    )
    store_max_help = (
        "LRU size cap for --store in MiB: least-recently-used entries "
        "are evicted once the store exceeds it (default: REPRO_STORE_MAX_MB "
        "or unbounded)"
    )

    def _sweep_flags(p) -> None:
        p.add_argument("--store", metavar="DIR", default=None, help=store_help)
        p.add_argument(
            "--store-max-mb", type=int, default=None, help=store_max_help
        )

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=range(1, 9))
    p.add_argument("--csv", action="store_true", help="emit CSV instead of ASCII")
    _sweep_flags(p)
    p.add_argument("--telemetry", metavar="PATH", default=None, help=telemetry_help)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int, choices=range(1, 7))
    p.add_argument("--csv", action="store_true")
    _sweep_flags(p)
    p.add_argument("--telemetry", metavar="PATH", default=None, help=telemetry_help)

    p = sub.add_parser("npb", help="run one NPB benchmark functionally")
    p.add_argument("kernel", choices=["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"])
    p.add_argument("--npb-class", default="S", choices=list("SWABC"))

    p = sub.add_parser("suite", help="run the full functional NPB suite")
    p.add_argument("--npb-class", default="S", choices=list("SWABC"))

    p = sub.add_parser("stream", help="host STREAM + modelled Figure 1 points")
    p.add_argument("--elements", type=int, default=2_000_000)

    sub.add_parser("machines", help="list the machine catalog")

    p = sub.add_parser("predict", help="one model prediction with breakdown")
    p.add_argument("machine")
    p.add_argument("kernel")
    p.add_argument("--npb-class", default="C", choices=list("SWABC"))
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--compiler", default=None)
    p.add_argument("--no-vectorise", action="store_true")

    p = sub.add_parser("cg-study", help="Section 6 CG vectorisation analysis")
    p.add_argument("--machine", default="sg2044")

    p = sub.add_parser("ablate", help="which SG2042->SG2044 upgrade bought what")
    p.add_argument("kernel", choices=["is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"])
    p.add_argument("--threads", type=int, default=64)

    p = sub.add_parser("cluster", help="multi-socket strong-scaling projection")
    p.add_argument("machine")
    p.add_argument("kernel")
    p.add_argument("--sockets", type=int, nargs="+", default=[1, 2, 4, 8])

    p = sub.add_parser("roofline", help="roofline placement of the NPB kernels")
    p.add_argument("machine")

    p = sub.add_parser("export", help="write every table/figure as CSV")
    p.add_argument("directory")
    _sweep_flags(p)
    p.add_argument("--telemetry", metavar="PATH", default=None, help=telemetry_help)

    sub.add_parser("score", help="model-vs-paper error scorecard")

    p = sub.add_parser(
        "stats",
        help="regenerate an artifact with telemetry enabled and print the report",
    )
    p.add_argument(
        "artifact",
        help="tableN (1-8) or figureN (1-6), e.g. table6, figure5, fig5",
    )
    p.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    p.add_argument("--store", metavar="DIR", default=None, help=store_help)
    p.add_argument("--store-max-mb", type=int, default=None, help=store_max_help)

    p = sub.add_parser(
        "serve", help="run the prediction service (HTTP API + job manager)"
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8044, help="port (0 = ephemeral)")
    p.add_argument(
        "--workers", type=int, default=2, help="job-manager worker threads"
    )
    p.add_argument(
        "--queue-size", type=int, default=64, help="bounded job-queue admission limit"
    )
    p.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="also write finished artifacts to DIR (atomic)",
    )
    _sweep_flags(p)

    p = sub.add_parser(
        "campaign", help="run or plan a YAML scenario of sweep jobs"
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)
    pr = campaign_sub.add_parser("run", help="execute a scenario file")
    pr.add_argument("scenario", help="scenario YAML path")
    pr.add_argument(
        "--out", metavar="DIR", default="campaign-out", help="artifact directory"
    )
    pr.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="bound on concurrently running scenario jobs (default 1)",
    )
    _sweep_flags(pr)
    pp = campaign_sub.add_parser("plan", help="cost-estimate a scenario file")
    pp.add_argument("scenario", help="scenario YAML path")

    p = sub.add_parser(
        "bench",
        help="run benchmark suites, record the perf baseline, gate regressions",
    )
    p.add_argument(
        "suites",
        nargs="*",
        default=None,
        help="suite names (bench_<name>.py stems); default: every suite",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="gate the run against the baseline (exit 1 on regression)",
    )
    p.add_argument(
        "--list", dest="list_suites", action="store_true",
        help="list known suites and exit",
    )
    p.add_argument(
        "--bench-dir",
        metavar="DIR",
        default="benchmarks",
        help="benchmark directory (default: benchmarks)",
    )
    p.add_argument(
        "--artifact",
        metavar="PATH",
        default=None,
        help="baseline path (default: <bench-dir>/bench_artifact.json)",
    )
    p.add_argument(
        "--no-fidelity",
        action="store_true",
        help="skip folding the paper-fidelity scorecard into the artifact",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print every gated delta, not just regressions/improvements",
    )

    p = sub.add_parser("lint", help=_lint_help())
    p.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks"],
        help="files or directories to check (default: src benchmarks)",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all), e.g. R001,R003",
    )
    p.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    p.add_argument(
        "--stats",
        dest="lint_stats",
        action="store_true",
        help="print files checked and per-rule timings to stderr",
    )

    return parser


@contextlib.contextmanager
def _telemetry(path: str | None):
    """``--telemetry PATH`` around one artifact-building command.

    The recorder is torn down and the report written even when the
    builder raises, so a failing command never leaves the process-wide
    recorder installed.
    """
    if path is None:
        yield
        return
    from repro import obs
    from repro.obs.export import write_report

    recorder = obs.install()
    try:
        yield
    finally:
        obs.disable()
        write_report(path, recorder)
        print(f"telemetry written to {path}", file=sys.stderr)


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.harness import build_table

    with _telemetry(args.telemetry):
        result = build_table(args.number)
    sys.stdout.write(result.to_csv() if args.csv else result.render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness import build_figure

    with _telemetry(args.telemetry):
        result = build_figure(args.number)
    sys.stdout.write(result.to_csv() if args.csv else result.render())
    return 0


def _cmd_npb(args: argparse.Namespace) -> int:
    from repro.npb.suite import run_benchmark

    result = run_benchmark(args.kernel, args.npb_class)
    print(result.summary())
    for key, value in result.details.items():
        print(f"  {key}: {value:.6g}")
    return 0 if result.verified else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.npb.suite import run_suite

    results = run_suite(args.npb_class)
    ok = True
    for r in results:
        print(r.summary())
        ok &= r.verified
    return 0 if ok else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.machines import get_machine
    from repro.stream import modelled_bandwidth, run_stream_host

    print("host STREAM:")
    for r in run_stream_host(n_elements=args.elements):
        status = "ok" if r.verified else "BAD RESULT"
        print(f"  {r.kernel:6} {r.bandwidth_gbs:8.2f} GB/s  [{status}]")
    print("modelled Figure 1 (copy):")
    for name in ("sg2042", "sg2044"):
        m = get_machine(name)
        pts = ", ".join(
            f"{n}:{modelled_bandwidth(m, n):.0f}"
            for n in (1, 2, 4, 8, 16, 32, 64)
        )
        print(f"  {m.label}: {pts} GB/s")
    return 0


def _cmd_machines(_args: argparse.Namespace) -> int:
    from repro.machines import all_machines

    for m in all_machines():
        d = m.describe()
        print(
            f"{m.name:<14} {d['CPU']:<18} {d['ISA']:<8} {d['Base clock']:>9} "
            f"{d['Cores']:>3} cores  {d['Vector']:<11} {d['Memory']}"
        )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.compilers import default_compiler_for, get_compiler
    from repro.core import PerformanceModel
    from repro.machines import get_machine
    from repro.npb import signature_for

    machine = get_machine(args.machine)
    compiler = get_compiler(args.compiler or default_compiler_for(args.machine))
    sig = signature_for(args.kernel, args.npb_class)
    pred = PerformanceModel().predict(
        machine, sig, compiler, args.threads, not args.no_vectorise
    )
    print(
        f"{sig.display} class {sig.npb_class} on {machine.label} "
        f"x{args.threads} ({compiler.display}, "
        f"{'vec' if pred.vectorised else 'no-vec'})"
    )
    print(f"  predicted: {pred.mops:,.1f} Mop/s ({pred.time_s:.2f} s)")
    print(
        f"  breakdown: compute {pred.t_compute:.2f} s, "
        f"stream {pred.t_stream:.2f} s, latency {pred.t_latency:.2f} s, "
        f"sync {pred.t_sync:.3f} s (dominant: {pred.dominant_term})"
    )
    for note in pred.notes:
        print(f"  note: {note}")
    return 0


def _cmd_cg_study(args: argparse.Namespace) -> int:
    from repro.perf import cg_vectorisation_study

    row = cg_vectorisation_study(args.machine)
    print(f"CG vectorisation study on {row.machine} (paper Section 6):")
    print(f"  vectorised slowdown: {row.slowdown:.2f}x (paper ~2.7x)")
    print(f"  branch-miss ratio:   {row.branch_miss_ratio:.2f}x (paper ~2x)")
    print(
        f"  IPC scalar/vector:   {row.ipc_scalar:.2f} / "
        f"{row.ipc_vectorised:.2f} (paper 0.54 / 0.51)"
    )
    for v in row.unroll_variants:
        beats = "beats scalar" if v.beats_scalar else "still slower than scalar"
        print(
            f"  unroll x{v.unroll}: {v.mops:8.1f} Mop/s "
            f"({v.relative_to_default_vec:.2f}x default vec; {beats})"
        )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.explore.whatif import UPGRADES, ablate_upgrade, upgrade_ladder

    print(f"{args.kernel.upper()} at {args.threads} threads:")
    print("cumulative ladder from the SG2042:")
    for step, mops, gain in upgrade_ladder(args.kernel, args.threads):
        print(f"  {step:<18} {mops:>12,.1f} Mop/s   x{gain:.2f}")
    print("marginal value of each upgrade (added last):")
    for upgrade in UPGRADES:
        gain = ablate_upgrade(args.kernel, upgrade.key, args.threads)
        print(f"  {upgrade.key:<8} ({upgrade.description}): x{gain:.2f}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.mpi.cluster import cluster_sweep

    sweep = cluster_sweep(args.machine, args.kernel, tuple(args.sockets))
    print(f"{args.kernel.upper()} on {args.machine}, InfiniBand HDR fabric:")
    for p in sweep:
        print(
            f"  {p.n_sockets} socket(s): {p.mops:>12,.1f} Mop/s "
            f"(eff {p.scaling_efficiency:.2f}, comm {100 * p.comm_fraction:.0f}%)"
        )
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.explore.roofline import ridge_intensity, roofline_point
    from repro.machines import get_machine
    from repro.npb import signature_for

    machine = get_machine(args.machine)
    print(
        f"{machine.label}: ridge at "
        f"{ridge_intensity(machine):.2f} flop/byte (full chip)"
    )
    for kernel in ("is", "mg", "ep", "cg", "ft", "bt", "lu", "sp"):
        pt = roofline_point(machine, signature_for(kernel, "C"))
        intensity = (
            "inf" if pt.arithmetic_intensity == float("inf")
            else f"{pt.arithmetic_intensity:.2f}"
        )
        print(
            f"  {kernel.upper():3} intensity {intensity:>5} flop/B -> "
            f"{pt.attainable_gflops:8.1f} Gflop/s attainable ({pt.bound}-bound)"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.harness.export import export_all

    with _telemetry(args.telemetry):
        written = export_all(args.directory)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.sweep import default_engine
    from repro.service import JobManager, create_server

    # The service is long-running and its /stats endpoint reads the live
    # recorder, so telemetry is on for the whole process lifetime.
    obs.install()
    try:
        manager = JobManager(
            engine=default_engine(),
            workers=args.workers,
            queue_size=args.queue_size,
            artifact_dir=args.artifact_dir,
        )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    server = create_server(args.host, args.port, manager)
    print(
        f"repro service listening on http://{args.host}:{server.server_port} "
        f"(workers={args.workers}, queue={args.queue_size})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        manager.shutdown()
        obs.disable()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core.sweep import default_engine
    from repro.service import ScenarioError, load_scenario, plan_campaign, run_campaign

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.campaign_command == "plan":
        rows = plan_campaign(scenario, default_engine())
        print(f"scenario {scenario.name}: {len(rows)} job(s)")
        total = 0
        for row in rows:
            total += row["configs"]
            print(
                f"  {row['name']:<20} {row['kind']:<7} {row['job_id']:<22} "
                f"{row['configs']:>6} configs / {row['families']:>4} families"
                f" ({row['cached']} cached)"
            )
        print(f"  total: {total} configs")
        return 0
    if args.jobs < 1:
        print(f"repro: error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    manifest = run_campaign(scenario, args.out, engine=default_engine(), jobs=args.jobs)
    for job in manifest["jobs"]:
        print(f"wrote {args.out}/{job['artifact']} ({job['configs']} configs)")
    print(f"wrote {args.out}/MANIFEST.json")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import re

    from repro import obs
    from repro.obs.export import render_json, render_text

    match = re.fullmatch(r"(table|figure|fig|t|f)\s*-?\s*(\d+)", args.artifact.lower())
    if match is None:
        print(
            f"repro: error: unrecognised artifact {args.artifact!r} "
            "(expected e.g. table6 or figure5)",
            file=sys.stderr,
        )
        return 2
    kind = "figure" if match.group(1) in {"figure", "fig", "f"} else "table"
    number = int(match.group(2))

    recorder = obs.install()
    try:
        if kind == "table":
            from repro.harness import build_table

            build_table(number)
        else:
            from repro.harness import build_figure

            build_figure(number)
    except KeyError:
        print(f"repro: error: no such artifact: {kind}{number}", file=sys.stderr)
        return 2
    finally:
        obs.disable()
    if args.fmt == "json":
        sys.stdout.write(render_json(recorder))
    else:
        sys.stdout.write(render_text(recorder))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench import BenchError, check_run, discover_suites, record_run
    from repro.bench.compare import render_deltas

    bench_dir = Path(args.bench_dir)
    if args.list_suites:
        suites = discover_suites(bench_dir)
        if not suites:
            print(f"repro: error: no bench suites under {bench_dir}", file=sys.stderr)
            return 2
        for name, path in sorted(suites.items()):
            print(f"{name:<28} {path}")
        return 0
    suites = list(args.suites) if args.suites else None
    try:
        if args.check:
            deltas, escalations, code = check_run(
                bench_dir,
                artifact_path=args.artifact,
                suites=suites,
                fidelity=not args.no_fidelity,
            )
            sys.stdout.write(render_deltas(deltas, verbose=args.verbose))
            if escalations:
                print(f"escalation rounds used: {escalations}")
            if code != 0:
                print(
                    "verdict: REGRESSION (re-record the baseline with "
                    "`repro bench` after an intentional perf change)",
                )
            else:
                print("verdict: pass")
            return code
        entries, run_meta = record_run(
            bench_dir,
            artifact_path=args.artifact,
            suites=suites,
            fidelity=not args.no_fidelity,
        )
        print(
            f"recorded {len(entries)} entries from "
            f"{len(run_meta.get('suites', []))} suite(s) "
            f"(git {str(run_meta.get('git_sha'))[:7]})"
        )
        return 0
    except BenchError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _cmd_score(_args: argparse.Namespace) -> int:
    from repro.harness.scorecard import scorecard

    print("model-vs-paper absolute relative error:")
    for score in scorecard():
        print(f"  {score.summary()}")
    return 0


def _lint_help() -> str:
    """The ``lint`` subcommand's one-line help.

    A literal, not derived from :mod:`repro.analysis.registry`: every
    command builds the parser, and importing the rule registry here cost
    each of them ~50 ms.  ``TestLintHelp`` fails the moment the span and
    the registered codes disagree.
    """
    return "repo-aware static analysis (R001-R012)"


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import run_analysis
    from repro.analysis.registry import all_rules, rules_for
    from repro.analysis.reporting import render_json, render_stats, render_text

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:<14} {rule.description}")
        return 0
    if args.rules is None:
        rules = all_rules()
    else:
        codes = [c.strip() for c in args.rules.split(",") if c.strip()]
        try:
            rules = rules_for(codes)
        except KeyError as exc:
            print(f"repro: error: {exc.args[0]}", file=sys.stderr)
            return 2
    report = run_analysis(args.paths, rules, root=".")
    render = render_json if args.fmt == "json" else render_text
    sys.stdout.write(render(report))
    if args.lint_stats:
        sys.stderr.write(render_stats(report))
    return report.exit_code


_COMMANDS = {
    "table": _cmd_table,
    "figure": _cmd_figure,
    "npb": _cmd_npb,
    "suite": _cmd_suite,
    "stream": _cmd_stream,
    "machines": _cmd_machines,
    "predict": _cmd_predict,
    "cg-study": _cmd_cg_study,
    "ablate": _cmd_ablate,
    "cluster": _cmd_cluster,
    "roofline": _cmd_roofline,
    "export": _cmd_export,
    "stats": _cmd_stats,
    "score": _cmd_score,
    "bench": _cmd_bench,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "campaign": _cmd_campaign,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    store_dir = getattr(args, "store", None)
    if store_dir is not None:
        from repro.core.sweep import set_default_store
        from repro.store import ResultStore

        cap = getattr(args, "store_max_mb", None)
        try:
            set_default_store(
                ResultStore(
                    store_dir, max_bytes=None if cap is None else cap * 2**20
                )
            )
        except ValueError as exc:
            print(f"repro: error: --store: {exc}", file=sys.stderr)
            return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
