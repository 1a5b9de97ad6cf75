"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro sim                 # Figures 7-10
    python -m repro hardware            # Figures 12-13
    python -m repro phase               # Equations 4-5 sweep
    python -m repro economics           # test-time / cost comparison
    python -m repro program out.rtp     # build and save a test program
    python -m repro verify              # relation campaign + golden drift
    python -m repro serve               # streaming service on live traffic
    python -m repro soak                # sustained-load soak + metrics JSON
    python -m repro lint src            # signature-lint (repro.analysis)

Every subcommand accepts ``--seed`` for reproducibility; see
``python -m repro <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Signature test framework for rapid production testing of RF "
            "circuits (DATE 2002 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run the simulation experiment (Figs. 7-10)")
    p_sim.add_argument("--seed", type=int, default=2002)
    p_sim.add_argument("--train", type=int, default=100, help="training devices")
    p_sim.add_argument("--val", type=int, default=25, help="validation devices")
    p_sim.add_argument(
        "--stimulus",
        choices=("ga", "ramp", "flat", "random"),
        default="ga",
        help="'ga' optimizes with the genetic algorithm; others are baselines",
    )
    p_sim.add_argument(
        "--executor",
        default=None,
        metavar="BACKEND",
        help="batch backend: serial (default), thread, process, or e.g. "
        "process:4 -- results are bit-identical across backends",
    )

    p_hw = sub.add_parser(
        "hardware", help="run the simulated RF2401 bench experiment (Figs. 12-13)"
    )
    p_hw.add_argument("--seed", type=int, default=1955)
    p_hw.add_argument("--cal", type=int, default=28, help="calibration devices")
    p_hw.add_argument("--val", type=int, default=27, help="validation devices")
    p_hw.add_argument(
        "--fast",
        action="store_true",
        help="reduced GA budget (quick look instead of the full run)",
    )

    p_phase = sub.add_parser(
        "phase", help="run the Equation 4/5 phase-robustness sweep"
    )
    p_phase.add_argument("--seed", type=int, default=7)
    p_phase.add_argument("--points", type=int, default=17)

    p_econ = sub.add_parser(
        "economics", help="compare conventional vs signature test economics"
    )
    p_econ.add_argument(
        "--sites", type=int, default=1, help="parallel sites on the cheap tester"
    )

    p_prog = sub.add_parser(
        "program",
        help="build a production test program (stimulus + calibration) and save it",
    )
    p_prog.add_argument("output", help="artifact path (e.g. lna900.rtp)")
    p_prog.add_argument("--seed", type=int, default=2002)

    p_report = sub.add_parser(
        "report",
        help="write a markdown reproduction report (all experiments) to a file",
    )
    p_report.add_argument("output", help="markdown path (e.g. report.md)")
    p_report.add_argument("--seed", type=int, default=2002)
    p_report.add_argument(
        "--fast",
        action="store_true",
        help="skip the (slow) hardware experiment",
    )

    p_verify = sub.add_parser(
        "verify",
        help="run the metamorphic relation campaign and golden drift check",
    )
    p_verify.add_argument(
        "--seed", type=int, default=None, help="campaign master seed"
    )
    p_verify.add_argument(
        "--configs",
        type=int,
        default=50,
        help="sampled configurations per relation (default 50)",
    )
    p_verify.add_argument(
        "--relations",
        default=None,
        metavar="NAMES",
        help="comma-separated relation subset (default: all registered)",
    )
    p_verify.add_argument(
        "--report",
        default="benchmarks/results/verify_campaign.json",
        metavar="PATH",
        help="campaign JSON report path",
    )
    p_verify.add_argument(
        "--golden-dir",
        default=None,
        metavar="DIR",
        help="golden corpus directory (default tests/golden)",
    )
    p_verify.add_argument(
        "--skip-golden",
        action="store_true",
        help="run only the relation campaign, skip corpus drift detection",
    )
    p_verify.add_argument(
        "--update-golden",
        action="store_true",
        help="regenerate the golden corpus (refused if relations fail)",
    )
    p_verify.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip counterexample shrinking on failures",
    )
    p_verify.add_argument(
        "--list",
        action="store_true",
        dest="list_relations",
        help="list registered relations and golden corpora, then exit",
    )

    def add_stream_options(p, default_seconds: float) -> None:
        """Options shared by the streaming `serve` and `soak` commands."""
        p.add_argument("--seed", type=int, default=2002, help="campaign master seed")
        p.add_argument(
            "--seconds",
            type=float,
            default=default_seconds,
            help=f"wall-clock streaming budget (default {default_seconds:g})",
        )
        p.add_argument(
            "--lots", type=int, default=None, help="stop after this many lots"
        )
        p.add_argument("--lot-size", type=int, default=16, help="devices per lot")
        p.add_argument(
            "--cells", type=int, default=4, help="simulated test cells feeding lots"
        )
        p.add_argument(
            "--executor",
            default=None,
            metavar="BACKEND",
            help="capture backend: serial (default), thread, process, or "
            "e.g. process:4 -- records are bit-identical across backends",
        )
        p.add_argument(
            "--max-pending",
            type=int,
            default=8,
            help="ingest queue capacity in lots (the backpressure bound)",
        )
        p.add_argument(
            "--chunksize", type=int, default=None, help="devices per capture task"
        )
        p.add_argument(
            "--train", type=int, default=32, help="calibration training devices"
        )
        p.add_argument(
            "--sites",
            type=int,
            default=1,
            help="load-board sites per insertion (>1 streams through a "
            "MultiSiteBoard with crosstalk and instrument contention)",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the streaming production-test service on wafer-map traffic",
    )
    add_stream_options(p_serve, default_seconds=10.0)
    p_serve.add_argument(
        "--interval",
        type=int,
        default=25,
        help="print a live metrics line every N submitted lots",
    )

    p_soak = sub.add_parser(
        "soak",
        help="soak-test the streaming service and write the metrics JSON",
    )
    add_stream_options(p_soak, default_seconds=60.0)
    p_soak.add_argument(
        "--output",
        default="benchmarks/results/streaming_soak.json",
        metavar="PATH",
        help="metrics JSON path (CI uploads it as the soak artifact)",
    )
    p_soak.add_argument(
        "--sanitize-locks",
        action="store_true",
        help="run under the runtime lock-order sanitizer: fail fast on "
        "acquisition-order cycles and report per-lock worst hold times",
    )

    # `repro lint` hands the rest of its argv to repro.analysis.cli.main
    # (see main); this entry only lists it in `repro --help`
    sub.add_parser(
        "lint",
        help="run signature-lint (domain-aware static analysis) over the tree",
        add_help=False,
    )

    return parser


def _cmd_sim(args: argparse.Namespace) -> int:
    from repro.experiments.lna_simulation import run_simulation_experiment

    stimulus = None if args.stimulus == "ga" else args.stimulus
    result = run_simulation_experiment(
        seed=args.seed,
        n_train=args.train,
        n_val=args.val,
        stimulus=stimulus,
        executor=args.executor,
    )
    print(result.summary())
    return 0


def _cmd_hardware(args: argparse.Namespace) -> int:
    from repro.experiments.hardware import run_hardware_experiment
    from repro.testgen.genetic import GAConfig

    ga = GAConfig(population_size=6, generations=1) if args.fast else None
    result = run_hardware_experiment(
        seed=args.seed,
        n_calibration=args.cal,
        n_validation=args.val,
        ga_config=ga,
    )
    print(result.summary())
    return 0


def _cmd_phase(args: argparse.Namespace) -> int:
    from repro.experiments.phase_study import run_phase_study

    result = run_phase_study(seed=args.seed, n_phases=args.points)
    print(result.summary())
    return 0


def _cmd_economics(args: argparse.Namespace) -> int:
    from repro.instruments.ate import ConventionalRFATE
    from repro.loadboard.signature_path import hardware_config
    from repro.runtime.economics import FlowEconomics, TesterCostModel, compare_flows

    conventional = ConventionalRFATE().insertion_time()
    signature = hardware_config().total_test_time()
    comparison = compare_flows(conventional, signature)
    print(comparison.summary())
    if args.sites > 1:
        multi = FlowEconomics(
            TesterCostModel.low_cost_tester(), signature, sites=args.sites
        )
        print(
            f"with {args.sites} sites: {multi.throughput_per_hour:.0f} devices/h, "
            f"{multi.cost_per_device * 100:.4f} cents/device"
        )
    return 0


def _cmd_program(args: argparse.Namespace) -> int:
    from repro.experiments.lna_simulation import run_simulation_experiment
    from repro.runtime.artifacts import TestProgram, save_test_program
    from repro.runtime.specs import lna_limits

    result = run_simulation_experiment(seed=args.seed)
    program = TestProgram(
        stimulus=result.stimulus,
        calibration=result.calibration,
        limits=lna_limits(),
        metadata={
            "dut": "LNA900",
            "seed": str(args.seed),
            "std_err": ", ".join(
                f"{k}={v:.4f}" for k, v in result.std_errors.items()
            ),
        },
    )
    path = save_test_program(program, args.output)
    print(f"test program written to {path}")
    print(program.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.lna_simulation import (
        PAPER_STD_ERR,
        run_simulation_experiment,
    )
    from repro.experiments.phase_study import run_phase_study
    from repro.instruments.ate import ConventionalRFATE
    from repro.loadboard.signature_path import hardware_config
    from repro.runtime.economics import compare_flows

    lines = [
        "# Reproduction report",
        "",
        "Voorakaranam, Cherubal, Chatterjee -- *A Signature Test Framework "
        "for Rapid Production Testing of RF Circuits*, DATE 2002.",
        "",
        "## Simulation experiment (Figures 7-10)",
        "",
    ]
    sim = run_simulation_experiment(seed=args.seed)
    lines.append("| spec | paper std(err) | measured | R^2 |")
    lines.append("|---|---|---|---|")
    for name in ("gain_db", "nf_db", "iip3_dbm"):
        lines.append(
            f"| {name} | {PAPER_STD_ERR[name]:.3f} | "
            f"{sim.std_errors[name]:.4f} | {sim.r2[name]:.4f} |"
        )
    lines += [
        "",
        "Optimized stimulus breakpoints (V): "
        + ", ".join(f"{v:.3f}" for v in sim.stimulus.levels),
        "",
    ]

    if not args.fast:
        from repro.experiments.hardware import PAPER_RMS_ERR, run_hardware_experiment

        hw = run_hardware_experiment(seed=1955)
        lines += ["## Hardware experiment (Figures 12-13)", ""]
        lines.append("| spec | paper RMS | measured | R^2 |")
        lines.append("|---|---|---|---|")
        for name in ("gain_db", "iip3_dbm"):
            lines.append(
                f"| {name} | {PAPER_RMS_ERR[name]:.2f} | "
                f"{hw.rms_errors[name]:.4f} | {hw.r2[name]:.4f} |"
            )
        lines.append("")

    phase = run_phase_study()
    wc = phase.worst_case()
    lines += [
        "## Phase robustness (Equations 4-5)",
        "",
        f"- same-LO time-domain signature drift: {wc['same_lo_time_domain']:.1%}",
        f"- offset-LO FFT-magnitude drift: {wc['offset_lo_fft_magnitude']:.3%}",
        f"- same-LO null depth at quarter wave: "
        f"{float(min(phase.same_lo_rms)):.2e} V rms",
        "",
        "## Economics (Section 4.2)",
        "",
    ]
    comparison = compare_flows(
        ConventionalRFATE().insertion_time(), hardware_config().total_test_time()
    )
    lines.append("```")
    lines.append(comparison.summary())
    lines.append("```")
    lines.append("")

    path = Path(args.output)
    path.write_text("\n".join(lines))
    print(f"report written to {path.resolve()}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import repro.verify.relations  # noqa: F401 - populate the registry
    from repro.verify.golden import (
        GoldenUpdateRefused,
        check_all_corpora,
        corpus_names,
        update_golden,
    )
    from repro.verify.harness import (
        DEFAULT_MASTER_SEED,
        DEFAULT_REGISTRY,
        run_campaign,
    )

    if args.list_relations:
        for name in DEFAULT_REGISTRY.names():
            print(f"relation {name}")
        for name in corpus_names():
            print(f"golden corpus {name}")
        return 0

    seed = DEFAULT_MASTER_SEED if args.seed is None else args.seed
    if args.update_golden:
        try:
            written = update_golden(directory=args.golden_dir, master_seed=seed)
        except GoldenUpdateRefused as exc:
            print(f"refused: {exc}")
            return 1
        for path in written:
            print(f"golden corpus written to {path}")
        return 0

    names = (
        [n.strip() for n in args.relations.split(",") if n.strip()]
        if args.relations
        else None
    )
    campaign = run_campaign(
        names=names,
        n_cases=args.configs,
        master_seed=seed,
        shrink=not args.no_shrink,
    )
    if not args.skip_golden:
        campaign.golden_drift = check_all_corpora(args.golden_dir)
    if args.report:
        campaign.write(args.report)
    print(campaign.summary())
    if args.report:
        print(f"campaign report written to {args.report}")
    return 0 if campaign.ok else 1


def _soak_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        seed=args.seed,
        seconds=args.seconds,
        max_lots=args.lots,
        lot_size=args.lot_size,
        n_cells=args.cells,
        executor=args.executor,
        max_pending_lots=args.max_pending,
        chunksize=args.chunksize,
        n_train=args.train,
        sanitize_locks=getattr(args, "sanitize_locks", False),
        sites=args.sites,
    )


def _soak_summary(payload: dict) -> str:
    lines = [
        f"streamed {payload['devices_tested']} DUTs in "
        f"{payload['lots_completed']} lots over {payload['wall_seconds']:.1f} s "
        f"({payload['executor']} backend)",
        f"throughput: {payload['duts_per_second']:.1f} DUTs/s "
        f"(windowed {payload['duts_per_second_windowed']:.1f})",
        f"latency:    p50 {payload['latency_p50_ms']:.1f} ms, "
        f"p99 {payload['latency_p99_ms']:.1f} ms, "
        f"worst {payload['latency_worst_ms']:.1f} ms",
    ]
    if payload["yield_fraction"] is not None:
        lines.append(f"yield:      {payload['yield_fraction']:.1%}")
    if payload.get("sites", 1) > 1:
        per_site = payload.get("site_devices_tested") or {}
        counts = ", ".join(
            f"site {site}: {count}" for site, count in sorted(per_site.items())
        )
        lines.append(
            f"sites:      {payload['sites']} "
            f"(contention wait {payload['contention_wait_ms']:.1f} ms; {counts})"
        )
    lines.append(
        "first lot bit-identical to offline flow: "
        f"{payload['first_lot_bit_identical_to_offline']}"
    )
    lines.append(
        "health:     " + ("ok" if payload["healthy"] else "UNHEALTHY")
    )
    for reason in payload["health_reasons"]:
        lines.append(f"    {reason}")
    sanitizer = payload.get("lock_sanitizer")
    if sanitizer is not None:
        lines.append(
            f"lock sanitizer: {sanitizer['locks_instrumented']} locks, "
            f"{len(sanitizer['order_edges'])} order edges, "
            f"{len(sanitizer['violations'])} violations"
        )
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime.soak import run_soak

    interval = max(1, args.interval)
    seen = [0]

    def live(snapshot) -> None:
        seen[0] += 1
        if seen[0] % interval == 0:
            print(snapshot.summary(), flush=True)

    payload = run_soak(on_snapshot=live, **_soak_kwargs(args))
    print(_soak_summary(payload))
    return 0 if payload["healthy"] and payload[
        "first_lot_bit_identical_to_offline"
    ] else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.runtime.soak import run_soak

    payload = run_soak(**_soak_kwargs(args))
    if args.output:
        directory = os.path.dirname(args.output)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"soak metrics written to {args.output}")
    print(_soak_summary(payload))
    return 0 if payload["healthy"] and payload[
        "first_lot_bit_identical_to_offline"
    ] else 1


_COMMANDS = {
    "sim": _cmd_sim,
    "hardware": _cmd_hardware,
    "phase": _cmd_phase,
    "economics": _cmd_economics,
    "program": _cmd_program,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "serve": _cmd_serve,
    "soak": _cmd_soak,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
