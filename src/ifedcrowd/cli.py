"""Command-line interface: equilibrium, sweep, simulate, verify."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .equilibrium import compute_equilibrium
from .errors import IFedCrowdError
from .game_core import feasible_rate_box
from .harness import (
    SWEEP_AXES,
    SweepSpec,
    emit,
    load_config,
    run_simulation,
    run_sweep,
    sample_population,
    verify_scenario,
)
from .mechanisms import MechanismKind


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    population = sample_population(config, run_index=0)
    box = feasible_rate_box(population, config.r2_cap)
    result = compute_equilibrium(population, config.system_params, box)
    payload = {
        "rates": {"r1": result.rates.r1, "r2": result.rates.r2},
        "strategies": [
            {"accuracy": a, "freshness": f, "completion_time": t}
            for a, f, t in zip(
                result.accuracy.tolist(),
                result.freshness.tolist(),
                result.completion_time.tolist(),
            )
        ],
        "server_utility": result.server_utility,
        "client_utilities": result.utilities.tolist(),
        "r1_source": result.r1_source,
        "r2_source": result.r2_source,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    spec = SweepSpec.for_axis(args.axis, config)
    if args.mechanism == "all":
        mechanisms = list(MechanismKind)
    else:
        mechanisms = [MechanismKind.from_token(args.mechanism)]
    table = run_sweep(spec, mechanisms)
    emit(table, args.format, args.out)
    for failure in table.failures:
        print(f"cell failure: {failure}", file=sys.stderr)
    return 1 if table.failures else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.rounds is not None:
        config = dataclasses.replace(config, rounds=args.rounds)
    with open(args.out, "w", encoding="utf-8") as fh:
        for report in run_simulation(config):
            fh.write(json.dumps(report.to_dict()) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    summary = verify_scenario(config)
    worst_client = float(summary.client_violations.max())
    eq = summary.equilibrium
    print(f"rates: r1={eq.rates.r1:.6g} ({eq.r1_source}) r2={eq.rates.r2:.6g} ({eq.r2_source})")
    print(f"server check: worst violation {summary.server_report.worst_violation:.3e} "
          f"({'pass' if summary.server_report.passed else 'FAIL'})")
    print(f"client checks: worst violation {worst_client:.3e} "
          f"({'pass' if summary.clients_passed else 'FAIL'})")
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifedcrowd",
        description="Stackelberg reward-rate equilibria and federated crowdsourcing simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", help="solve equilibrium rates for a scenario")
    p_eq.add_argument("--config", required=True)
    p_eq.add_argument("--out")
    p_eq.set_defaults(func=_cmd_equilibrium)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and write a table")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument(
        "--mechanism",
        default="all",
        choices=[kind.token for kind in MechanismKind] + ["all"],
    )
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", default="csv", choices=["csv", "json"])
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="run training rounds, stream round reports")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--rounds", type=int)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="certify the equilibrium for a scenario")
    p_verify.add_argument("--config", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IFedCrowdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
