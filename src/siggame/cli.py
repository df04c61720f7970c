"""Command-line drivers: validate, equilibrium, simulate, batch, diagnose,
appendix-a."""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, replace

from .beliefs import BeliefState
from .diagnostics import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    agreement_series,
    check_window,
    convergence_report,
    random_walk_belief,
)
from .equilibrium import NoPureEquilibriumError, solve_bne
from .model import check_distinguishability
from .scenario_io import (
    check_outdir,
    format_trajectory,
    load_scenario,
    read_trajectory,
    resolve_config_path,
    write_batch,
    write_trajectory,
)
from .simulate import run_batch, run_episode


def _seed_type(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siggame",
        description="Simulate and analyze the attacker/defender signaling game on a finite MDP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file's kernel and distinguishability")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("--config", required=True)

    p = sub.add_parser("equilibrium", help="solve one window and print root prescriptions")
    p.set_defaults(run=_cmd_equilibrium)
    p.add_argument("--config", required=True)
    p.add_argument("--belief", type=float, required=True, help="current malicious-type belief")
    p.add_argument("--state", required=True, help="current state label")

    p = sub.add_parser("simulate", help="run one episode and write its trajectory CSV")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed_type, default=None, help="episode seed (default: config)")
    p.add_argument("--steps", type=int, default=None, help="override episode length")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    p = sub.add_parser("batch", help="run many episodes; write trajectories plus summary.json")
    p.set_defaults(run=_cmd_batch)
    p.add_argument("--config", required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=_seed_type, default=None, help="batch base seed (default: config)")
    p.add_argument("--steps", type=int, default=None, help="override episode length")
    p.add_argument("--outdir", required=True)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes, at least 1; never more than the episode count are started",
    )
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("diagnose", help="convergence and agreement reports for trajectory CSVs")
    p.set_defaults(run=_cmd_diagnose)
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="CSV")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser(
        "appendix-a", help="closed-form belief after k balanced random-walk excursions"
    )
    p.set_defaults(run=_cmd_appendix_a)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prior", type=float, required=True)

    return parser


def _load(config: str):
    return load_scenario(resolve_config_path(config))


def _cmd_validate(args) -> int:
    with warnings.catch_warnings():
        # the distinguishability warning is printed below, on stdout
        warnings.simplefilter("ignore", UserWarning)
        scenario = _load(args.config)
    print("kernel: ok")
    ok, witnesses = check_distinguishability(scenario.kernel)
    if ok:
        print("action distinguishability: ok")
    else:
        # Distinguishability is a premise of the agreement diagnostics only,
        # so its failure is reported but does not fail validation.
        print(f"action distinguishability: WARNING, identical rows at {witnesses}")
    return 0


def _cmd_equilibrium(args) -> int:
    scenario = _load(args.config)
    try:
        result = solve_bne(scenario, BeliefState(args.belief), args.state)
    except NoPureEquilibriumError as err:
        a_b, a_m, reaction = err.fallback_profile.root_prescriptions()
        print(f"no pure equilibrium: {err}", file=sys.stderr)
        print(
            f"approximate roots: benign={a_b} malicious={a_m} reaction={reaction} "
            f"(max sender regret {err.fallback_regret:.6g})",
            file=sys.stderr,
        )
        return 1
    a_b, a_m, reaction = result.profile.root_prescriptions()
    print(f"benign action:    {a_b}")
    print(f"malicious action: {a_m}")
    print(f"reaction:         {reaction}")
    print(f"sender value (benign):    {result.sender_value_benign:.6f}")
    print(f"sender value (malicious): {result.sender_value_malicious:.6f}")
    print(f"receiver value:           {result.receiver_value:.6f}")
    print(f"equilibria found: {result.multiplicity} (tie broken: {result.tie_broken})")
    return 0


def _with_overrides(scenario, steps):
    if steps is None:
        return scenario
    return replace(scenario, episode_length=steps)


def _cmd_simulate(args) -> int:
    scenario = _with_overrides(_load(args.config), args.steps)
    seed = scenario.base_seed if args.seed is None else args.seed
    trajectory = run_episode(scenario, seed)
    if args.out is None:
        sys.stdout.write(format_trajectory(trajectory))
    else:
        write_trajectory(trajectory, args.out)
    return 0


def _cmd_batch(args) -> int:
    check_outdir(args.outdir)  # before any episode runs
    scenario = _with_overrides(_load(args.config), args.steps)
    seed = scenario.base_seed if args.seed is None else args.seed
    summary, trajectories = run_batch(
        scenario,
        args.episodes,
        seed,
        window=args.window,
        tol=args.tol,
        workers=args.workers,
    )
    written = write_batch(summary, trajectories, args.outdir)
    print(f"wrote {len(written)} files to {args.outdir}")
    print(f"classifications: {summary.classifications}")
    return 0


def _cmd_diagnose(args) -> int:
    # The values once, before any file is read; each file's length below.
    check_window(args.window, args.tol)
    reports = []
    for name in args.inputs:
        traj = read_trajectory(name)
        try:
            report = convergence_report(traj, window=args.window, tol=args.tol)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
        _, sustained = agreement_series(traj)
        reports.append({"file": name, **asdict(report), "sustained_agreement_step": sustained})
    # Verdict over the supplied files, read as one malicious-type batch.
    averse = all(r["limit_estimate"] <= 1.0 - args.tol for r in reports)
    doc = {"reports": reports, "detection_averse": averse}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_appendix_a(args) -> int:
    value = random_walk_belief(args.p, args.k, args.prior)
    print(format(value, ".7f"))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as err:  # a ScenarioFormatError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
