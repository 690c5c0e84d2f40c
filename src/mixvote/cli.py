"""Command-line surface: run, verify, audit, gen, oracle, bench.

Exit codes: 0 success, 1 axiom verification FAIL (witness in the report),
2 usage error (bad arguments or input files), 3 capacity error, 4 internal
error (a failed invariant or any other unexpected exception).  Reports are
JSON with exact rationals as strings; harmonic scores carry
(value, error_bound) pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core import (
    Instance,
    allocation_from_dict,
    allocation_to_dict,
    format_rational,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    load_json,
    parse_rational,
    save_json,
)
from .errors import CapacityError, InvariantError, MixvoteError
from .generate import ConstructionSpec, gen_construction, gen_random
from .oracle import (
    EnumerationConfig,
    oracle_discretized_opt,
    oracle_min_max_avg,
    oracle_no_ejr_beta,
)
from .rules import (
    ScriptedTieBreaker,
    generalized_mes,
    generalized_pav,
    greedy_ejr_m,
    mnw_indivisible,
)
from .rules.pav import DEFAULT_EPS
from .verify import (
    audit_degree,
    verify_cake_ejr,
    verify_ejr_1,
    verify_ejr_beta,
    verify_ejr_m,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

# each construction parameter's flag type; a construction takes exactly its
# generator's parameters, and random's seed comes from --seed
GEN_PARAMETERS = {
    **dict.fromkeys(("t", "eps", "gamma", "delta", "beta_prime", "alpha", "cake_length"),
                    parse_rational),
    **dict.fromkeys(("n", "m", "cake_atoms", "beta", "q"), int),
    "density": float,
}


def _load(path: str, parse):
    """Parse a JSON input file.  Anything wrong with it is a usage error;
    a bare ValueError or KeyError raised later inside a command is a fault."""
    try:
        return parse(load_json(path))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise MixvoteError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _script(data: list) -> ScriptedTieBreaker:
    return ScriptedTieBreaker([(e["group"], allocation_from_dict(e["witness"])) for e in data])


def _sizes(text: str) -> list[tuple[int, int, int]]:
    """The bench sizes, a comma list of n:m:atoms."""
    sizes = []
    for chunk in text.split(","):
        n, m, atoms = (int(x) for x in chunk.split(":"))
        sizes.append((n, m, atoms))
    return sizes


def _inapplicable(kind: str, choice: str, flags) -> str | None:
    """The usage message for the first given flag that does not apply to
    ``--kind choice``; ``flags`` holds (flag, given, choices it applies to)."""
    for flag, given, applies in flags:
        if given and choice not in applies:
            return f"{flag} applies to --{kind} {' and '.join(applies)} only"
    return None


def _given(**flags) -> dict:
    """The flags that were passed, so an absent one keeps the library default."""
    return {name: value for name, value in flags.items() if value is not None}


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


def _run_report(args: argparse.Namespace, inst: Instance, outputs: dict, ms: float) -> dict:
    return {
        "command": " ".join(args.command_echo),
        "instance_digest": instance_digest(inst),
        "outputs": outputs,
        "timing_ms": round(ms, 3),
        "version": __version__,
    }


def cmd_run(args: argparse.Namespace) -> int:
    misused = _inapplicable("rule", args.rule, (
        ("--tie-breaker script", args.tie_breaker == "script", ("greedy-ejr-m",)),
        ("--force", args.force, ("gpav", "mnw")),
        ("--eps", args.eps is not None, ("gpav",)),
    ))
    if misused:
        print(misused, file=sys.stderr)
        return EXIT_USAGE
    if args.tie_breaker == "script" and args.script is None:
        print("--script is required for --tie-breaker script", file=sys.stderr)
        return EXIT_USAGE
    if args.script is not None and args.tie_breaker != "script":
        print("--script requires --tie-breaker script", file=sys.stderr)
        return EXIT_USAGE
    inst = _load(args.instance, instance_from_dict)
    base = args.out or str(Path(args.instance).with_suffix("")) + f".{args.rule}"
    alloc_path = base + ".alloc.json"
    started = time.perf_counter()
    outputs = {"allocation": alloc_path}
    if args.rule == "greedy-ejr-m":
        policy = _load(args.script, _script) if args.script else None
        bundle, trace = greedy_ejr_m(inst, tie_breaker=policy)
        sidecar = base + ".trace.json"
        save_json(sidecar, {
            "rounds": [
                {
                    "t_star": format_rational(r.t_star),
                    "group": sorted(r.group),
                    "witness": allocation_to_dict(inst, r.witness),
                }
                for r in trace.rounds
            ]
        })
        outputs["trace"] = sidecar
    elif args.rule == "gmes":
        bundle, ledger = generalized_mes(inst)
        sidecar = base + ".ledger.json"
        save_json(sidecar, {
            "initial_budget": format_rational(ledger.initial_budget),
            "iterations": ledger.iterations,
            "purchases": [
                {
                    "item": p.item if isinstance(p.item, str)
                    else [format_rational(p.item[0]), format_rational(p.item[1])],
                    "cost": format_rational(p.cost),
                    "rho": format_rational(p.rho),
                    "x": None if p.x is None else format_rational(p.x),
                    "payments": {str(i): format_rational(v) for i, v in p.payments.items()},
                }
                for p in ledger.purchases
            ],
            "final_budgets": {
                str(i): format_rational(v) for i, v in ledger.final_budgets.items()
            },
        })
        outputs["ledger"] = sidecar
    elif args.rule == "gpav":
        solution = generalized_pav(inst, force=args.force, **_given(eps=args.eps))
        bundle = solution.allocation
        sidecar = base + ".solution.json"
        save_json(sidecar, {
            "score": {
                "value": solution.score.value,
                "error_bound": solution.score.abs_error_bound,
            },
            "optimality_gap": solution.optimality_gap,
            "atom_lengths": {
                f"[{format_rational(lo)},{format_rational(hi)}]": format_rational(ln)
                for (lo, hi), ln in solution.atom_lengths.items()
            },
        })
        outputs["solution"] = sidecar
    elif args.rule == "mnw":
        bundles = mnw_indivisible(inst, force=args.force)
        bundle = bundles[0]
        sidecar = base + ".solution.json"
        save_json(sidecar, {
            "optimal_allocations": [allocation_to_dict(inst, b) for b in bundles],
        })
        outputs["solution"] = sidecar
    else:  # pragma: no cover - argparse restricts choices
        raise MixvoteError(f"unknown rule {args.rule}")
    save_json(alloc_path, allocation_to_dict(inst, bundle))
    ms = (time.perf_counter() - started) * 1000
    _emit(_run_report(args, inst, outputs, ms), None)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    misused = _inapplicable("axiom", args.axiom, (
        ("--margin", args.margin is not None, ("ejr-1",)),
        ("--beta", args.beta is not None, ("ejr-beta",)),
        ("--mode", args.mode is not None, ("ejr-beta",)),
    ))
    if misused:
        print(misused, file=sys.stderr)
        return EXIT_USAGE
    inst = _load(args.instance, instance_from_dict)
    allocation = _load(args.allocation, allocation_from_dict)
    if args.axiom == "ejr-m":
        report = verify_ejr_m(inst, allocation)
    elif args.axiom == "ejr-1":
        report = verify_ejr_1(inst, allocation, **_given(margin=args.margin))
    elif args.axiom == "ejr-beta":
        if args.beta is None:
            print("--beta is required for ejr-beta", file=sys.stderr)
            return EXIT_USAGE
        report = verify_ejr_beta(inst, allocation, args.beta, **_given(mode=args.mode))
    else:
        report = verify_cake_ejr(inst, allocation)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_audit(args: argparse.Namespace) -> int:
    inst = _load(args.instance, instance_from_dict)
    allocation = _load(args.allocation, allocation_from_dict)
    report = audit_degree(inst, allocation, args.bound, t_min=args.t_min)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    params = _given(**{name: getattr(args, name) for name in GEN_PARAMETERS})
    spec = ConstructionSpec(name=args.construction, parameters=params, seed=args.seed)
    inst, meta = gen_construction(spec)
    out = args.out or f"{args.construction}.json"
    save_json(out, instance_to_dict(inst))
    meta_path = str(Path(out).with_suffix("")) + ".meta.json"
    save_json(meta_path, meta)
    _emit({"instance": out, "metadata": meta_path, "digest": instance_digest(inst)}, None)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    misused = _inapplicable("check", args.check, (
        ("--beta", args.beta is not None, ("no-ejr-beta",)),
        ("--mode", args.mode is not None, ("no-ejr-beta",)),
        ("--t", args.t is not None, ("min-max-avg",)),
        ("--objective", args.objective is not None, ("opt",)),
    ))
    if misused:
        print(misused, file=sys.stderr)
        return EXIT_USAGE
    inst = _load(args.instance, instance_from_dict)
    cfg = EnumerationConfig(cake_grid=args.grid)
    if args.check == "no-ejr-beta":
        if args.beta is None:
            print("--beta is required for no-ejr-beta", file=sys.stderr)
            return EXIT_USAGE
        value = oracle_no_ejr_beta(inst, args.beta, cfg=cfg, **_given(mode=args.mode))
        _emit({"check": "no-ejr-beta", "impossible": value}, args.out)
    elif args.check == "min-max-avg":
        if args.t is None:
            print("--t is required for min-max-avg", file=sys.stderr)
            return EXIT_USAGE
        value = oracle_min_max_avg(inst, args.t, cfg)
        _emit(
            {
                "check": "min-max-avg",
                "value": "inf" if value is None else format_rational(value),
            },
            args.out,
        )
    else:
        bundle, score = oracle_discretized_opt(inst, cfg=cfg, **_given(objective=args.objective))
        objective = "nash" if isinstance(score, tuple) else "gpav"
        if isinstance(score, tuple):  # nash: (agents with positive utility, product)
            score = {"positive_agents": score[0], "product": format_rational(score[1])}
        _emit(
            {
                "check": "opt",
                "objective": objective,
                "allocation": allocation_to_dict(inst, bundle),
                "score": format_rational(score) if isinstance(score, Fraction) else score,
            },
            args.out,
        )
    return EXIT_OK


def bench_mes(
    sizes: list[tuple[int, int, int]],
    seed: int = 0,
    density: float = 0.05,
) -> list[dict]:
    """Time the budget rule on seeded instances of growing size and check
    the iteration count against the conservative progress bound."""
    rows = []
    for n, m, atoms in sizes:
        c = Fraction(atoms, 2)
        alpha = (m + c) / 4 if m + c >= 4 else Fraction(m + c, 2)
        inst = gen_random(
            n=n, m=m, cake_atoms=atoms, alpha=alpha, density=density, seed=seed
        )
        started = time.perf_counter()
        bundle, ledger = generalized_mes(inst)
        elapsed = time.perf_counter() - started
        bound = m + atoms * n + n
        if ledger.iterations > bound:
            raise InvariantError(
                f"iterations {ledger.iterations} exceed progress bound {bound}"
            )
        rows.append(
            {
                "n": n,
                "m": m,
                "atoms": atoms,
                "iterations": ledger.iterations,
                "iteration_bound": bound,
                "pops": ledger.pops,
                "stale": ledger.stale,
                "rescales": ledger.rescales,
                "size": format_rational(bundle.size()),
                "wall_ms": round(elapsed * 1000, 3),
            }
        )
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    rows = bench_mes(args.sizes, seed=args.seed, density=args.density)
    _emit({"bench": "gmes", "rows": rows}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixvote",
        description="Collective choice over mixed divisible and indivisible goods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an allocation rule")
    p_run.add_argument("--rule", required=True, choices=["greedy-ejr-m", "gmes", "gpav", "mnw"])
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--tie-breaker", default="default", choices=["default", "script"])
    p_run.add_argument("--script", help="tie-break script file (with --tie-breaker script)")
    p_run.add_argument("--eps", type=float, help=f"gpav's solver tolerance (default {DEFAULT_EPS})")
    p_run.add_argument("--force", action="store_true", help="lift the goods cap of gpav and mnw")
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check an axiom")
    p_verify.add_argument("--axiom", required=True, choices=["ejr-m", "ejr-1", "ejr-beta", "cake-ejr"])
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--allocation", required=True)
    p_verify.add_argument("--beta", type=parse_rational, help="ejr-beta only (required)")
    p_verify.add_argument("--mode", choices=["strict", "weak"], help="ejr-beta only (default strict)")
    p_verify.add_argument("--margin", type=float, help="ejr-1 only (default 0)")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_audit = sub.add_parser("audit", help="audit proportionality degree")
    p_audit.add_argument("--bound", required=True, choices=["ejr-m", "ejr-1", "gpav", "mes-upper"])
    p_audit.add_argument("--instance", required=True)
    p_audit.add_argument("--allocation", required=True)
    p_audit.add_argument("--t-min", type=parse_rational, default="1")
    p_audit.add_argument("--out")
    p_audit.set_defaults(func=cmd_audit)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("--construction", required=True)
    for name, kind in GEN_PARAMETERS.items():
        p_gen.add_argument("--" + name.replace("_", "-"), type=kind)
    p_gen.add_argument("--seed", type=int, help="random only")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_oracle = sub.add_parser("oracle", help="brute-force checks")
    p_oracle.add_argument("--check", required=True, choices=["no-ejr-beta", "min-max-avg", "opt"])
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--grid", type=int, default=EnumerationConfig().cake_grid)
    p_oracle.add_argument("--beta", type=parse_rational, help="no-ejr-beta only (required)")
    p_oracle.add_argument("--mode", choices=["strict", "weak"], help="no-ejr-beta only (default weak)")
    p_oracle.add_argument("--t", type=parse_rational, help="min-max-avg only (required)")
    p_oracle.add_argument("--objective", choices=["gpav", "nash"], help="opt only (default gpav)")
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="benchmark the budget rule")
    p_bench.add_argument("--sizes", type=_sizes, default="1000:100:100", help="comma list of n:m:atoms")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--density", type=float, default=0.05)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.command_echo = ["mixvote"] + list(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (MixvoteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
