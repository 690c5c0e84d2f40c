"""Command-line surface: run, verify, audit, gen, oracle, bench.

Exit codes: 0 success, 1 axiom verification FAIL (witness in the report),
2 usage error (bad arguments or input files), 3 capacity error, 4 internal
error (a failed invariant or any other unexpected exception).  Reports are
JSON with exact rationals as strings; harmonic scores carry
(value, error_bound) pairs.

``run``, ``verify`` and ``oracle`` each map their choices to library
functions: a flag applies to the choices whose function takes that
parameter, and is required where that parameter has no default.  So
``run --script FILE`` goes with greedy-ejr-m alone; the file's steps become
its ``script`` argument.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from . import __version__
from .core import (
    Bundle,
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
    GreedyTrace,
    PavSolution,
    generalized_mes,
    generalized_pav,
    greedy_ejr_m,
    mnw_indivisible,
)
from .rules.pav import DEFAULT_EPS
from .verify import (
    DEGREE_BOUNDS,
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


def _script(data: list) -> list[tuple[tuple, Bundle]]:
    """A tie-break script file's (group, witness) steps."""
    return [(tuple(e["group"]), allocation_from_dict(e["witness"])) for e in data]


def _sizes(text: str) -> list[tuple[int, int, int]]:
    """The bench sizes, a comma list of n:m:atoms."""
    sizes = []
    for chunk in text.split(","):
        n, m, atoms = (int(x) for x in chunk.split(":"))
        sizes.append((n, m, atoms))
    return sizes


class FlagError(MixvoteError):
    """A flag misused with the chosen rule, axiom or check; its message is
    printed as it is."""


def _bind(args: argparse.Namespace, kind: str, flags: tuple[str, ...]) -> dict:
    """The given ``flags`` (``None`` when absent, so the library default
    holds) as keyword arguments of the function ``args.table`` maps the
    chosen ``--kind`` to.  A flag applies to the choices whose function takes
    its parameter and is required where that parameter has no default; the
    first misused flag, in ``flags`` order, is named."""
    choice = getattr(args, kind)
    takes = {name: inspect.signature(f).parameters for name, f in args.table.items()}
    given = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    for name in given:
        if name not in takes[choice]:
            applies = " and ".join(c for c in args.table if name in takes[c])
            raise FlagError(f"--{name} applies to --{kind} {applies} only")
    for name in flags:
        param = takes[choice].get(name)
        if name not in given and param is not None and param.default is param.empty:
            raise FlagError(f"--{name} is required for {choice}")
    return given


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
    kwargs = _bind(args, "rule", ("script", "force", "eps"))
    inst = _load(args.instance, instance_from_dict)
    base = args.out or str(Path(args.instance).with_suffix("")) + f".{args.rule}"
    started = time.perf_counter()
    if args.script is not None:
        kwargs["script"] = _load(args.script, _script)
    result = args.table[args.rule](inst, **kwargs)
    if isinstance(result, list):  # mnw: every Nash-optimal allocation
        bundle, kind = result[0], "solution"
        sidecar = {"optimal_allocations": [allocation_to_dict(inst, b) for b in result]}
    elif isinstance(result, PavSolution):
        bundle, kind, sidecar = result.allocation, "solution", result.to_dict()
    else:
        bundle, record = result
        if isinstance(record, GreedyTrace):
            kind, sidecar = "trace", record.to_dict(inst)
        else:
            kind, sidecar = "ledger", record.to_dict()
    outputs = {"allocation": base + ".alloc.json", kind: f"{base}.{kind}.json"}
    save_json(outputs[kind], sidecar)
    save_json(outputs["allocation"], allocation_to_dict(inst, bundle))
    ms = (time.perf_counter() - started) * 1000
    _emit(_run_report(args, inst, outputs, ms), None)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    kwargs = _bind(args, "axiom", ("margin", "beta", "mode"))
    inst = _load(args.instance, instance_from_dict)
    allocation = _load(args.allocation, allocation_from_dict)
    report = args.table[args.axiom](inst, allocation, **kwargs)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_audit(args: argparse.Namespace) -> int:
    inst = _load(args.instance, instance_from_dict)
    allocation = _load(args.allocation, allocation_from_dict)
    report = audit_degree(inst, allocation, args.bound, t_min=args.t_min)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    params = {name: v for name in GEN_PARAMETERS if (v := getattr(args, name)) is not None}
    spec = ConstructionSpec(name=args.construction, parameters=params, seed=args.seed)
    inst, meta = gen_construction(spec)
    out = args.out or f"{args.construction}.json"
    save_json(out, instance_to_dict(inst))
    meta_path = str(Path(out).with_suffix("")) + ".meta.json"
    save_json(meta_path, meta)
    _emit({"instance": out, "metadata": meta_path, "digest": instance_digest(inst)}, None)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    kwargs = _bind(args, "check", ("beta", "mode", "t", "objective"))
    inst = _load(args.instance, instance_from_dict)
    value = args.table[args.check](inst, cfg=EnumerationConfig(cake_grid=args.grid), **kwargs)
    if isinstance(value, bool):  # no-ejr-beta
        report = {"impossible": value}
    elif isinstance(value, tuple):  # opt: the best bundle and its score
        bundle, score = value
        if isinstance(score, tuple):  # nash: (agents with positive utility, product)
            score = {"positive_agents": score[0], "product": format_rational(score[1])}
        report = {
            "objective": "nash" if isinstance(score, dict) else "gpav",
            "allocation": allocation_to_dict(inst, bundle),
            "score": format_rational(score) if isinstance(score, Fraction) else score,
        }
    else:  # min-max-avg: None when no group is cohesive
        report = {"value": "inf" if value is None else format_rational(value)}
    _emit({"check": args.check, **report}, args.out)
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

    # each command's table maps a choice to the library function it runs;
    # built per parse, so it holds the module's current bindings
    rules = {
        "greedy-ejr-m": greedy_ejr_m,
        "gmes": generalized_mes,
        "gpav": generalized_pav,
        "mnw": mnw_indivisible,
    }
    p_run = sub.add_parser("run", help="run an allocation rule")
    p_run.add_argument("--rule", required=True, choices=rules)
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--script", help="greedy-ejr-m's tie-break script file")
    p_run.add_argument("--eps", type=float, help=f"gpav's solver tolerance (default {DEFAULT_EPS})")
    p_run.add_argument("--force", action="store_true", default=None,
                       help="lift the goods cap of gpav and mnw")
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run, table=rules)

    axioms = {
        "ejr-m": verify_ejr_m,
        "ejr-1": verify_ejr_1,
        "ejr-beta": verify_ejr_beta,
        "cake-ejr": verify_cake_ejr,
    }
    p_verify = sub.add_parser("verify", help="check an axiom")
    p_verify.add_argument("--axiom", required=True, choices=axioms)
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--allocation", required=True)
    p_verify.add_argument("--beta", type=parse_rational, help="ejr-beta only (required)")
    p_verify.add_argument("--mode", choices=["strict", "weak"], help="ejr-beta only (default strict)")
    p_verify.add_argument("--margin", type=float, help="ejr-1 only (default 0)")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify, table=axioms)

    p_audit = sub.add_parser("audit", help="audit proportionality degree")
    p_audit.add_argument("--bound", required=True, choices=DEGREE_BOUNDS)
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

    checks = {
        "no-ejr-beta": oracle_no_ejr_beta,
        "min-max-avg": oracle_min_max_avg,
        "opt": oracle_discretized_opt,
    }
    p_oracle = sub.add_parser("oracle", help="brute-force checks")
    p_oracle.add_argument("--check", required=True, choices=checks)
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--grid", type=int, default=EnumerationConfig().cake_grid)
    p_oracle.add_argument("--beta", type=parse_rational, help="no-ejr-beta only (required)")
    p_oracle.add_argument("--mode", choices=["strict", "weak"], help="no-ejr-beta only (default weak)")
    p_oracle.add_argument("--t", type=parse_rational, help="min-max-avg only (required)")
    p_oracle.add_argument("--objective", choices=["gpav", "nash"], help="opt only (default gpav)")
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=cmd_oracle, table=checks)

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
    except FlagError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
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
