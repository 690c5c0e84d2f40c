"""The benchmark's workloads: seeded inputs, the timed calls into mixvote,
and the checks on their outputs.

Every call into the library goes through a module attribute looked up at
call time (``mv.greedy_ejr_m``, ``mv.core.instance_from_dict``), so that the
traced run, which rebinds those attributes, sees it.  Checks read only the
returned values and never call the library, so they add no spans.

See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

import mixvote as mv
from mixvote.oracle import EnumerationConfig

# first allocations of each instance's cake-grid-3 enumeration that are verified
ENUMERATED_PER_INSTANCE = 40
ENUM_CFG = EnumerationConfig(cake_grid=3, max_candidates=1 << 22)
GPAV_EPS = 1e-9
GPAV_MARGIN = 1e-6  # EJR-1 margin for the approximately optimal cake (criterion 4)
GPAV_SLACK_FLOOR = Fraction(-1, 10**6)  # degree-audit floor (criterion 10)
GPAV_OPT_TOL = 1e-9  # indivisible score vs exact optimum (criterion 4)


def derive_seed(*parts) -> int:
    """Generator seed for one item, from the run seed and the item's place."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def bundle_text(bundle) -> str:
    goods = ",".join(sorted(bundle.goods))
    cake = ",".join(f"[{lo},{hi}]" for lo, hi in bundle.cake.intervals)
    return f"goods={goods};cake={cake}"


def report_text(report) -> str:
    w = report.witness
    if w is None:
        return f"{report.axiom}:pass"
    group = ",".join(map(str, w.group))
    return f"{report.axiom}:fail:{group}:{w.t}:{w.threshold}:{w.max_utility}"


def conserved(ledger, n: int, allocation) -> bool:
    spent = ledger.initial_budget * n - sum(ledger.final_budgets.values(), Fraction(0))
    return spent == allocation.size()


class Workload:
    """One set of inputs and the work done on each item.

    ``specs`` lists the generator arguments of every item of a pass;
    ``make`` turns a spec into the value kept from set-up; ``fresh`` turns
    that value into the input of one pass (new objects every pass, so no
    state hangs on an input from an earlier pass); ``run`` is the timed
    work and ``check`` returns (problems, digest text) for its output.
    """

    name = ""
    baseline_rows: tuple[str, ...] = ()

    def specs(self) -> list[dict]:
        raise NotImplementedError

    def make(self, spec: dict, seed: int):
        spec = dict(spec)
        seed = spec.pop("gen_seed", seed)
        return mv.core.instance_to_dict(mv.gen_random(seed=seed, **spec))

    def fresh(self, value):
        return mv.core.instance_from_dict(value)

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> tuple[list[str], str]:
        raise NotImplementedError


class VerifyChain(Workload):
    name = "verify-chain"
    baseline_rows = (
        "Verify workload: criterion-5 pairs, verify_ejr_m + verify_ejr_1 calls",
        "greedy-ejr-m (rules.greedy spans, at the mixed200 sizes n <= 8)",
    )

    def specs(self) -> list[dict]:
        out = []
        for k in range(200):  # the acceptance mixed200 parameterization
            m, atoms = k % 7, k % 5
            if m + atoms == 0:
                atoms = 2
            total = Fraction(m) + Fraction(atoms, 2)
            out.append(
                dict(
                    n=2 + k % 7,
                    m=m,
                    cake_atoms=atoms,
                    alpha=min(total, max(Fraction(1, 2), Fraction(1 + k % 5, 2))),
                    density=(0.3, 0.45, 0.6)[k % 3],
                )
            )
        return out

    def run(self, inst):
        greedy, trace = mv.greedy_ejr_m(inst)
        gmes, ledger = mv.generalized_mes(inst)
        rule_reports = [
            (mv.verify_ejr_m(inst, a), mv.verify_ejr_1(inst, a)) for a in (greedy, gmes)
        ]
        enumerated = [
            (a, mv.verify_ejr_m(inst, a), mv.verify_ejr_1(inst, a))
            for a in itertools.islice(
                mv.enumerate_allocations(inst, ENUM_CFG), ENUMERATED_PER_INSTANCE
            )
        ]
        return greedy, trace, gmes, ledger, rule_reports, enumerated

    def check(self, inst, out):
        greedy, trace, gmes, ledger, rule_reports, enumerated = out
        problems = []
        if greedy.size() > inst.alpha:
            problems.append("greedy exceeds alpha")
        if not rule_reports[0][0].passed:
            problems.append("greedy output fails EJR-M")
        if not conserved(ledger, inst.n, gmes):
            problems.append("gmes does not conserve the spent budget")
        if not rule_reports[1][1].passed:
            problems.append("gmes output fails EJR-1")
        pairs = list(rule_reports) + [(m, one) for _, m, one in enumerated]
        if any(m.passed and not one.passed for m, one in pairs):
            problems.append("EJR-M pass without EJR-1 pass")
        lines = [bundle_text(greedy), f"rounds={len(trace.rounds)}", bundle_text(gmes)]
        lines += [report_text(r) for pair in rule_reports for r in pair]
        for alloc, m, one in enumerated:
            lines += [bundle_text(alloc), report_text(m), report_text(one)]
        return problems, "\n".join(lines)


class GpavMedium(Workload):
    name = "gpav-medium"
    baseline_rows = ("gpav, n=40, m=10, atoms=12, alpha=5, density 0.4, seed 1",)
    # the last item of every pass is the Baseline row itself, with its own seed
    anchor = dict(n=40, m=10, cake_atoms=12, alpha=Fraction(5), density=0.4)
    anchor_seed = 1
    # (items, n, m, cake atoms).  Sorted by cost, the indivisible items and
    # the first tier come first, so p50 falls inside the 40 items of the
    # second tier and p90 inside the last, away from a jump in cost.
    tiers = ((10, 8, 3, 2), (40, 12, 4, 3), (10, 20, 6, 5), (20, 24, 6, 6))

    def specs(self) -> list[dict]:
        out = []
        for count, n, m, atoms in self.tiers:
            out += [self._spec(n, m, atoms) for _ in range(count)]
        for k in range(20):  # every fifth item is indivisible, in the tiers' shapes
            _, n, m, _ = self.tiers[k % len(self.tiers)]
            out.append(self._spec(n, m, 0))
        out.append(dict(self.anchor, gen_seed=self.anchor_seed))
        return out

    @staticmethod
    def _spec(n: int, m: int, atoms: int) -> dict:
        alpha = max(Fraction(1), (m + Fraction(atoms, 2)) / 3)
        return dict(n=n, m=m, cake_atoms=atoms, alpha=alpha, density=0.4)

    def run(self, inst):
        sol = mv.generalized_pav(inst, eps=GPAV_EPS)
        ejr1 = mv.verify_ejr_1(inst, sol.allocation, margin=GPAV_MARGIN)
        audit = mv.audit_degree(inst, sol.allocation, "gpav")
        exact = None
        if inst.cake_length == 0:
            exact = (
                mv.mnw_indivisible(inst),
                mv.oracle_discretized_opt(inst, "gpav"),
                mv.oracle_discretized_opt(inst, "nash"),
            )
        return sol, ejr1, audit, exact

    def check(self, inst, out):
        sol, ejr1, audit, exact = out
        problems = []
        if sol.allocation.size() > inst.alpha:
            problems.append("gpav exceeds alpha")
        if not ejr1.passed:
            problems.append("gpav output fails EJR-1 at the 1e-6 margin")
        if audit.min_slack is not None and not audit.min_slack > GPAV_SLACK_FLOOR:
            problems.append(f"gpav degree slack {audit.min_slack} below the floor")
        chosen = sorted(sol.allocation.goods, key=inst.goods.index)
        lines = ["goods=" + ",".join(chosen), report_text(ejr1)]
        if exact is not None:
            mnw, (_, opt), (_, nash_opt) = exact
            if abs(sol.score.value - float(opt)) > GPAV_OPT_TOL:
                problems.append(f"gpav score {sol.score.value} differs from optimum {float(opt)}")
            keys = {self._nash_key(inst, b.goods) for b in mnw}
            if keys != {nash_opt}:
                problems.append("mnw outputs are not all Nash-optimal")
            lines += [bundle_text(b) for b in mnw]
        return problems, "\n".join(lines)

    @staticmethod
    def _nash_key(inst, goods):
        positive = [len(a.goods & goods) for a in inst.agents if a.goods & goods]
        return len(positive), math.prod(positive) if positive else 0


class MesScale(Workload):
    name = "mes-scale"
    baseline_rows = ("gmes, n=1000, m=100, atoms=100, seed 7 (criterion 13)",)
    anchor_seed = 7
    tiers = (60, 120, 180, 240, 300)  # agents; m = cake atoms = n/10

    @staticmethod
    def _spec(n: int) -> dict:
        m = atoms = max(2, n // 10)
        total = m + Fraction(atoms, 2)  # the cli.bench_mes parameterization
        return dict(
            n=n, m=m, cake_atoms=atoms,
            alpha=total / 4 if total >= 4 else total / 2, density=0.05,
        )

    def specs(self) -> list[dict]:
        # five size tiers of 20 items, then the Baseline row
        out = [self._spec(n) for n in self.tiers for _ in range(20)]
        out.append(dict(self._spec(1000), gen_seed=self.anchor_seed))
        return out

    def make(self, spec, seed):
        data = super().make(spec, seed)
        digest = mv.core.instance_digest(mv.core.instance_from_dict(data))
        # the iteration bound checked by cli.bench_mes
        bound = spec["m"] + spec["cake_atoms"] * spec["n"] + spec["n"]
        return data, digest, bound

    def fresh(self, value):
        return value  # plain JSON data: nothing from an earlier pass can hang on it

    def run(self, item):
        data, _, _ = item
        inst = mv.core.instance_from_dict(data)
        digest = mv.instance_digest(inst)
        alloc, ledger = mv.generalized_mes(inst)
        return inst, digest, alloc, ledger, mv.core.allocation_to_dict(inst, alloc)

    def check(self, item, out):
        _, expected_digest, bound = item
        inst, digest, alloc, ledger, alloc_dict = out
        problems = []
        if digest != expected_digest:
            problems.append("instance digest changed between set-up and run")
        if alloc.size() > inst.alpha:
            problems.append("gmes exceeds alpha")
        if not conserved(ledger, inst.n, alloc):
            problems.append("gmes does not conserve the spent budget")
        if Fraction(alloc_dict["size"]) != alloc.size():
            problems.append("serialized size differs from the allocation")
        if ledger.iterations > bound:
            problems.append(f"{ledger.iterations} iterations exceed the bound {bound}")
        return problems, json.dumps(alloc_dict, sort_keys=True)


WORKLOADS = {w.name: w for w in (VerifyChain(), GpavMedium(), MesScale())}
