"""Deterministic instance builders: named constructions and seeded random fuel.

Each named construction returns the instance together with metadata that
records the designated target group, the expected bound, and (where the
construction steers the greedy rule) the tie-break script that reproduces
the intended execution.  Constructions take every "sufficiently large /
small" constant as an explicit parameter and raise with the exact violated
inequality when the closing condition fails.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Bundle, Instance, as_count, as_rational, as_real, format_rational, normalize
from .errors import ConstructionParameterError, DomainError, InvariantError

@dataclass(frozen=True)
class ConstructionSpec:
    name: str
    parameters: dict = field(default_factory=dict)
    seed: int | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConstructionParameterError(message)


def _require_fractional_part_fits(t: Fraction, r: Fraction | int) -> None:
    """Require ceil((t - floor(t)) * r) <= r - 1, where r = n/alpha."""
    need = math.ceil((t - math.floor(t)) * r)
    _require(
        need <= r - 1,
        f"need ceil((t - floor(t)) * n/alpha) <= n/alpha - 1, got {need} > {r - 1}",
    )


def gen_fig1() -> tuple[Instance, dict]:
    """Two agents, two goods, a 0.9-length cake, alpha = 2; each agent
    approves her own good plus the whole cake."""
    cake = normalize([(Fraction(0), Fraction(9, 10))])
    inst = Instance(
        cake_length=Fraction(9, 10),
        goods=("g1", "g2"),
        agents=(
            Bundle(cake=cake, goods=frozenset({"g1"})),
            Bundle(cake=cake, goods=frozenset({"g2"})),
        ),
        alpha=Fraction(2),
    )
    meta = {
        "construction": "fig1",
        "expected_greedy_goods": ["g1", "g2"],
        "expected_mes_payment": format_rational(Fraction(9, 20)),
    }
    return inst, meta


def gen_prop1(beta_prime: Fraction = Fraction(1, 2), n: int = 4) -> tuple[Instance, dict]:
    """Disjoint singleton approvals with alpha = beta_prime * n < n, so any
    sub-1 relaxation of the representation threshold is unsatisfiable."""
    beta_prime, n = as_rational("beta_prime", beta_prime), as_count("n", n)
    _require(0 < beta_prime < 1, f"beta_prime must lie in (0, 1), got {beta_prime}")
    alpha = beta_prime * n
    _require(
        alpha.denominator == 1 and alpha >= 1,
        f"alpha = beta_prime * n = {alpha} must be a positive integer",
    )
    goods = tuple(f"g{i + 1}" for i in range(n))
    agents = tuple(Bundle(goods=frozenset({goods[i]})) for i in range(n))
    inst = Instance(cake_length=Fraction(0), goods=goods, agents=agents, alpha=alpha)
    meta = {
        "construction": "prop1",
        "beta_prime": format_rational(beta_prime),
        "claim": "no allocation satisfies weak EJR-beta for any beta < beta_prime",
    }
    return inst, meta


def gen_prop4(beta: int = 1) -> tuple[Instance, dict]:
    """Large cohesive group versus singleton holdouts; Nash-welfare
    allocations appease the singletons and starve the group."""
    _require(as_count("beta", beta) >= 1, f"beta must be a positive integer, got {beta}")
    gamma = beta + 2
    n = gamma * gamma + gamma
    m = 2 * gamma
    goods = tuple(f"g{i + 1}" for i in range(m))
    block = frozenset(goods[:gamma])
    agents = [Bundle(goods=block) for _ in range(gamma * gamma)]
    agents += [Bundle(goods=frozenset({goods[gamma + i]})) for i in range(gamma)]
    inst = Instance(
        cake_length=Fraction(0),
        goods=goods,
        agents=tuple(agents),
        alpha=Fraction(gamma + 1),
    )
    expected = [
        sorted({goods[j]} | set(goods[gamma:]), key=lambda g: goods.index(g))
        for j in range(gamma)
    ]
    meta = {
        "construction": "prop4",
        "beta": beta,
        "gamma": gamma,
        "target_group": list(range(gamma * gamma)),
        "target_t": gamma,
        "expected_mnw_allocations": expected,
    }
    return inst, meta


def gen_thm4(
    t: Fraction,
    n: int,
    delta: Fraction = Fraction(1, 100),
    eps: Fraction = Fraction(1, 4),
) -> tuple[Instance, dict]:
    """Cake [0, 2t] with staggered prefix approvals; the right half [t, 2t]
    satisfies EJR-1 yet keeps the full group's average satisfaction within
    eps of the EJR-1 degree bound."""
    t, n = as_rational("t", t), as_count("n", n)
    delta, eps = as_rational("delta", delta), as_rational("eps", eps)
    _require(t >= 1, f"t must be at least 1, got {t}")
    _require(0 < delta < 1, f"delta must lie in (0, 1), got {delta}")
    _require(eps > 0, f"eps must be positive, got {eps}")
    alpha = t
    r = Fraction(n) / alpha
    _require(n >= 2, f"need at least two agents, got n = {n}")
    _require_fractional_part_fits(t, r)
    closing = delta * (t - 1) / t + t / (2 * n * n) + (t - 1 + delta) / n
    _require(
        closing <= eps,
        f"closing inequality fails: delta*(t-1)/t + t/(2n^2) + (t-1+delta)/n "
        f"= {closing} > eps = {eps}",
    )
    c = 2 * t
    first_special = math.ceil(r)
    agents = []
    for i in range(1, n + 1):
        if i < first_special:
            end = t
        else:
            end = t + Fraction(i) / r - 1 + delta
        _require(end <= c, f"agent {i} approval end {end} exceeds cake length {c}")
        agents.append(Bundle(cake=normalize([(Fraction(0), end)])))
    inst = Instance(
        cake_length=c, goods=(), agents=tuple(agents), alpha=alpha
    )
    total = sum(
        (Fraction(i) / r - 1 + delta for i in range(first_special, n + 1)),
        Fraction(0),
    )
    meta = {
        "construction": "thm4",
        "t": format_rational(t),
        "delta": format_rational(delta),
        "eps": format_rational(eps),
        "designated_allocation": {"cake": [[format_rational(t), format_rational(c)]]},
        "target_group": list(range(n)),
        "average_satisfaction": format_rational(total / n),
        "degree_bound": format_rational((t - 2 + 1 / t) / 2),
    }
    return inst, meta


def _thm6_tiers(t: Fraction, n: int, alpha: int, eps: Fraction) -> tuple[Instance, dict]:
    """Tiers N_0..N_ft of the target group and dummy tiers D_1..D_ft.  N_k
    approves the ceil(t) main goods and the k goods of tier k; D_k approves
    the tier-k goods alone and the last dummy tier takes the agents left."""
    ft = math.floor(t)
    ct = math.ceil(t)
    r = n // alpha
    sizes_n = [r - 1] + [r] * (ft - 1) + [math.ceil(t * r) - ft * r + 1]
    sizes_d = [1 if k == 1 else (k - 1) * r for k in range(1, ft)]
    sizes_d.append(n - sum(sizes_n) - sum(sizes_d))

    main_goods = [f"g{j + 1}" for j in range(ct)]
    tier_goods = [[f"d{k}_{j + 1}" for j in range(k)] for k in range(ft + 1)]
    goods = tuple(main_goods + [g for tier in tier_goods for g in tier])

    agents: list[Bundle] = []
    tiers_n: dict[int, list[int]] = {}
    tiers_d: dict[int, list[int]] = {}
    for k in range(0, ft + 1):
        tiers_n[k] = list(range(len(agents), len(agents) + sizes_n[k]))
        approved = set(main_goods) | set(tier_goods[k])
        agents += [Bundle(goods=frozenset(approved))] * sizes_n[k]
    for k in range(1, ft + 1):
        tiers_d[k] = list(range(len(agents), len(agents) + sizes_d[k - 1]))
        agents += [Bundle(goods=frozenset(tier_goods[k]))] * sizes_d[k - 1]

    inst = Instance(
        cake_length=Fraction(0), goods=goods, agents=tuple(agents), alpha=Fraction(alpha)
    )
    target = [i for k in range(0, ft + 1) for i in tiers_n[k]]
    script = [
        {
            "group": sorted(tiers_n[k] + tiers_d[k]),
            "witness": {"goods": tier_goods[k], "cake": []},
        }
        for k in range(ft, 0, -1)
    ]
    avg = sum(Fraction(len(tiers_n[k]) * k) for k in range(ft + 1)) / len(target)
    meta = {
        "construction": "thm6",
        "t": format_rational(t),
        "eps": format_rational(eps),
        "alpha": alpha,
        "target_group": sorted(target),
        "script": script,
        "average_satisfaction": format_rational(avg),
        "degree_bound": format_rational(
            Fraction(ft) * (1 - Fraction(ft + 1) / (2 * t))
        ),
    }
    return inst, meta


def gen_thm6(t: Fraction, n: int, eps: Fraction) -> tuple[Instance, dict]:
    """Tiered indivisible instance on which the greedy rule, with the
    bundled tie-break script, satisfies each tier through its dummy goods
    and drives the target group's average satisfaction to the degree bound."""
    t, n, eps = as_rational("t", t), as_count("n", n), as_rational("eps", eps)
    _require(t >= 1, f"t must be at least 1, got {t}")
    _require(eps > 0, f"eps must be positive, got {eps}")
    ft = math.floor(t)
    alpha_frac = Fraction(ft * ft + ft + 2, 2)
    if alpha_frac.denominator != 1:
        raise InvariantError(f"alpha {alpha_frac} is not an integer")
    alpha = int(alpha_frac)
    _require(n % alpha == 0, f"n must be a multiple of alpha = {alpha}, got {n}")
    _require(n >= 2 * alpha, f"n must be at least 2 * alpha = {2 * alpha}, got {n}")
    r = n // alpha
    _require_fractional_part_fits(t, r)
    closing = 2 * alpha * ft / (Fraction(n) * t)
    _require(
        closing <= eps,
        f"closing inequality fails: floor(t)*(floor(t)^2+floor(t)+2)/(n*t) "
        f"= {closing} > eps = {eps}",
    )
    return _thm6_tiers(t, n, alpha, eps)


def gen_appendix(
    t: Fraction,
    eps: Fraction,
    gamma: Fraction,
    q: int,
) -> tuple[Instance, dict]:
    """Overlapping goods blocks where every feasible allocation must skip one
    block entirely, capping the minimum average satisfaction over the
    cohesive groups."""
    t, eps, gamma = as_rational("t", t), as_rational("eps", eps), as_rational("gamma", gamma)
    q = as_count("q", q)
    _require(t >= 1, f"t must be at least 1, got {t}")
    _require(eps > 0, f"eps must be positive, got {eps}")
    k = math.floor(t)
    c = t - k
    _require((c * q).denominator == 1, f"t's fractional part {c} must have denominator dividing q = {q}")
    _require((gamma * q).denominator == 1, f"gamma = {gamma} must have denominator dividing q = {q}")
    _require(0 < gamma <= eps, f"gamma must lie in (0, eps] = (0, {eps}], got {gamma}")
    _require(gamma < 1 - c, f"gamma must be below 1 - frac(t) = {1 - c}, got {gamma}")
    n0 = q * ((k + 1) * c + k * gamma)
    ni = q * (1 - c - gamma)
    if n0.denominator != 1 or ni.denominator != 1:
        raise InvariantError(f"tier sizes {n0} and {ni} are not integers")
    n0, ni = int(n0), int(ni)
    _require(ni >= 1, f"each holdout tier needs at least one agent, got {ni}")
    n = n0 + (k + 1) * ni
    alpha = k + 1 - gamma

    blocks = [[f"g{i + 1}_{j + 1}" for j in range(k + 1)] for i in range(k + 1)]
    goods = tuple(g for block in blocks for g in block)
    agents: list[Bundle] = []
    all_goods = frozenset(goods)
    agents += [Bundle(goods=all_goods)] * n0
    tier_members: dict[int, list[int]] = {}
    for i in range(1, k + 2):
        approved = frozenset(g for j, block in enumerate(blocks, start=1) if j != i for g in block)
        tier_members[i] = list(range(len(agents), len(agents) + ni))
        agents += [Bundle(goods=approved)] * ni
    inst = Instance(
        cake_length=Fraction(0), goods=goods, agents=tuple(agents), alpha=alpha
    )
    groups = {
        i: sorted(set(range(n)) - set(tier_members[i])) for i in range(1, k + 2)
    }
    meta = {
        "construction": "appendix",
        "t": format_rational(t),
        "eps": format_rational(eps),
        "gamma": format_rational(gamma),
        "q": q,
        "cohesive_groups": {str(i): g for i, g in groups.items()},
        "bound": format_rational(t - 1 + c * (1 - c) / t + eps),
    }
    return inst, meta


def gen_random(
    n: int,
    m: int = 0,
    cake_atoms: int = 0,
    *,
    alpha: Fraction,
    density: float = 0.5,
    seed: int = 0,
    cake_length: Fraction | None = None,
) -> Instance:
    """Seeded random instance: ``cake_atoms`` base intervals with random
    rational breakpoints over a cake of ``cake_length`` (``cake_atoms / 2``
    unless given, and 0 without atoms); each agent approves each good and
    each base atom independently with the given probability."""
    if as_count("n", n) < 1:
        raise DomainError("need at least one agent")
    if as_count("m", m) < 0 or as_count("cake_atoms", cake_atoms) < 0:
        raise DomainError(f"m and cake_atoms must be nonnegative, got {m} and {cake_atoms}")
    if m + cake_atoms < 1:
        raise DomainError("need at least one good or cake atom")
    if not 0 <= as_real("density", density) <= 1:
        raise DomainError(f"density must lie in [0, 1], got {density}")
    alpha = as_rational("alpha", alpha)
    c = Fraction(cake_atoms, 2) if cake_length is None else as_rational("cake_length", cake_length)
    # random.Random seeds from abs(seed), so -5 would build seed 5's instance
    if as_count("seed", seed) < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    if cake_atoms > 0:
        if c <= 0:
            raise DomainError("cake length must be positive when atoms are requested")
        denom = 8 * cake_atoms
        ticks = sorted(rng.sample(range(1, denom), cake_atoms - 1)) if cake_atoms > 1 else []
        points = [Fraction(0)] + [Fraction(p, denom) * c for p in ticks] + [c]
        base_atoms = list(zip(points, points[1:]))
    elif c != 0:
        raise DomainError(f"cake_length must be 0 when no cake atoms are requested, got {c}")
    else:
        base_atoms = []
    if not (0 < alpha <= m + c):
        raise DomainError(f"alpha must lie in (0, {m + c}], got {alpha}")
    goods = tuple(f"g{i + 1}" for i in range(m))
    agents: list[Bundle] = []
    for _ in range(n):
        approved_goods = frozenset(g for g in goods if rng.random() < density)
        approved_atoms = [a for a in base_atoms if rng.random() < density]
        agents.append(Bundle(cake=normalize(approved_atoms), goods=approved_goods))
    if all(a.is_empty for a in agents):
        if m > 0:
            agents[0] = Bundle(goods=frozenset({goods[0]}))
        else:
            agents[0] = Bundle(cake=normalize([base_atoms[0]]))
    return Instance(cake_length=c, goods=goods, agents=tuple(agents), alpha=alpha)


CONSTRUCTIONS = {
    "fig1": gen_fig1,
    "prop1": gen_prop1,
    "prop4": gen_prop4,
    "thm4": gen_thm4,
    "thm6": gen_thm6,
    "appendix": gen_appendix,
    "random": gen_random,
}
CONSTRUCTION_NAMES = tuple(CONSTRUCTIONS)


def gen_construction(spec: ConstructionSpec) -> tuple[Instance, dict]:
    """Build the named construction from exactly its generator's parameters,
    the generator's own defaults filling in the rest.  Only ``random`` takes
    ``spec.seed``; it returns metadata naming the construction and the seed."""
    build = CONSTRUCTIONS.get(spec.name)
    if build is None:
        raise ConstructionParameterError(
            f"unknown construction {spec.name!r}; expected one of {CONSTRUCTION_NAMES}"
        )
    if "seed" in spec.parameters or (spec.seed is not None and spec.name != "random"):
        raise ConstructionParameterError(
            f"construction {spec.name!r}: only random takes a seed, as the spec's seed (--seed)"
        )
    params = dict(spec.parameters)
    if spec.seed is not None:
        params["seed"] = spec.seed
    try:
        bound = inspect.signature(build).bind(**params)
    except TypeError as exc:
        raise ConstructionParameterError(f"construction {spec.name!r}: {exc}") from None
    if spec.name != "random":
        return build(**params)
    bound.apply_defaults()
    return build(**params), {"construction": "random", "seed": bound.arguments["seed"]}
