"""Construction generators: structure checks and parameter validation."""

import inspect
import re
from fractions import Fraction as F

import pytest

from mixvote import ConstructionSpec, gen_construction, gen_random
from mixvote.errors import ConstructionParameterError, DomainError
from mixvote.core import instance_digest
from mixvote.generate import (
    CONSTRUCTIONS,
    gen_appendix,
    gen_fig1,
    gen_prop1,
    gen_prop4,
    gen_thm4,
    gen_thm6,
)


class TestFig1:
    def test_exact_fields(self):
        inst, meta = gen_fig1()
        assert (inst.n, inst.m) == (2, 2)
        assert inst.cake_length == F(9, 10)
        assert inst.alpha == 2
        assert inst.agents[0].goods == frozenset({"g1"})
        assert inst.agents[1].goods == frozenset({"g2"})
        assert inst.agents[0].cake == inst.full_cake()


class TestProp1:
    def test_disjoint_singletons(self):
        inst, meta = gen_prop1(F(1, 2), 4)
        assert (inst.n, inst.m, inst.alpha) == (4, 4, F(2))
        seen = set()
        for a in inst.agents:
            assert len(a.goods) == 1
            seen |= a.goods
        assert len(seen) == 4

    def test_non_integral_alpha_rejected(self):
        with pytest.raises(ConstructionParameterError):
            gen_prop1(F(1, 2), 5)

    def test_beta_prime_range(self):
        with pytest.raises(ConstructionParameterError):
            gen_prop1(F(3, 2), 4)


class TestProp4:
    def test_gamma_three_structure(self):
        inst, meta = gen_prop4(1)
        assert (inst.n, inst.m, inst.alpha) == (12, 6, F(4))
        block = frozenset({"g1", "g2", "g3"})
        assert all(inst.agents[i].goods == block for i in range(9))
        assert inst.agents[9].goods == frozenset({"g4"})
        assert inst.agents[11].goods == frozenset({"g6"})
        assert meta["target_group"] == list(range(9))

    def test_beta_validation(self):
        with pytest.raises(ConstructionParameterError):
            gen_prop4(0)


class TestThm4:
    def test_t2_n32_structure(self):
        inst, meta = gen_thm4(F(2), 32, F(1, 100), F(1, 4))
        assert inst.n == 32
        assert inst.cake_length == 4
        assert inst.alpha == 2
        # agents below ceil(n/alpha) approve [0, t]; the rest grow linearly
        assert inst.agents[0].cake.intervals == ((F(0), F(2)),)
        assert inst.agents[15].cake.intervals == ((F(0), F(2) + F(1, 100)),)
        assert inst.agents[31].cake.intervals == ((F(0), F(3) + F(1, 100)),)
        assert meta["average_satisfaction"] == "867/3200"

    def test_closing_inequality_enforced(self):
        with pytest.raises(ConstructionParameterError, match="closing inequality"):
            gen_thm4(F(2), 4, F(1, 100), F(1, 100))

    def test_delta_range(self):
        with pytest.raises(ConstructionParameterError):
            gen_thm4(F(2), 32, F(3, 2), F(1, 4))


class TestThm6:
    def test_half_integer_tiers(self):
        inst, meta = gen_thm6(F(5, 2), 20, F(8, 25))
        assert (inst.n, inst.m, inst.alpha) == (20, 6, F(4))
        # tier sizes from the construction: |N_0|=4, |N_1|=5, |N_2|=4,
        # dummies |D_1|=1, |D_2|=6; goods: 3 main + 1 + 2 dummy
        main = frozenset({"g1", "g2", "g3"})
        sizes = {}
        for agent in inst.agents:
            key = tuple(inst.sorted_goods(agent.goods))
            sizes[key] = sizes.get(key, 0) + 1
        assert sizes[tuple(sorted(main))] == 4
        assert sizes[("g1", "g2", "g3", "d1_1")] == 5
        assert sizes[("g1", "g2", "g3", "d2_1", "d2_2")] == 4
        assert sizes[("d1_1",)] == 1
        assert sizes[("d2_1", "d2_2")] == 6
        assert len(meta["script"]) == 2
        assert meta["average_satisfaction"] == "1"
        assert meta["degree_bound"] == "4/5"

    def test_case_two_low_t(self):
        inst, meta = gen_thm6(F(3, 2), 8, F(1, 2))
        assert inst.alpha == 2
        assert len(meta["script"]) == 1

    def test_multiple_of_alpha_required(self):
        with pytest.raises(ConstructionParameterError, match="multiple"):
            gen_thm6(F(5, 2), 18, F(1, 2))

    def test_ceiling_condition_reported(self):
        # t = 5/2 with n = 2 * alpha = 8 gives ceil(r/2) = 1 <= r - 1 = 1: ok;
        # but eps too small trips the closing inequality with its exact slack
        with pytest.raises(ConstructionParameterError, match="closing inequality"):
            gen_thm6(F(5, 2), 8, F(1, 100))


class TestAppendix:
    def test_spec_parameters(self):
        inst, meta = gen_appendix(F(3, 2), F(1, 4), F(1, 4), 4)
        assert (inst.n, inst.m) == (7, 4)
        assert inst.alpha == F(7, 4)
        groups = meta["cohesive_groups"]
        assert all(len(g) == 6 for g in groups.values())
        # the five all-approving agents plus one holdout per block
        assert meta["bound"] == "11/12"

    def test_gamma_must_fit(self):
        with pytest.raises(ConstructionParameterError):
            gen_appendix(F(3, 2), F(1, 4), F(1, 2), 4)  # gamma >= 1 - frac(t)

    def test_denominator_compatibility(self):
        with pytest.raises(ConstructionParameterError):
            gen_appendix(F(3, 2), F(1, 4), F(1, 3), 4)


class TestRandom:
    def test_deterministic(self):
        a = gen_random(n=4, m=3, cake_atoms=2, alpha=F(2), density=0.5, seed=42)
        b = gen_random(n=4, m=3, cake_atoms=2, alpha=F(2), density=0.5, seed=42)
        assert a == b

    def test_density_one_approves_everything(self):
        inst = gen_random(n=3, m=2, cake_atoms=2, alpha=F(1), density=1.0, seed=1)
        for agent in inst.agents:
            assert agent.goods == frozenset(inst.goods)
            assert agent.cake == inst.full_cake()

    def test_pure_cake_instance(self):
        inst = gen_random(n=3, m=0, cake_atoms=3, alpha=F(1), density=0.6, seed=9)
        assert inst.m == 0
        assert inst.cake_length > 0

    def test_infeasible_alpha(self):
        with pytest.raises(DomainError):
            gen_random(n=2, m=1, cake_atoms=0, alpha=F(3), density=0.5, seed=0)

    def test_someone_approves_something(self):
        inst = gen_random(n=2, m=2, cake_atoms=0, alpha=F(1), density=0.0, seed=0)
        assert any(not a.is_empty for a in inst.agents)

    @pytest.mark.parametrize(
        "density", [-1.0, -1e-300, 1.0 + 1e-15, 2.0, float("nan"), float("inf")]
    )
    def test_density_outside_unit_interval_rejected(self, density):
        with pytest.raises(DomainError, match="density must lie in"):
            gen_random(n=3, m=2, cake_atoms=2, alpha=F(2), density=density, seed=0)

    def test_bool_density_rejected(self):
        with pytest.raises(DomainError, match="^density must be a number, got True$"):
            gen_random(n=3, m=2, cake_atoms=2, alpha=F(2), density=True, seed=0)

    @pytest.mark.parametrize("m, cake_atoms", [(2, -1), (-4, 6), (-1, -1)])
    def test_negative_counts_rejected(self, m, cake_atoms):
        with pytest.raises(DomainError, match="m and cake_atoms must be nonnegative"):
            gen_random(n=3, m=m, cake_atoms=cake_atoms, alpha=F(1), seed=0)

    @pytest.mark.parametrize("field, value, cake_atoms", [
        ("alpha", 0.1, 2), ("alpha", True, 2), ("cake_length", 0.3, 2), ("cake_length", 0.3, 0),
    ])
    def test_inexact_alpha_or_cake_length_rejected(self, field, value, cake_atoms):
        kwargs = {"alpha": F(1, 10), "cake_length": F(3, 10), field: value}
        with pytest.raises(DomainError, match=f"{field} must be an int or a Fraction, got {value!r}"):
            gen_random(n=3, m=2, cake_atoms=cake_atoms, seed=0, **kwargs)

    @pytest.mark.parametrize("seed", [True, 2.5, None, [1]], ids=["bool", "float", "none", "list"])
    def test_seed_not_an_int_rejected(self, seed):
        # True built seed 1's instance, 2.5 another than 2's, None seeded from
        # the operating system and [1] raised a bare TypeError
        with pytest.raises(DomainError, match=rf"^seed must be an int, got {re.escape(repr(seed))}$"):
            gen_random(n=4, m=3, alpha=F(1), seed=seed)

    def test_negative_seed_rejected(self):
        # -5 built seed 5's instance, as random.Random seeds from abs(seed)
        with pytest.raises(DomainError, match=r"^seed must be nonnegative, got -5$"):
            gen_random(n=4, m=3, alpha=F(1), seed=-5)

    @pytest.mark.parametrize("cake_length", [F(5), F(-1, 2)])
    def test_cake_length_without_cake_atoms_rejected(self, cake_length):
        # a cake of length 0 was built whatever length was given
        message = rf"^cake_length must be 0 when no cake atoms are requested, got {cake_length}$"
        with pytest.raises(DomainError, match=message):
            gen_random(n=3, m=2, alpha=F(1), cake_length=cake_length)
        assert gen_random(n=3, m=2, alpha=F(1), cake_length=F(0)).cake_length == 0


def test_dispatcher_names():
    inst, meta = gen_construction(ConstructionSpec("prop4", {"beta": 1}))
    assert meta["construction"] == "prop4"
    inst, meta = gen_construction(
        ConstructionSpec("random", {"n": 3, "m": 2, "alpha": F(1)}, seed=5)
    )
    assert meta["seed"] == 5
    with pytest.raises(ConstructionParameterError):
        gen_construction(ConstructionSpec("nope"))


VALID_PARAMETERS = {
    "prop1": {"beta_prime": F(1, 2), "n": 4},
    "prop4": {"beta": 1},
    "thm4": {"t": F(2), "n": 32, "delta": F(1, 100), "eps": F(1, 4)},
    "thm6": {"t": F(5, 2), "n": 20, "eps": F(8, 25)},
    "appendix": {"t": F(3, 2), "eps": F(1, 4), "gamma": F(1, 4), "q": 4},
    "random": {"n": 3, "m": 2, "cake_atoms": 2, "alpha": F(1), "cake_length": F(1)},
}
GENERATORS = {
    "prop1": gen_prop1,
    "prop4": gen_prop4,
    "thm4": gen_thm4,
    "thm6": gen_thm6,
    "appendix": gen_appendix,
    "random": gen_random,
}
COUNTS = ("n", "m", "cake_atoms", "beta", "q")
INEXACT = [
    (name, field, value)
    for name, parameters in VALID_PARAMETERS.items()
    for field in parameters
    for value in ((2.7, 2.0, True) if field in COUNTS else (0.1, 1.1, True))
]


@pytest.mark.parametrize("name, field, value", INEXACT)
def test_inexact_construction_parameter_rejected(name, field, value):
    """Rationals must be an int or a Fraction and counts an int, never a
    float or a bool, whether the generator is called directly or by name."""
    parameters = dict(VALID_PARAMETERS[name], **{field: value})
    kind = "an int" if field in COUNTS else "an int or a Fraction"
    message = f"^{field} must be {kind}, got {value!r}$"
    with pytest.raises(DomainError, match=message):
        gen_construction(ConstructionSpec(name, parameters))
    with pytest.raises(DomainError, match=message):
        GENERATORS[name](**parameters)


@pytest.mark.parametrize("name", VALID_PARAMETERS)
def test_valid_construction_parameters_build(name):
    inst, _ = gen_construction(ConstructionSpec(name, VALID_PARAMETERS[name]))
    assert inst.n > 0


# instance digests of VALID_PARAMETERS (fig1 with none), pinned before
# gen_construction bound its parameters to the generators' own signatures
PINNED_DIGESTS = {
    "fig1": "50dafe1e3f8eef5667e1d165ecb8e72b366ab65812a2be018c3e1c820b1da66f",
    "prop1": "be000a1a97c2068353cb3346a0b67a04fc7f55f158b1dc1e6e1c69bc8c995ede",
    "prop4": "fbe6708f8fec4ef85171a01237153ec58b7576d696acf17c2f23c1c909484122",
    "thm4": "a5d2467b1e3df263141d8b9ccaffd4fa9f47ae498d84ca3ecf192f472116ce16",
    "thm6": "081abf00cb070b79643cfa6519d190a3ae06bc69ed8c46dd5a25a9ab5d07783c",
    "appendix": "d4fabac2c6566388591803038135ac68b9a88cfdfb12fd75df721ae33b216d07",
    "random": "b4b6ad717819b0431834e3ee4d07e5c054660ea759dbc7029a397dfa8ebe3e9f",
}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_construction_digest_pinned(name):
    inst, _ = gen_construction(ConstructionSpec(name, VALID_PARAMETERS.get(name, {})))
    assert instance_digest(inst) == PINNED_DIGESTS[name]


def test_every_construction_is_dispatched_to_its_generator():
    assert set(CONSTRUCTIONS) == set(PINNED_DIGESTS)
    assert all(CONSTRUCTIONS[name] is build for name, build in GENERATORS.items())


def _not_taken(name):
    """A parameter of some other generator that ``name`` does not take."""
    taken = inspect.signature(CONSTRUCTIONS[name]).parameters
    return next(p for build in CONSTRUCTIONS.values()
                for p in inspect.signature(build).parameters if p not in taken)


def _required(name):
    return [p.name for p in inspect.signature(CONSTRUCTIONS[name]).parameters.values()
            if p.default is inspect.Parameter.empty]


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_parameter_the_generator_does_not_take_rejected(name):
    # fig1 with n=5 built fig1 unchanged, and prop4 took a bogus key
    parameters = dict(VALID_PARAMETERS.get(name, {}), **{_not_taken(name): 7})
    with pytest.raises(
        ConstructionParameterError,
        match=f"^construction '{name}': got an unexpected keyword argument '{_not_taken(name)}'$",
    ):
        gen_construction(ConstructionSpec(name, parameters))


@pytest.mark.parametrize("name, missing", [
    (name, p) for name in PINNED_DIGESTS for p in _required(name)
])
def test_missing_required_parameter_rejected(name, missing):
    parameters = {k: v for k, v in VALID_PARAMETERS[name].items() if k != missing}
    with pytest.raises(
        ConstructionParameterError,
        match=f"^construction '{name}': missing a required argument: '{missing}'$",
    ):
        gen_construction(ConstructionSpec(name, parameters))


@pytest.mark.parametrize("name", [name for name in PINNED_DIGESTS if name != "random"])
def test_seed_goes_with_random_only(name):
    with pytest.raises(ConstructionParameterError, match="only random takes a seed"):
        gen_construction(ConstructionSpec(name, VALID_PARAMETERS.get(name, {}), seed=3))


def test_random_takes_the_generators_defaults_and_the_spec_seed():
    inst, meta = gen_construction(ConstructionSpec("random", {"n": 4, "m": 3, "alpha": F(2)}, seed=9))
    assert inst == gen_random(4, 3, alpha=F(2), seed=9)
    assert meta == {"construction": "random", "seed": 9}
    _, meta = gen_construction(ConstructionSpec("random", {"n": 4, "m": 3, "alpha": F(2)}))
    assert meta == {"construction": "random", "seed": 0}
    # the seed is the spec's, never a parameter
    with pytest.raises(ConstructionParameterError, match="only random takes a seed"):
        gen_construction(ConstructionSpec("random", dict(VALID_PARAMETERS["random"], seed=3)))
