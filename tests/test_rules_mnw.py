"""Nash-welfare enumeration tests."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from mixvote import Bundle, Instance, gen_random, mnw_indivisible, normalize
from mixvote.errors import UnsupportedInstanceError
from mixvote.generate import gen_prop4


def test_prop4_structure():
    inst, meta = gen_prop4(beta=1)
    assert (inst.n, inst.m, inst.alpha) == (12, 6, F(4))
    results = mnw_indivisible(inst)
    got = {tuple(inst.sorted_goods(b.goods)) for b in results}
    assert got == {
        ("g1", "g4", "g5", "g6"),
        ("g2", "g4", "g5", "g6"),
        ("g3", "g4", "g5", "g6"),
    }


def test_single_universal_good():
    inst = Instance(
        cake_length=F(0),
        goods=("g1",),
        agents=tuple(Bundle(goods=frozenset({"g1"})) for _ in range(3)),
        alpha=F(1),
    )
    results = mnw_indivisible(inst)
    assert [b.goods for b in results] == [frozenset({"g1"})]


def test_symmetric_tie_returns_both():
    inst = Instance(
        cake_length=F(0),
        goods=("g1", "g2"),
        agents=(
            Bundle(goods=frozenset({"g1"})),
            Bundle(goods=frozenset({"g2"})),
        ),
        alpha=F(1),
    )
    results = mnw_indivisible(inst)
    assert {frozenset(b.goods) for b in results} == {
        frozenset({"g1"}),
        frozenset({"g2"}),
    }


def test_positive_coverage_beats_product():
    # covering a second agent wins even when it shrinks nobody's utility
    inst = Instance(
        cake_length=F(0),
        goods=("g1", "g2", "g3"),
        agents=(
            Bundle(goods=frozenset({"g1", "g2"})),
            Bundle(goods=frozenset({"g3"})),
        ),
        alpha=F(2),
    )
    results = mnw_indivisible(inst)
    for b in results:
        assert "g3" in b.goods


# sha256 of every optimal goods list, in the returned order, over 96
# seeded indivisible instances (m = 1..8, n = 3, 6, 10; 21 have ties)
GOLDEN_MNW = "657cedc7bcddace8cd620dbbeb65150440c4ef6944ef90dc10aac630361d5c59"


def test_golden_mnw():
    digest = hashlib.sha256()
    for m in range(1, 9):
        for n in (3, 6, 10):
            for seed in range(4):
                inst = gen_random(
                    n=n, m=m, cake_atoms=0, alpha=F(m * (1 + seed), 4),
                    density=0.25 + 0.15 * seed, seed=seed,
                )
                optima = [inst.sorted_goods(b.goods) for b in mnw_indivisible(inst)]
                digest.update(json.dumps(optima).encode())
    assert digest.hexdigest() == GOLDEN_MNW


def test_cake_instance_rejected():
    inst = Instance(
        cake_length=F(1),
        goods=(),
        agents=(Bundle(cake=normalize([(F(0), F(1))])),),
        alpha=F(1),
    )
    with pytest.raises(UnsupportedInstanceError):
        mnw_indivisible(inst)
