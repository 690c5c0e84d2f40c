"""Allocation rules for mixed-goods instances."""

from ..core import achievable_exact_size
from .greedy import GreedyRound, GreedyTrace, canonical_witness, greedy_ejr_m
from .mes import PaymentLedger, Purchase, generalized_mes, mes_price
from .mnw import mnw_indivisible
from .pav import PavSolution, concave_cake_opt, generalized_pav

__all__ = [
    "GreedyRound",
    "GreedyTrace",
    "achievable_exact_size",
    "canonical_witness",
    "greedy_ejr_m",
    "PaymentLedger",
    "Purchase",
    "generalized_mes",
    "mes_price",
    "mnw_indivisible",
    "PavSolution",
    "concave_cake_opt",
    "generalized_pav",
]
