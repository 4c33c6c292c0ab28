"""Seeded verification plans for the benchmark workloads.

Each workload is a fixed list of plan shapes (theorem, group, mode, policy and
sample size), one round. The workload seed and the round's index fill in the
random parts: plan seeds and the elements of fixed generator lists. So the
same (workload, seed) gives byte-identical plan JSON, each round draws fresh
random sets, and every round does the same amount of work up to those draws.
The program under test sees only these JSON texts.

Random-generating policies use counts for which a generating (and, where
asked, independent) sequence exists: ``draw_generating_seq`` retries without
limit, so an infeasible count would never return and could not be timed.
"""

from __future__ import annotations

import json
import random
from itertools import product
from math import prod

STANDARD = {"policy": "standard-basis"}


def _random_gens(count: int, sets: int = 1, independent: bool = False) -> dict:
    return {"policy": "random-generating", "count": count, "sets": sets, "independent": independent}


def _plan(theorem: str, rng: random.Random, *, moduli=None, mode="exhaustive", sample_size=0,
          generators=STANDARD, gammas=(), box=(), dim_cap=24) -> dict:
    plan = {
        "theorem": theorem,
        "mode": mode,
        "sample_size": sample_size,
        "seed": rng.getrandbits(63),
        "generators": generators,
        "allow_large": False,
        "dim_cap": dim_cap,
    }
    if moduli is not None:
        plan["group"] = {"moduli": list(moduli)}
    if gammas:
        plan["gammas"] = list(gammas)
    if box:
        plan["box"] = list(box)
    return plan


def _fixed_list(rng: random.Random, moduli, count: int) -> dict:
    nonzero = [list(c) for c in product(*(range(m) for m in moduli)) if any(c)]
    return {"policy": "fixed-list", "elements": rng.sample(nonzero, count)}


def exhaustive_small(rng: random.Random) -> list[dict]:
    """Every non-empty subset of groups with |G| <= 16: 37 plans, about 9 s."""
    c2_4, c4_2, c2_8, c3_2 = (2, 2, 2, 2), (4, 4), (2, 8), (3, 3)
    plans = []
    for theorem in ("bl-bound", "exp234"):
        plans += [_plan(theorem, rng, moduli=c2_4), _plan(theorem, rng, moduli=c4_2)]
        plans += [_plan(theorem, rng, moduli=c2_4, generators=_random_gens(4)) for _ in range(3)]
        plans += [_plan(theorem, rng, moduli=c4_2, generators=_random_gens(k)) for k in (2, 2, 3, 3)]
    plans += [_plan("generalcase", rng, moduli=c2_8), _plan("generalcase", rng, moduli=c4_2)]
    plans += [_plan("generalcase", rng, moduli=c2_8, generators=_random_gens(2, independent=True))
              for _ in range(3)]
    plans += [_plan("cosetdecomp", rng, moduli=c2_4, generators=_fixed_list(rng, c2_4, k)) for k in (1, 2, 3, 4)]
    # five random bases per plan: 5 * 3**4 subcube equality witnesses. These
    # four plans and the C3^2 one below are the 90th-percentile group.
    plans += [_plan("bl-bound", rng, moduli=c2_4, generators=_random_gens(4, sets=5)) for _ in range(4)]
    plans += [
        # unbounded output until witnesses are capped: 999 witnesses, 826 KB
        _plan("cosetdecomp", rng, moduli=c3_2, generators={"policy": "all-subsets"}),
        _plan("claims-compression", rng, moduli=c2_4),
        _plan("claims-compression", rng, moduli=c4_2),
        _plan("avweight", rng, box=(2, 2, 2)),
        _plan("avweight", rng, box=(3, 2, 2)),
        _plan("avweight", rng, box=(1, 1, 1, 1)),
    ]
    return plans


def sample_large(rng: random.Random) -> list[dict]:
    """Dense random sets on a ladder of orders 2**10 .. 2**14: 36 plans, about 8 s.

    2**16 is left out: one case there costs 4-7 s, so a run of a few tens of
    seconds could not hold the 100 plans that the 90th percentile needs.
    """
    def sample(theorem, moduli, n, generators=STANDARD):
        return _plan(theorem, rng, moduli=moduli, mode="sample", sample_size=n, generators=generators)

    c2_10, c4_5, c4_6, c2_13, c2_14, c4_7 = (2,) * 10, (4,) * 5, (4,) * 6, (2,) * 13, (2,) * 14, (4,) * 7
    return [
        # |G| = 2**10 with byte tables, about 0.06 s per plan
        sample("exp234", c4_5, 8),
        sample("exp234", c4_5, 8),
        sample("bl-bound", c4_5, 8),
        sample("bl-bound", c4_5, 8),
        sample("exp234", c4_5, 4, _random_gens(5)),
        sample("bl-bound", c4_5, 4, _random_gens(5)),
        # homocyclic, so a generating draw of rank size is independent and about
        # 30% of draws are accepted; on C2 x C4 x C8 x C16 acceptance is rare
        # enough that one plan's time varied 0.14-0.82 s with the seed
        sample("generalcase", c4_5, 4, _random_gens(5, independent=True)),
        sample("generalcase", c4_5, 4, _random_gens(5, independent=True)),
        sample("claims-compression", c4_5, 2),
        sample("generalcase", (2, 4, 8, 16), 8),
        sample("generalcase", (2, 4, 8, 16), 8),
        # C2^10, about 0.12 s per plan; the median plan lies in this group
        *(sample(theorem, c2_10, 8) for theorem in ("exp234", "bl-bound", "exp234", "bl-bound", "exp234")),
        *(sample(theorem, c2_10, 4, _random_gens(10)) for theorem in ("exp234", "bl-bound", "exp234", "bl-bound")),
        # about 0.17 s per plan
        sample("claims-compression", c2_10, 2),
        sample("generalcase", (2, 8, 8, 16, 8), 1),
        sample("generalcase", (8, 8, 16, 16), 1),
        # about 0.3 s per plan: whole-mask translation without byte tables
        sample("exp234", c2_13, 2),
        sample("bl-bound", c2_13, 2),
        sample("exp234", c4_7, 1),
        sample("bl-bound", c4_7, 1),
        sample("generalcase", (4, 8, 8, 16), 1),
        # about 0.5 s per plan; the 90th percentile lies in this group
        sample("generalcase", (2, 2, 4, 4, 4, 16), 1),
        sample("exp234", c2_14, 1),
        sample("exp234", c2_14, 1),
        sample("bl-bound", c2_14, 1),
        sample("bl-bound", c2_14, 1),
        sample("exp234", c4_6, 2),
        sample("bl-bound", c4_6, 2),
        # about 1 s: twelve generators' byte tables at |G| = 4096
        sample("exp234", (2,) * 12, 2),
    ]


def analytics_sample(rng: random.Random) -> list[dict]:
    """Sampled popular-difference and projection checks: 22 plans, about 4 s.

    dim_cap is |G|, so a popular set can never exceed the dimension-search cap.
    C2^6 runs without gamma = 1/2: there 1% of random sets take 82% of the
    dimension-search time (up to 1 s for one set), a tail that no run of tens
    of seconds averages out, so the workload's figures would follow the seed.
    """
    all_gammas = ("1/4", "1/2", "1")

    def repa(moduli, n, gammas=all_gammas):
        return _plan("repa", rng, moduli=moduli, mode="sample", sample_size=n, gammas=gammas,
                     dim_cap=prod(moduli))

    def lwplus(box, n):
        return _plan("lwplus", rng, mode="sample", sample_size=n, box=box)

    return [
        *(lwplus((4, 4, 4), 100) for _ in range(2)),
        *(repa((2,) * 6, 40, ("1/4", "1")) for _ in range(4)),
        # elementary, 0.15 ms per case; the median plan lies in this group
        *(repa((3,) * 3, 80) for _ in range(8)),
        *(repa((2,) * 5, 40) for _ in range(4)),
        # the 90th percentile lies in this group
        *(lwplus((3, 3, 3, 3), 300) for _ in range(3)),
        # mixed, about 18 ms per case: half of the workload's time
        repa((2, 4, 4), 48),
    ]


WORKLOADS = {
    "exhaustive-small": exhaustive_small,
    "sample-large": sample_large,
    "analytics-sample": analytics_sample,
}


def generate(workload: str, seed: int, rounds: int) -> list[list[str]]:
    """The plans of each round as JSON texts, determined by (workload, seed)."""
    return [
        [json.dumps(plan, sort_keys=True) for plan in WORKLOADS[workload](random.Random(f"{workload}/{seed}/{r}"))]
        for r in range(rounds)
    ]
