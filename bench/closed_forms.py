"""closed-forms: an in-process stream of closed-form queries on prisms.

24 prism sizes spread log-uniformly from 100 to 20000: an even log grid
whose points the seed moves by up to 5% of a grid step, the largest always
20000 so that the sequence cache reaches the same length on every seed.
Each size is queried eight times per round: the Kirchhoff index, three exact
and two float resistances between random vertices, the spanning-tree count
and one resistance by the ladder-reduction route.  Two all-pairs tables
(one exact, one float) of 44 to 48 rungs complete the round.  Sizes and
table sizes vary little with the seed because the cost of a query grows
faster than linearly in n: wider draws made the cost of a round, and the
query at its median, depend on the seed.
"""

from __future__ import annotations

import random

import reference as ref
from workload import Op, Workload, log_grid

SIZES = (100, 20000, 24)
SIZE_JITTER = 0.05
TABLE_SIZES = (44, 48)


def _vertex(rng: random.Random, n: int) -> str:
    return f"{rng.choice('pq')}{rng.randint(1, n)}"


class ClosedForms(Workload):
    def __init__(self, seed: int):
        import prismres

        self.pkg = prismres
        rng = random.Random(seed)
        ops = []
        for n in log_grid(*SIZES, rng, SIZE_JITTER):
            ops.append(Op("kirchhoff_closed", (n,)))
            ops += [Op("resistance_exact", (n, _vertex(rng, n), _vertex(rng, n))) for _ in range(3)]
            ops += [Op("resistance_float", (n, _vertex(rng, n), _vertex(rng, n))) for _ in range(2)]
            ops.append(Op("spanning_tree_count", (n,)))
            ops.append(Op("resistance_via_reduction",
                          (n, rng.randint(2, n), rng.choice(("pp", "pq")))))
        lo, hi = TABLE_SIZES
        ops.append(Op("table_exact", (rng.randint(lo, hi),)))
        ops.append(Op("table_float", (rng.randint(lo, hi),)))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op: Op):
        p = self.pkg
        k, a = op.kind, op.args
        if k == "kirchhoff_closed":
            return p.kirchhoff_closed(*a)
        if k == "resistance_exact":
            return p.prism_resistance(*a, "exact")
        if k == "resistance_float":
            return p.prism_resistance(*a, "float")
        if k == "spanning_tree_count":
            return p.prism_spanning_tree_count(*a)
        if k == "resistance_via_reduction":
            return p.prism_resistance_via_reduction(*a)
        if k == "table_exact":
            return p.resistance_table(*a, "exact")
        return p.resistance_table(*a, "float")

    def check(self, op: Op, out) -> str | None:
        k, a = op.kind, op.args
        what = f"{k}{a}"
        if k == "kirchhoff_closed":
            op.ref = op.ref or ref.kirchhoff(*a)
            return ref.check_exact(out, op.ref, what)
        if k in ("resistance_exact", "resistance_float"):
            op.ref = op.ref if op.ref is not None else ref.prism_pair_resistance(*a)
            if k == "resistance_exact":
                return ref.check_exact(out, op.ref, what)
            if op.ref == 0:
                return None if out == 0.0 else f"{what}: got {out!r}, want 0"
            return ref.check_float(out, float(op.ref), what)
        if k == "spanning_tree_count":
            op.ref = op.ref or ref.tree_count(*a)
            if not isinstance(out, int) or out != op.ref:
                return f"{what}: wrong count"
            return None
        if k == "resistance_via_reduction":
            op.ref = op.ref or ref.base_resistance(*a)
            return ref.check_exact(out, op.ref, what)
        op.ref = op.ref or ref.base_table(*a)
        return ref.check_table(out, a[0], op.ref, exact=(k == "table_exact"))
