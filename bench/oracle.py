"""oracle-exact and oracle-float: one question per network JSON document.

A round has 48 requests (oracle-float adds its four fault cases).  The
networks are prisms, ladders and seeded random connected graphs (a random
recursive spanning tree plus N/2 random edges) in turn, at orders spaced
evenly on a log scale; each network is asked one (exact) or two (float)
questions, each question equally often of each kind.
Each request parses its document and pays for its own factorization, as a
`net` command does.  The orders are fixed and only structure, resistances,
scales, pairs and terminals come from the seed: the cost of a request grows
like the cube of the order or faster, so drawing orders from the seed would
make the cost of a round, and the request at its median, depend on the seed.
48 requests keep neighbouring costs close, so that the median and the 90th
percentile do not jump between requests of very different cost.

oracle-exact: orders 10 to 32, exact rational resistances; questions are one
resistance, the Kirchhoff index, a Kron reduction onto four terminals and the
spanning-tree count.  The prisms and ladders of the upper half of the orders
are scaled by a rational c and checked against c times the reference of the
unscaled network.

oracle-float: orders 200 to 1500 in binary64; questions are a batch of 100
random pairs, a batch of every edge (checked by Foster's theorem as well),
the Kirchhoff index and a Kron reduction onto six terminals.  Prisms and
ladders are scaled by c in [1e-2, 1e2].  Four known faults of the float
oracle run once per round on fixed inputs (FLOAT_FAULTS).
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref
from workload import Op, Workload, log_grid

KINDS = ("prism", "ladder", "random")


def prism_edges(n: int):
    """Vertices p1..pn = 0..n-1 and q1..qn = n..2n-1; unit cycles and rungs."""
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(i, j, 1), (n + i, n + j, 1), (i, n + i, 1)]
    return [f"p{i}" for i in range(1, n + 1)] + [f"q{i}" for i in range(1, n + 1)], edges


def ladder_edges(n: int):
    edges = [(i, n + i, 1) for i in range(n)]
    edges += [(i, i + 1, 1) for i in range(n - 1)]
    edges += [(n + i, n + i + 1, 1) for i in range(n - 1)]
    return [f"p{i}" for i in range(1, n + 1)] + [f"q{i}" for i in range(1, n + 1)], edges


def random_edges(order: int, rng: random.Random, draw_r):
    edges = [(i, rng.randrange(i), draw_r()) for i in range(1, order)]
    for _ in range(order // 2):
        i, j = rng.sample(range(order), 2)
        edges.append((i, j, draw_r()))
    return [f"v{i}" for i in range(order)], edges


class BaseNet:
    """A generated network: labels, unscaled edges, the scale c applied to
    every resistance in the request document, and the document itself."""

    def __init__(self, labels, edges, scale, encode):
        self.labels = labels
        self.edges = edges
        self.scale = scale
        self.index = {v: k for k, v in enumerate(labels)}
        self.doc = {"vertices": labels,
                    "edges": [{"u": labels[i], "v": labels[j], "r": encode(r * scale)}
                              for i, j, r in edges]}
        self.reference = None


class _Oracle(Workload):
    networks: int
    asks: int
    orders: tuple[int, int]
    questions: tuple[str, str, str, str]

    def __init__(self, seed: int):
        import prismres

        self.pkg = prismres
        rng = random.Random(seed)
        ops = []
        for k, order in enumerate(log_grid(*self.orders, self.networks, rng)):
            kind = KINDS[k % 3]
            if kind == "random":
                labels, edges = random_edges(order, rng, lambda: self.draw_r(rng))
                scale = 1
            else:
                labels, edges = (prism_edges if kind == "prism" else ladder_edges)(order // 2)
                scale = self.draw_scale(rng) if self.scaled(k) else 1
            net = BaseNet(labels, edges, scale, self.encode)
            for j in range(self.asks):
                question = self.questions[(k + 2 * j) % 4]
                ops.append(Op(question, (question, net, self.argument(question, net, rng))))
        ops += self.faults()
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op: Op):
        p = self.pkg
        question, net, arg = op.args
        network = p.network_from_json(net.doc)
        if question in ("resistance", "pairs", "edges"):
            return [p.resistance_oracle(network, u, v) for u, v in arg]
        if question == "kirchhoff":
            return p.kirchhoff_oracle(network)
        if question == "kron":
            reduced = p.kron_reduce(network, arg)
            return list(reduced.vertices), list(reduced.edges)
        return p.matrix_tree_count(network)


class OracleExact(_Oracle):
    networks = 48
    asks = 1
    orders = (10, 32)
    questions = ("resistance", "kirchhoff", "kron", "spantrees")

    @staticmethod
    def draw_r(rng):
        return Fraction(rng.randint(1, 5), rng.randint(1, 3))

    @staticmethod
    def draw_scale(rng):
        # numerators and denominators of one size, so c hardly moves the cost
        return Fraction(rng.choice((5, 7)), rng.choice((2, 3)))

    @staticmethod
    def encode(r):
        r = Fraction(r)
        return r.numerator if r.denominator == 1 else str(r)

    def scaled(self, k: int) -> bool:
        return k >= self.networks // 2

    @staticmethod
    def argument(question: str, net: BaseNet, rng: random.Random):
        if question == "resistance":
            return [tuple(rng.sample(net.labels, 2))]
        if question == "kron":
            return rng.sample(net.labels, 4)
        return None

    def faults(self):
        return []

    def check(self, op: Op, out) -> str | None:
        question, net, arg = op.args
        if net.reference is None:
            net.reference = ref.ExactNetwork(len(net.labels), net.edges)
        r, c, ix = net.reference, Fraction(net.scale), net.index
        what = f"{question} on order {len(net.labels)}"
        if question == "resistance":
            (u, v), = arg
            return ref.check_exact(out[0], c * r.resistance(ix[u], ix[v]), f"{what} r({u},{v})")
        if question == "kirchhoff":
            return ref.check_exact(out, c * r.kirchhoff(), what)
        if question == "kron":
            keep_ix = [ix[v] for v in arg]
            return ref.check_kron(out[0], out[1], arg,
                                  lambda a, b: c * r.resistance(keep_ix[a], keep_ix[b]), exact=True)
        return ref.check_exact(out, r.tree_weight / c ** (len(net.labels) - 1), what)


# The float oracle's scale faults: relative pivot and absolute Schur drop
# thresholds in network.py.  Inputs are fixed, so each fails on every run.
def _path(rs):
    return [f"v{i}" for i in range(len(rs) + 1)], [(i, i + 1, r) for i, r in enumerate(rs)]


FLOAT_FAULTS = (
    ("float-path-1e13-disconnected", _path([1e13, 1e13]), "pairs", [("v0", "v2")]),
    ("float-mixed-path-disconnected", _path([1e-7, 1e7]), "pairs", [("v0", "v2")]),
    ("float-kron-1e12-drops-edge", _path([1e12, 1e12]), "kron", ["v0", "v2"]),
    ("float-prism20-1e12-inaccurate", None, "pairs", [("p1", "q7"), ("p1", "p11")]),
)


class OracleFloat(_Oracle):
    # two questions per network halve the reference pseudoinverses
    networks = 24
    asks = 2
    orders = (200, 1500)
    questions = ("pairs", "edges", "kirchhoff", "kron")
    defer_checks = True
    probe = "python+blas"

    @staticmethod
    def draw_r(rng):
        return rng.uniform(0.5, 5.0)

    @staticmethod
    def draw_scale(rng):
        return 10.0 ** rng.uniform(-2.0, 2.0)

    @staticmethod
    def encode(r):
        return float(r)

    def scaled(self, k: int) -> bool:
        return True

    @staticmethod
    def argument(question: str, net: BaseNet, rng: random.Random):
        labels = net.labels
        if question == "pairs":
            return [tuple(rng.sample(labels, 2)) for _ in range(100)]
        if question == "edges":
            return [(labels[i], labels[j]) for i, j, _ in net.edges]
        if question == "kron":
            return rng.sample(labels, 6)
        return None

    def faults(self):
        ops = []
        for name, shape, question, arg in FLOAT_FAULTS:
            if shape is None:
                labels, edges = prism_edges(20)
                net = BaseNet(labels, edges, 1e12, self.encode)
            else:
                net = BaseNet(*shape, 1.0, self.encode)
            ops.append(Op(question, (question, net, arg), fault=name))
        return ops

    def reference_pinv(self, net: BaseNet):
        if net.reference is None:
            net.reference = ref.float_pinv(len(net.labels), net.edges)
        return net.reference

    def want(self, op: Op, u: str, v: str) -> float:
        """Reference resistance: analytic for the fixed fault inputs, else
        c times numpy.linalg.pinv of the unscaled network."""
        _, net, _ = op.args
        i, j = net.index[u], net.index[v]
        if op.fault is None:
            return net.scale * ref.pinv_resistance(self.reference_pinv(net), i, j)
        if net.labels[0] == "p1":
            return net.scale * float(ref.prism_pair_resistance(len(net.labels) // 2, u, v))
        lo, hi = sorted((i, j))
        return sum(r for a, _, r in net.edges[lo:hi])

    def check(self, op: Op, out) -> str | None:
        question, net, arg = op.args
        what = f"{question} on order {len(net.labels)}"
        if question in ("pairs", "edges"):
            for (u, v), got in zip(arg, out):
                why = ref.check_float(got, self.want(op, u, v), f"{what} r({u},{v})")
                if why:
                    return why
            if question == "edges":
                scaled = [(i, j, r * net.scale) for i, j, r in net.edges]
                return ref.check_foster(out, scaled, len(net.labels))
            return None
        if question == "kirchhoff":
            want = net.scale * ref.pinv_kirchhoff(self.reference_pinv(net))
            return ref.check_float(out, want, what)
        return ref.check_kron(out[0], out[1], arg,
                              lambda a, b: self.want(op, arg[a], arg[b]), exact=False)
