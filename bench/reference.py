"""Reference computations and output checks, written apart from prismres.

Nothing here imports prismres.  The closed forms use one integer kernel:
binary powering over Z gives (2+sqrt3)^k = u_k + a_k*sqrt3, and with it

    Kirchhoff(n) = n(n^2-1)/6 + n^2 a_n / (u_n - 1)
    tau(n)       = n (u_n - 1)
    r(p1,p_i), r(p1,q_i) = (n-i+1)(i-1)/(2n) + a_n/(2(u_n-1))
                           -/+ [a_n (u_m + u_l) / (4(u_n-1)) - (a_m + a_l)/4]

with m = n-i+1 and l = i-1.  Networks are checked against a grounded
Gauss-Jordan inverse over Fraction (exact) or numpy.linalg.pinv (float),
plus properties every correct answer has: Foster's theorem, resistances kept
by a Kron reduction, scale invariance, symmetric tables whose rows sum to
Kirchhoff/n.

Every check_* function returns None for a correct answer and a one-line
reason otherwise.  Exact values are compared as Fractions, never as strings.
"""

from __future__ import annotations

import math
from fractions import Fraction

# relative tolerance for binary64 answers.  The float networks here have
# Laplacian condition numbers below about 1e6, so a backward-stable solver is
# off by at most ~1e6 * 1.1e-16 ~ 1e-10 relative; 1e-8 leaves a margin of 100.
FLOAT_REL_TOL = 1e-8


# ---------------------------------------------------------------------------
# the integer kernel for prisms


def pow23(k: int) -> tuple[int, int]:
    """(u, a) with (2 + sqrt3)^k = u + a*sqrt3, by binary powering over Z."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    u, a = 1, 0
    bu, ba = 2, 1
    while k:
        if k & 1:
            u, a = u * bu + 3 * a * ba, u * ba + a * bu
        bu, ba = bu * bu + 3 * ba * ba, 2 * bu * ba
        k >>= 1
    return u, a


def powers23(n: int) -> list[tuple[int, int]]:
    """[(u_k, a_k) for k = 0..n], one multiply by 2 + sqrt3 per step."""
    out = [(1, 0)]
    u, a = 1, 0
    for _ in range(n):
        u, a = 2 * u + 3 * a, u + 2 * a
        out.append((u, a))
    return out


def kirchhoff(n: int) -> Fraction:
    u, a = pow23(n)
    return Fraction(n * (n * n - 1), 6) + Fraction(n * n * a, u - 1)


def tree_count(n: int) -> int:
    return n * (pow23(n)[0] - 1)


def _base(n: int, i: int, kind: str, un, an, um, am, ul, al) -> Fraction:
    flat = Fraction((n - i + 1) * (i - 1), 2 * n) + Fraction(an, 2 * (un - 1))
    tail = Fraction(an * (um + ul), 4 * (un - 1)) - Fraction(am + al, 4)
    return flat - tail if kind == "pp" else flat + tail


def base_resistance(n: int, i: int, kind: str) -> Fraction:
    """r(p1, p_i) for kind "pp", r(p1, q_i) for kind "pq", 1 <= i <= n."""
    if not 1 <= i <= n or kind not in ("pp", "pq"):
        raise ValueError(f"bad base pair n={n} i={i} kind={kind!r}")
    return _base(n, i, kind, *pow23(n), *pow23(n - i + 1), *pow23(i - 1))


def base_table(n: int) -> dict[str, list[Fraction]]:
    """{"pp": [r(p1,p_i)], "pq": [r(p1,q_i)]} for i = 1..n, list index i - 1."""
    pw = powers23(n)
    un, an = pw[n]
    return {kind: [_base(n, i, kind, un, an, *pw[n - i + 1], *pw[i - 1])
                   for i in range(1, n + 1)] for kind in ("pp", "pq")}


def parse_vertex(label: str) -> tuple[str, int]:
    return label[0], int(label[1:])


def base_pair(n: int, u: str, v: str) -> tuple[int, str] | None:
    """The base pair (i, kind) of prism vertices u, v; None when u == v.

    Rotations and the reflection swapping the rings are symmetries, so a pair
    on one ring depends only on the offset between positions, and a pair
    across rings only on the offset from the p vertex to the q vertex.
    """
    (ru, pu), (rv, pv) = parse_vertex(u), parse_vertex(v)
    if (ru, pu) == (rv, pv):
        return None
    if ru == rv:
        return (pv - pu) % n + 1, "pp"
    if ru == "q":
        pu, pv = pv, pu
    return (pv - pu) % n + 1, "pq"


def prism_pair_resistance(n: int, u: str, v: str) -> Fraction:
    bp = base_pair(n, u, v)
    return Fraction(0) if bp is None else base_resistance(n, *bp)


# ---------------------------------------------------------------------------
# networks: exact grounded inverse and float pseudoinverse


class ExactNetwork:
    """Exact resistances of a connected network by a grounded inverse.

    Vertex 0 is grounded; G is the inverse of the Laplacian with its row and
    column deleted, padded with zeros, so r(i, j) = G_ii + G_jj - 2 G_ij and
    det of the grounded Laplacian is the conductance-weighted tree count.
    """

    def __init__(self, order: int, edges: list[tuple[int, int, Fraction]]):
        self.order = order
        size = order - 1
        lap = [[Fraction(0)] * size for _ in range(size)]
        for i, j, r in edges:
            if i == j:
                continue
            g = 1 / Fraction(r)
            for a, b, s in ((i, i, g), (j, j, g), (i, j, -g), (j, i, -g)):
                if a and b:
                    lap[a - 1][b - 1] += s
        self.G, self.tree_weight = _gauss_jordan(lap)

    def g(self, i: int, j: int) -> Fraction:
        return self.G[i - 1][j - 1] if i and j else Fraction(0)

    def resistance(self, i: int, j: int) -> Fraction:
        return self.g(i, i) + self.g(j, j) - 2 * self.g(i, j)

    def kirchhoff(self) -> Fraction:
        trace = sum((self.G[k][k] for k in range(self.order - 1)), Fraction(0))
        total = sum((x for row in self.G for x in row), Fraction(0))
        return self.order * trace - total


def _gauss_jordan(m: list[list[Fraction]]) -> tuple[list[list[Fraction]], Fraction]:
    """Inverse and determinant over Fraction; first nonzero pivot in each column."""
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("grounded Laplacian is singular: network disconnected")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        p = aug[col][col]
        det *= p
        aug[col] = [x / p for x in aug[col]]
        prow = aug[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return [row[n:] for row in aug], det


def float_pinv(order: int, edges: list[tuple[int, int, float]]):
    """numpy.linalg.pinv of the weighted Laplacian."""
    import numpy as np

    lap = np.zeros((order, order))
    for i, j, r in edges:
        if i == j:
            continue
        g = 1.0 / r
        lap[i, i] += g
        lap[j, j] += g
        lap[i, j] -= g
        lap[j, i] -= g
    return np.linalg.pinv(lap, hermitian=True)


def pinv_resistance(pinv, i: int, j: int) -> float:
    return float(pinv[i, i] + pinv[j, j] - 2.0 * pinv[i, j])


def pinv_kirchhoff(pinv) -> float:
    return float(pinv.shape[0] * pinv.trace() - pinv.sum())


def connected(order: int, pairs) -> bool:
    parent = list(range(order))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        parent[find(i)] = find(j)
    return len({find(x) for x in range(order)}) == 1


# ---------------------------------------------------------------------------
# checks


def close(got: float, want: float, rel: float = FLOAT_REL_TOL) -> bool:
    return isinstance(got, float) and math.isfinite(got) and abs(got - want) <= rel * abs(want)


def check_exact(got, want: Fraction, what: str) -> str | None:
    if isinstance(got, float) or Fraction(got) != want:
        return f"{what}: got {_short(got)}, want {_short(want)}"
    return None


def check_float(got, want: float, what: str, rel: float = FLOAT_REL_TOL) -> str | None:
    if not close(got, want, rel):
        return f"{what}: got {got!r}, want {want!r} within rel {rel}"
    return None


def check_table(table, n: int, bases: dict[str, list[Fraction]], exact: bool) -> str | None:
    """A 2n x 2n table: every entry against the reference base values by its
    offset, symmetric, and every row summing to Kirchhoff(n)/n."""
    size = 2 * n
    if len(table) != size or any(len(row) != size for row in table):
        return f"table n={n}: shape is not {size}x{size}"
    labels = [f"p{k}" for k in range(1, n + 1)] + [f"q{k}" for k in range(1, n + 1)]
    row_sum = kirchhoff(n) / n
    for a in range(size):
        row = table[a]
        for b in range(size):
            bp = base_pair(n, labels[a], labels[b])
            want = Fraction(0) if bp is None else bases[bp[1]][bp[0] - 1]
            why = (check_exact if exact else check_float)(row[b], want if exact else float(want),
                                                          f"table n={n} [{a}][{b}]")
            if why:
                return why
            if row[b] != table[b][a]:
                return f"table n={n}: not symmetric at [{a}][{b}]"
        total = sum(row, Fraction(0)) if exact else math.fsum(row)
        why = (check_exact if exact else check_float)(total, row_sum if exact else float(row_sum),
                                                      f"table n={n} row {a} sum")
        if why:
            return why
    return None


def check_foster(edge_resistances: list, edges: list[tuple[int, int, float]], order: int,
                 rel: float = FLOAT_REL_TOL) -> str | None:
    """Foster's theorem: sum over edges of R_eff(e) / r_e = N - 1 (connected, no loops)."""
    total = math.fsum(got / r for got, (_, _, r) in zip(edge_resistances, edges))
    if not abs(total - (order - 1)) <= rel * (order - 1):
        return f"Foster sum {total!r} != N - 1 = {order - 1}"
    return None


def check_kron(reduced_vertices, reduced_edges, keep: list[str], want, exact: bool,
               rel: float = FLOAT_REL_TOL) -> str | None:
    """A Kron reduction onto `keep` keeps every resistance among the kept vertices.

    reduced_edges are (u, v, r) label triples; want(a, b) gives the reference
    resistance between kept positions a and b in the original network.
    """
    if list(reduced_vertices) != list(keep):
        return f"reduced vertices {list(reduced_vertices)} != kept {keep}"
    index = {v: k for k, v in enumerate(keep)}
    edges = [(index[u], index[v], r) for u, v, r in reduced_edges]
    if not connected(len(keep), [(i, j) for i, j, _ in edges]):
        return f"reduction onto {keep} is disconnected ({len(edges)} edges)"
    if exact:
        net = ExactNetwork(len(keep), edges)
        res = net.resistance
    else:
        pinv = float_pinv(len(keep), edges)
        res = lambda a, b: pinv_resistance(pinv, a, b)  # noqa: E731
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            what = f"reduced r({keep[a]}, {keep[b]})"
            why = (check_exact(res(a, b), want(a, b), what) if exact
                   else check_float(res(a, b), want(a, b), what, rel))
            if why:
                return why
    return None


def _short(x) -> str:
    if isinstance(x, Fraction):
        return f"Fraction({x.numerator.bit_length()}-bit / {x.denominator.bit_length()}-bit) ~ {float(x):.17g}"
    if isinstance(x, int):
        return f"{x.bit_length()}-bit int"
    return repr(x)
