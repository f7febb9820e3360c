"""Resistance networks and the linear-algebra oracle used to cross-check closed forms.

A Network is a weighted multigraph (parallel edges and self-loops allowed)
whose edges carry positive resistances, either all exact rationals or all
binary64 floats.  Everything observable about it flows through the graph
Laplacian L.  Whether the graph is connected is read off L's edges by
union-find, never from a pivot.  Once it is, L with one vertex grounded (its
row and column deleted) is positive definite, and one elimination without
pivoting answers every question: exact networks scale L to an integer matrix
and run fraction-free (Bareiss) elimination, float networks factor with
Cholesky.

* Effective resistances and the Kirchhoff index come from the Moore-Penrose
  pseudoinverse L+ = P G P, where G is the inverse of the grounded block,
  padded with zeros at the ground, and P = I - J/N.
* Spanning-tree counts are the determinant of the grounded block.
* Reductions onto a terminal set stop the elimination after the interior
  pivots: what is left is the Schur complement, the Kron-reduced Laplacian.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.linalg import lapack


class DisconnectedNetworkError(ValueError):
    """An operation needed a connected network and the graph is not connected."""


class SingularMatrixError(ArithmeticError):
    """A float Cholesky factorization failed on a connected network too
    ill-conditioned (or too ill-scaled) for binary64."""


# ---------------------------------------------------------------------------
# dense symmetric matrices, exact or float


class SymMatrix:
    """Dense symmetric matrix over exact rationals or binary64 floats.

    Exact matrices hold Fractions in a numpy object array; float matrices are
    plain float64 arrays.  The mode is decided by the entries: any float makes
    the whole matrix float, otherwise ints are promoted to Fraction.
    """

    __slots__ = ("_m",)

    def __init__(self, rows):
        data = rows.tolist() if isinstance(rows, np.ndarray) else [list(r) for r in rows]
        if any(isinstance(x, float) for row in data for x in row):
            arr = np.array([[float(x) for x in row] for row in data], dtype=float)
        else:
            arr = np.array([[Fraction(x) for x in row] for row in data], dtype=object)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ValueError("matrix is not symmetric")
        self._m = arr

    @classmethod
    def _of(cls, arr: np.ndarray) -> "SymMatrix":
        """A matrix from a square symmetric array the oracle built, neither copied nor checked.

        The array's dtype is the mode: object for Fractions, float64 for floats.
        """
        m = object.__new__(cls)
        m._m = arr
        return m

    @property
    def order(self) -> int:
        return self._m.shape[0]

    @property
    def is_exact(self) -> bool:
        return self._m.dtype == object

    @property
    def entries(self) -> np.ndarray:
        """The backing array; treat as read-only."""
        return self._m

    def __getitem__(self, key: tuple[int, int]):
        return self._m[key]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        if self.is_exact != other.is_exact or self.order != other.order:
            return False
        return bool((self._m == other._m).all())

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else "float"
        return f"SymMatrix(order={self.order}, {kind})"

    def eigenvalues(self) -> np.ndarray:
        """Float spectrum, ascending (symmetric eigensolver)."""
        return np.linalg.eigvalsh(self._m.astype(float))


# ---------------------------------------------------------------------------
# the grounded elimination kernel


def _components(lap: SymMatrix) -> list[int]:
    """Component representative of every vertex: union-find over L's edges.

    Every edge of positive, finite conductance leaves a nonzero off-diagonal
    entry in the Laplacian, so its nonzero pattern is the graph (loops and
    parallel edges aside, which do not change connectivity).
    """
    parent = list(range(lap.order))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols = np.nonzero(lap.entries)
    for i, j in zip(rows.tolist(), cols.tolist()):
        parent[find(i)] = find(j)
    return [find(x) for x in range(lap.order)]


def _integer_form(lap: SymMatrix) -> tuple[list[list[int]], int]:
    """(D*L, D) for an exact Laplacian, D the lcm of its entries' denominators."""
    d = math.lcm(*(x.denominator for x in lap.entries.flat))
    return [[x.numerator * (d // x.denominator) for x in row] for row in lap.entries], d


def _schur(a: list[list[int]], k: int) -> tuple[list[list[int]], int]:
    """Fraction-free (Bareiss) elimination of the first k pivots of an integer matrix.

    Returns the trailing block T and the last pivot p, which is the
    determinant of the leading k x k block.  By Sylvester's identity T / p is
    the Schur complement of that block, so every division below is exact.
    There is no pivoting: callers pass matrices whose leading k x k block is
    positive definite, so every pivot is positive.
    """
    a = [list(row) for row in a]
    prev = 1
    for s in range(k):
        pivot = a[s][s]
        top = a[s][s + 1:]
        for row in a[s + 1:]:
            f = row[s]
            if f:
                row[s + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[s + 1:], top)]
            else:
                row[s + 1:] = [pivot * x // prev for x in row[s + 1:]]
        prev = pivot
    return [row[k:] for row in a[k:]], prev


def _cholesky(block: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of a positive definite float block.

    A Fortran-contiguous block is factored in place; any other is copied.
    """
    factor, info = lapack.dpotrf(block, overwrite_a=1)
    if info != 0 or not np.isfinite(factor).all():
        raise SingularMatrixError("binary64 Cholesky factorization failed: the conductances are "
                                  "too far apart or too large for floats; use exact resistances")
    return factor


def pinv_laplacian(lap: SymMatrix) -> SymMatrix:
    """Moore-Penrose pseudoinverse of a connected network's Laplacian.

    Grounds one vertex and inverts the remaining block L0: exact Laplacians
    ground vertex 0 and read -(D*L0)^-1 off the Schur complement of the
    bordered matrix [[D*L0, I], [I, 0]]; float ones ground the vertex with the
    largest conductance sum (the lowest index among equals) and use Cholesky.
    Then L+ = P G P, with G the inverse padded with zeros at the ground and
    P = I - J/N.  Raises DisconnectedNetworkError when the graph of `lap` is
    not connected.

    The float error does not depend on the overall scale of the conductances.
    It is about machine epsilon times the condition number of L0, which grows
    with the size of the network and with the spread of its conductances.
    Grounding the largest diagonal keeps that vertex's conductances out of
    L0, so that a large conductance is not eliminated before the ground and
    rounded into the small ones next to it: on a path of 1e7 and 1e-7 ohms,
    grounding the 1e7-ohm end would cost 2% of the resistance.
    """
    n = lap.order
    if len(set(_components(lap))) > 1:
        raise DisconnectedNetworkError("network is disconnected")
    m = n - 1
    if lap.is_exact:
        a, d = _integer_form(lap)
        eye = [[int(i == j) for j in range(m)] for i in range(m)]
        bordered = [row[1:] + e for row, e in zip(a[1:], eye)] + [e + [0] * m for e in eye]
        t, det = _schur(bordered, m)
        # L0^-1 = -d T / det.  Pad T at the ground and centre it in integers:
        # n^2 (P T P)_ij = n^2 T_ij - n (s_i + s_j) + S, with s the row sums
        # of the symmetric T and S their total.
        t = [[0] * n] + [[0] + row for row in t]
        sums = [sum(row) for row in t]
        total = sum(sums)
        scale = det * n * n
        lp = [[Fraction(-d * (n * n * x - n * (si + sj) + total), scale)
               for x, sj in zip(row, sums)] for row, si in zip(t, sums)]
        return SymMatrix._of(np.array(lp, dtype=object))
    g = np.zeros((n, n))
    if m:
        k = int(np.argmax(lap.entries.diagonal()))
        # (rows of L0, rows of L) before and after the ground
        parts = ((slice(0, k), slice(0, k)), (slice(k, m), slice(k + 1, n)))
        block = np.empty((m, m))
        for bi, li in parts:
            for bj, lj in parts:
                block[bi, bj] = lap.entries[li, lj]
        # the symmetric block's transpose is Fortran-ordered, so LAPACK
        # factors and inverts it in place
        inv, _ = lapack.dpotri(_cholesky(block.T), overwrite_c=1)
        # potri fills the upper triangle; the lower one stays zero
        full = inv + inv.T
        np.fill_diagonal(full, inv.diagonal())
        for bi, li in parts:
            for bj, lj in parts:
                g[li, lj] = full[bi, bj]
    # centring rows, then columns, twice keeps the row sums near rounding level
    for _ in range(2):
        g -= g.mean(axis=1, keepdims=True)
        g -= g.mean(axis=0, keepdims=True)
    return SymMatrix._of((g + g.T) / 2.0)


# ---------------------------------------------------------------------------
# networks


class Network:
    """Immutable weighted multigraph with positive edge resistances.

    Vertices are string labels; edges are (u, v, r) triples and may repeat
    (parallel resistors) or loop (u == v; loops carry no current and are
    ignored by the Laplacian).  A single float resistance puts the whole
    network in float mode; otherwise resistances are exact rationals.  Every
    resistance and its conductance 1/r must be finite and positive.
    """

    __slots__ = ("_vertices", "_edges", "_index", "_exact", "_lap", "_pinv")

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple]):
        self._vertices = tuple(vertices)
        if not self._vertices:
            raise ValueError("network needs at least one vertex")
        if any(not isinstance(v, str) for v in self._vertices):
            raise ValueError("vertex labels must be strings")
        self._index = {v: i for i, v in enumerate(self._vertices)}
        if len(self._index) != len(self._vertices):
            raise ValueError("duplicate vertex labels")

        triples = list(edges)
        self._exact = not any(isinstance(r, float) for _, _, r in triples)
        indexed = []
        for u, v, r in triples:
            if u not in self._index or v not in self._index:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            r = Fraction(r) if self._exact else float(r)
            if not r > 0:
                raise ValueError(f"edge ({u!r}, {v!r}) must have positive resistance, got {r}")
            if not self._exact and not (math.isfinite(r) and math.isfinite(1.0 / r)):
                raise ValueError(f"edge ({u!r}, {v!r}) must have a finite resistance "
                                 f"and a finite conductance, got r = {r}")
            indexed.append((self._index[u], self._index[v], r))
        self._edges = tuple(indexed)
        self._lap: SymMatrix | None = None
        self._pinv: SymMatrix | None = None

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> Iterator[tuple[str, str, Fraction | float]]:
        for iu, iv, r in self._edges:
            yield (self._vertices[iu], self._vertices[iv], r)

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def is_exact(self) -> bool:
        return self._exact

    def vertex_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown vertex {label!r}") from None

    def __repr__(self) -> str:
        mode = "exact" if self._exact else "float"
        return f"Network({self.vertex_count} vertices, {self.edge_count} edges, {mode})"

    def laplacian(self) -> SymMatrix:
        """Weighted graph Laplacian (conductance = 1/resistance; loops ignored).

        A float sum of parallel conductances past the binary64 range is inf,
        without a warning: the Cholesky factorization then reports it.
        """
        if self._lap is None:
            n = self.vertex_count
            rows = np.full((n, n), Fraction(0), dtype=object) if self._exact else np.zeros((n, n))
            with np.errstate(over="ignore"):
                for iu, iv, r in self._edges:
                    if iu == iv:
                        continue
                    g = 1 / r
                    rows[iu, iu] += g
                    rows[iv, iv] += g
                    rows[iu, iv] -= g
                    rows[iv, iu] -= g
            self._lap = SymMatrix._of(rows)
        return self._lap

    def pseudoinverse(self) -> SymMatrix:
        """Cached pinv_laplacian of this network's Laplacian."""
        if self._pinv is None:
            self._pinv = pinv_laplacian(self.laplacian())
        return self._pinv

    def to_float(self) -> "Network":
        """Float-mode copy (same topology, binary64 resistances)."""
        if not self._exact:
            return self
        return Network(self._vertices,
                       [(self._vertices[iu], self._vertices[iv], float(r)) for iu, iv, r in self._edges])


def resistance_oracle(net: Network, u: str, v: str):
    """Effective resistance between two vertices, from the pseudoinverse.

    r(u, v) = L+[u,u] - 2 L+[u,v] + L+[v,v]; exact Fraction on exact networks,
    float otherwise.  Raises DisconnectedNetworkError when the network is not
    connected, since the pseudoinverse needs a connected network.
    """
    i = net.vertex_index(u)
    j = net.vertex_index(v)
    lp = net.pseudoinverse()
    return lp[i, i] - 2 * lp[i, j] + lp[j, j]


def kirchhoff_oracle(net: Network):
    """Sum of effective resistances over all vertex pairs: N * trace(L+)."""
    lp = net.pseudoinverse()
    total = sum(lp[i, i] for i in range(net.vertex_count))
    return net.vertex_count * total


def matrix_tree_count(net: Network):
    """Spanning-tree count: the determinant of the grounded Laplacian (matrix-tree theorem).

    Exact networks only.  Unit resistances give the plain spanning-tree count;
    general rational resistances give the conductance-weighted count (sum over
    spanning trees of the product of edge conductances), det(D*L0) / D^(N-1).
    Returns an int when the value is integral, else a Fraction.  Disconnected
    networks count 0.
    """
    if not net.is_exact:
        raise TypeError("matrix-tree counting requires an exact network")
    lap = net.laplacian()
    if len(set(_components(lap))) > 1:
        return 0
    a, d = _integer_form(lap)
    m = net.vertex_count - 1
    _, det = _schur([row[1:] for row in a[1:]], m)
    count = Fraction(det, d ** m)
    return count.numerator if count.denominator == 1 else count


def kron_reduce(net: Network, keep: Sequence[str]) -> Network:
    """Collapse a network onto `keep`, preserving their pairwise resistances.

    Eliminates the interior vertices first (exact: `_schur` on D*L, float:
    Cholesky of the interior block) and reads the surviving edges off the
    Schur complement onto the kept vertices, in the order given.  An entry is
    exactly zero when no path joins its two vertices through the interior,
    and that pair gets no edge.  Any other entry is nonzero, and in float
    mode it is a sum of terms of one sign, so it cannot round to zero.  Raises
    DisconnectedNetworkError when some interior vertex has no path to any
    kept vertex.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one vertex")
    kidx = [net.vertex_index(v) for v in keep]
    if len(set(kidx)) != len(kidx):
        raise ValueError("keep contains duplicate vertices")

    lap = net.laplacian()
    roots = _components(lap)
    if not set(roots) <= {roots[k] for k in kidx}:
        raise DisconnectedNetworkError("interior vertices have no path to any kept vertex")
    kept = set(kidx)
    order = [i for i in range(net.vertex_count) if i not in kept] + kidx
    inner = net.vertex_count - len(kidx)
    if net.is_exact:
        a, d = _integer_form(lap)
        t, pivot = _schur([[a[i][j] for j in order] for i in order], inner)
        conductance = [[Fraction(-x, pivot * d) for x in row] for row in t]
    else:
        a = lap.entries[np.ix_(order, order)]
        schur = a[inner:, inner:]
        if inner:
            solved, _ = lapack.dpotrs(_cholesky(a[:inner, :inner]), a[:inner, inner:])
            schur = schur - a[inner:, :inner] @ solved
        conductance = -(schur + schur.T) / 2.0

    edges = []
    for i in range(len(keep)):
        for j in range(i + 1, len(keep)):
            g = conductance[i][j]
            if g != 0:
                edges.append((keep[i], keep[j], 1 / g))
    return Network(keep, edges)


# ---------------------------------------------------------------------------
# standard constructions


def build_prism(n: int) -> Network:
    """The n-prism: cycles p1..pn and q1..qn plus rungs (p_i, q_i), all 1 ohm.

    The generic construction is used for every n, so n = 1 degenerates to one
    rung plus a self-loop on each endpoint and n = 2 to doubled cycle edges;
    the edge count is exactly 3n in all cases.
    """
    if n < 1:
        raise ValueError(f"prism index must be positive, got {n}")
    ps = [f"p{i}" for i in range(1, n + 1)]
    qs = [f"q{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges.append((ps[i], ps[j], 1))
        edges.append((qs[i], qs[j], 1))
        edges.append((ps[i], qs[i], 1))
    return Network(ps + qs, edges)


def build_ladder(n: int) -> Network:
    """The n-rung ladder: rails p1..pn and q1..qn plus n rungs, 3n - 2 unit edges."""
    if n < 1:
        raise ValueError(f"ladder must have at least one rung, got n={n}")
    ps = [f"p{i}" for i in range(1, n + 1)]
    qs = [f"q{i}" for i in range(1, n + 1)]
    edges = [(ps[i], qs[i], 1) for i in range(n)]
    edges += [(ps[i], ps[i + 1], 1) for i in range(n - 1)]
    edges += [(qs[i], qs[i + 1], 1) for i in range(n - 1)]
    return Network(ps + qs, edges)


# ---------------------------------------------------------------------------
# JSON interchange


def network_to_json(net: Network) -> dict:
    """Schema: {"vertices": [str, ...], "edges": [{"u", "v", "r"}, ...]}.

    Exact resistances serialize as rational strings ("5/12", "3"); float
    resistances as JSON numbers.  Lossless round-trip in both modes.
    """
    def encode(r):
        return str(r) if isinstance(r, Fraction) else r

    return {
        "vertices": list(net.vertices),
        "edges": [{"u": u, "v": v, "r": encode(r)} for u, v, r in net.edges],
    }


def network_from_json(doc: dict) -> Network:
    """Parse and validate the schema of network_to_json; ValueError on anything off."""
    if not isinstance(doc, dict) or set(doc) != {"vertices", "edges"}:
        raise ValueError('network document must have exactly the keys "vertices" and "edges"')
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError('"vertices" must be a list of strings')
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ValueError('"edges" must be a list')
    edges = []
    for k, e in enumerate(raw_edges):
        if not isinstance(e, dict) or set(e) != {"u", "v", "r"}:
            raise ValueError(f'edge #{k} must be an object with exactly the keys "u", "v", "r"')
        u, v, r = e["u"], e["v"], e["r"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise ValueError(f'edge #{k}: "u" and "v" must be vertex labels')
        if isinstance(r, bool) or not isinstance(r, (str, int, float)):
            raise ValueError(f'edge #{k}: "r" must be a rational string or a number')
        if isinstance(r, str):
            try:
                r = Fraction(r)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f'edge #{k}: bad rational {r!r}') from exc
        edges.append((u, v, r))
    return Network(vertices, edges)
