"""Resistance networks and the linear-algebra oracle used to cross-check closed forms.

A Network is a weighted multigraph (parallel edges and self-loops allowed)
whose edges carry positive resistances, either all exact rationals or all
binary64 floats.  Everything observable about it flows through the graph
Laplacian L.  Whether the graph is connected is read off the edge list by
union-find, never from L or a pivot.  Once it is, L with one vertex grounded
is positive definite, and one elimination without pivoting answers every
question.  Exact networks build D*L, scaled by the lcm D of the conductance
denominators, as rows of Python ints straight from the edge list, leaving
out the ground's row and column, and run fraction-free (Bareiss) elimination
on its upper triangle alone, since the matrix stays symmetric.  Float
networks build L as float64, ground in place, giving the ground the row and
column of the identity, and factor the whole matrix with Cholesky.  Each
elimination builds the matrix it consumes; only L+ is cached.  L and L+ are
plain NumPy arrays: Fraction object arrays on exact networks, float64 on
float ones.  NumPy is imported only where an array is built and SciPy only
where LAPACK is called, so exact Kron reduction and tree counts, which run
on Python ints, load neither.

* Effective resistances and the Kirchhoff index come from the Moore-Penrose
  pseudoinverse L+ = P G P, where G is the inverse of the grounded block,
  padded with zeros at the ground, and P = I - J/N.
* Spanning-tree counts are the determinant of the grounded block.
* Reductions onto a terminal set stop the elimination after the interior
  pivots: what is left is the Schur complement, the Kron-reduced Laplacian.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction


class DisconnectedNetworkError(ValueError):
    """An operation needed a connected network and the graph is not connected."""


class SingularMatrixError(ArithmeticError):
    """A float Cholesky factorization failed on a connected network too
    ill-conditioned (or too ill-scaled) for binary64."""


# ---------------------------------------------------------------------------
# the grounded elimination kernel


def _components(net: Network) -> list[int]:
    """Component representative of every vertex: union-find over the edge list.

    A loop only unions a vertex with itself.  Every edge has a positive,
    finite conductance, so the edges join exactly the pairs of vertices whose
    Laplacian entry is nonzero, and no Laplacian is needed.
    """
    parent = list(range(net.order))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in net._edges:
        parent[find(i)] = find(j)
    return [find(x) for x in range(net.order)]


def _integer_laplacian(net: Network, order: Sequence[int]) -> tuple[list[list[int]], int]:
    """(D*L, D) for an exact network, as int rows over the vertices in `order`.

    D is the lcm of the numerators of the non-loop resistances, which are the
    denominators of the conductances, so a conductance q/p adds the integer
    q * (D/p) to D*L.  Rows and columns follow `order`; a vertex missing from
    it is dropped, which is how the eliminations ground it.
    """
    d = math.lcm(*(r.numerator for i, j, r in net._edges if i != j))
    at = {v: k for k, v in enumerate(order)}
    rows = [[0] * len(at) for _ in at]
    for i, j, r in net._edges:
        if i == j:
            continue
        g = r.denominator * (d // r.numerator)
        a, b = at.get(i), at.get(j)
        if a is not None:
            rows[a][a] += g
        if b is not None:
            rows[b][b] += g
            if a is not None:
                rows[a][b] -= g
                rows[b][a] -= g
    return rows, d


def _schur(a: list[list[int]], k: int) -> tuple[list[list[int]], int]:
    """Fraction-free (Bareiss) elimination of the first k pivots of a symmetric integer matrix.

    Eliminates in place, overwriting `a`, so callers pass a matrix built for
    it.  Returns the trailing block T and the last pivot p, which is the
    determinant of the leading k x k block.  By Sylvester's identity T / p is
    the Schur complement of that block, so every division below is exact.
    There is no pivoting: callers pass matrices whose leading k x k block is
    positive definite, so every pivot is positive.

    Every step keeps the matrix symmetric, so only the upper triangle is read
    and updated: row r changes from column r on, and its multiplier is read
    from the pivot row.  The lower triangle of `a` is left stale, and T is
    mirrored from its upper triangle at the end.
    """
    prev = 1
    for s in range(k):
        top = a[s]
        pivot = top[s]
        for r in range(s + 1, len(a)):
            row = a[r]
            f = top[r]
            if f:
                row[r:] = [(pivot * x - f * y) // prev for x, y in zip(row[r:], top[r:])]
            else:
                row[r:] = [pivot * x // prev for x in row[r:]]
        prev = pivot
    t = [row[k:] for row in a[k:]]
    for i, row in enumerate(t):
        row[:i] = [t[j][i] for j in range(i)]
    return t, prev


def _cholesky(lap, ground: Sequence[int]):
    """Upper Cholesky factor of a float Laplacian grounded in place.

    Grounds `lap` in place, giving each vertex in `ground` the row and column
    of the identity, which is positive definite whenever every other vertex
    has a path to the ground, and overwrites it with the factor: callers pass
    a Laplacian built for it.  Its transpose is Fortran-ordered, so LAPACK
    factors it in place, and the factor is Fortran-ordered as well.
    """
    import numpy as np
    from scipy.linalg import lapack

    lap[ground, :] = 0.0
    lap[:, ground] = 0.0
    lap[ground, ground] = 1.0
    factor, info = lapack.dpotrf(lap.T, overwrite_a=1)
    if info != 0 or not np.isfinite(factor).all():
        raise SingularMatrixError("binary64 Cholesky factorization failed: the conductances are "
                                  "too far apart or too large for floats; use exact resistances")
    return factor


def pinv_laplacian(net: Network):
    """Moore-Penrose pseudoinverse of a connected network's Laplacian.

    Grounds one vertex and inverts the remaining block L0 of the Laplacian.
    Exact networks ground vertex 0 by building only the integer rows of
    D*L0 and read -(D*L0)^-1 off the Schur complement of the bordered
    matrix [[D*L0, I], [I, 0]]; L+ is symmetric, so each of its entries is
    built once, on or above the diagonal, and mirrored.  Float networks
    build the Laplacian, ground the vertex with the largest conductance sum
    (the lowest index among equals) in place, as a row and column of the
    identity, and invert the whole matrix by Cholesky; the inverse is L0^-1
    around a 1 at the ground, which is then zeroed.  Then L+ = P G P, with
    G the inverse of L0 padded with zeros at the ground and P = I - J/N: a
    Fraction object array on an exact network, float64 otherwise.  Raises
    DisconnectedNetworkError when `net` is not connected.

    The float error does not depend on the overall scale of the conductances.
    It is about machine epsilon times the condition number of L0, which grows
    with the size of the network and with the spread of its conductances.
    Grounding the largest diagonal keeps that vertex's conductances out of
    L0, so that a large conductance is not eliminated before the ground and
    rounded into the small ones next to it: on a path of 1e7 and 1e-7 ohms,
    grounding the 1e7-ohm end would cost 2% of the resistance.
    """
    import numpy as np

    n = net.order
    if len(set(_components(net))) > 1:
        raise DisconnectedNetworkError("network is disconnected")
    if net.is_exact:
        m = n - 1
        a, d = _integer_laplacian(net, range(1, n))
        # [[D*L0, I], [I, 0]]: _schur reads only the upper triangle, so the
        # lower identity block is left as zeros
        bordered = [row + [0] * i + [1] + [0] * (m - 1 - i) for i, row in enumerate(a)]
        bordered += [[0] * (2 * m) for _ in range(m)]
        t, det = _schur(bordered, m)
        # L0^-1 = -d T / det.  Pad T at the ground and centre it in integers:
        # n^2 (P T P)_ij = n^2 T_ij - n (s_i + s_j) + S, with s the row sums
        # of the symmetric T and S their total.
        t = [[0] * n] + [[0] + row for row in t]
        sums = [sum(row) for row in t]
        total = sum(sums)
        scale = det * n * n
        lp = []
        for i, (row, si) in enumerate(zip(t, sums)):
            lp.append([lp[j][i] for j in range(i)]
                      + [Fraction(-d * (n * n * x - n * (si + sj) + total), scale)
                         for x, sj in zip(row[i:], sums[i:])])
        return np.array(lp, dtype=object)
    from scipy.linalg import lapack

    lap = net.laplacian()
    k = int(np.argmax(lap.diagonal()))
    inv, _ = lapack.dpotri(_cholesky(lap, [k]), overwrite_c=1)
    # potri fills the upper triangle; the lower one stays zero
    g = inv + inv.T
    np.fill_diagonal(g, inv.diagonal())
    g[k, k] = 0.0
    # centring rows, then columns, twice keeps the row sums near rounding level
    for _ in range(2):
        g -= g.mean(axis=1, keepdims=True)
        g -= g.mean(axis=0, keepdims=True)
    return (g + g.T) / 2.0


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

    __slots__ = ("_vertices", "_edges", "_index", "_exact", "_pinv")

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
        self._pinv = None

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> Iterator[tuple[str, str, Fraction | float]]:
        for iu, iv, r in self._edges:
            yield (self._vertices[iu], self._vertices[iv], r)

    @property
    def order(self) -> int:
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
        return f"Network({self.order} vertices, {self.edge_count} edges, {mode})"

    def laplacian(self):
        """Weighted graph Laplacian (conductance = 1/resistance; loops ignored).

        A new, writable array on every call: on an exact network a Fraction
        object array, D*L / D from the integer rows the exact eliminations
        use; float64 otherwise, summed edge by edge.  A float sum of parallel
        conductances past the binary64 range is inf, without a warning: the
        Cholesky factorization then reports it.  No elimination of an exact
        network calls this.
        """
        import numpy as np

        n = self.order
        if self._exact:
            rows, d = _integer_laplacian(self, range(n))
            zero = Fraction(0)
            return np.array([[Fraction(x, d) if x else zero for x in row] for row in rows],
                            dtype=object)
        rows = np.zeros((n, n))
        with np.errstate(over="ignore"):
            for iu, iv, r in self._edges:
                if iu == iv:
                    continue
                g = 1 / r
                rows[iu, iu] += g
                rows[iv, iv] += g
                rows[iu, iv] -= g
                rows[iv, iu] -= g
        return rows

    def pseudoinverse(self):
        """pinv_laplacian of this network, cached and read-only."""
        if self._pinv is None:
            pinv = pinv_laplacian(self)
            pinv.flags.writeable = False
            self._pinv = pinv
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
    total = sum(lp[i, i] for i in range(net.order))
    return net.order * total


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
    if len(set(_components(net))) > 1:
        return 0
    a, d = _integer_laplacian(net, range(1, net.order))
    m = net.order - 1
    _, det = _schur(a, m)
    count = Fraction(det, d ** m)
    return count.numerator if count.denominator == 1 else count


def kron_reduce(net: Network, keep: Sequence[str]) -> Network:
    """Collapse a network onto `keep`, preserving their pairwise resistances.

    Eliminates the interior vertices first and reads the surviving edges off
    the Schur complement onto the kept vertices, in the order given.  Exact
    networks run `_schur` on the integer rows of D*L, built with the kept
    vertices last.  Float ones take the kept rows and columns of L, then
    ground the kept vertices in place, so one Cholesky solve against those
    columns (their kept rows zeroed) gives the interior's share
    L_II^-1 L_IK, with exact zeros at the kept rows.  An entry is exactly
    zero when no path joins its two vertices through the interior, and that
    pair gets no edge.  Any other entry is nonzero, and in float mode it is
    a sum of terms of one sign, so it cannot round to zero.  Raises
    DisconnectedNetworkError when some interior vertex has no path to any
    kept vertex.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one vertex")
    kidx = [net.vertex_index(v) for v in keep]
    if len(set(kidx)) != len(kidx):
        raise ValueError("keep contains duplicate vertices")

    roots = _components(net)
    if not set(roots) <= {roots[k] for k in kidx}:
        raise DisconnectedNetworkError("interior vertices have no path to any kept vertex")
    if net.is_exact:
        kept = set(kidx)
        perm = [i for i in range(net.order) if i not in kept] + kidx
        a, d = _integer_laplacian(net, perm)
        t, pivot = _schur(a, net.order - len(kidx))
        conductance = [[Fraction(-x, pivot * d) for x in row] for row in t]
    else:
        from scipy.linalg import lapack

        lap = net.laplacian()
        rhs = lap[:, kidx]
        kept_rows = lap[kidx, :]
        rhs[kidx, :] = 0.0
        solved, _ = lapack.dpotrs(_cholesky(lap, kidx), rhs)
        schur = kept_rows[:, kidx] - kept_rows @ solved
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
