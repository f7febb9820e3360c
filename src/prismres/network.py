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
on its upper triangle alone, since the matrix stays symmetric.  They
eliminate in greedy minimum-degree order, with the kept vertices of a
reduction last, and defer the Bareiss scaling of every row a pivot does not
reach until a later pivot does: on a sparse network most rows wait, and
each deferred scaling is one exact division, as every entry it yields is a
minor of the matrix.  The answers do not depend on the order.  The inverse
of the grounded block is read off the same factor by back-substitution in
integers, as the adjugate of D*L0, with no second elimination.  Float
networks build the grounded block L0 as a SciPy sparse matrix straight from
the edge list, grounding the vertex with the largest conductance sum, and
factor it once as Q L0 Q^T = L D L^T, with Q a permutation and L unit
lower triangular, the square-root-free Cholesky factorization: SuperLU in
minimum-degree order, pivoting on the diagonal alone.  Every float answer
goes through that one factor: a Gram product, or for a Kron reduction
SuperLU's own solve.  Each elimination builds the matrix it consumes, and
no float answer builds an order-N dense Laplacian.  An exact network
caches L+, a float one the vertex vectors Z, with Z Z^T = G, and L+ only
once pseudoinverse() asks for it.  Exact answers run on Python ints and
Fractions alone: exact L+ is a tuple of row tuples of Fractions.  Float
answers run on NumPy and SciPy: Z and float L+ are float64 arrays.  NumPy
is imported only where an array is built and SciPy only where a sparse
matrix is, so no exact answer loads either.  Network.laplacian returns the
dense Laplacian of the same builders, the integer rows of D*L or the
sparse float matrix, and no elimination calls it.

* The Moore-Penrose pseudoinverse is L+ = P G P, where G is the inverse of
  the grounded block, padded with zeros at the ground, and P = I - J/N.
  Exact effective resistances are read off it, and float L+ is the Gram
  matrix (P Z)(P Z)^T.  The Kirchhoff index
  N trace(L+) = N trace(G) - 1^T G 1 needs no L+, in either mode: exact
  networks take both terms off the adjugate in integers, one Fraction, and
  float ones off Z, trace(G) = |Z|_F^2 and 1^T G 1 = |Z^T 1|^2, two sums of
  squares, as they take r(u, v) = |Z[u] - Z[v]|^2.
* Spanning-tree counts are the determinant of the grounded block.
* Reductions onto a terminal set stop the elimination after the interior
  pivots: what is left is the Schur complement, the Kron-reduced Laplacian.
  In float mode it is L_KK - B^T L_II^-1 B, with B = L_IK for the
  interior I and the kept vertices K: SuperLU solves L_II X = B through
  the factor of L_II, and B^T X sums terms of one sign.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction


class DisconnectedNetworkError(ValueError):
    """An operation needed a connected network and the graph is not connected."""


class SingularMatrixError(ArithmeticError):
    """A float LDL^T (Cholesky) factorization failed, or left a pivot that is
    not positive and finite, on a connected network too ill-conditioned (or
    too ill-scaled) for binary64, or a float resistance, Kirchhoff index,
    reduced conductance or its resistance is past the binary64 range."""


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


def _min_degree(net: Network, keep: Sequence[int], ground: int | None) -> list[int]:
    """Greedy minimum-degree order of the vertices neither kept nor grounded.

    Runs on the graph of the edge list without the ground, the graph of the
    matrix the eliminations build: each step takes the vertex of fewest
    neighbours left, the lowest index among equals, and joins its neighbours
    into a clique, the fill its pivot leaves (George and Liu, SIAM Review
    1989).  Kept vertices count as neighbours and are never taken.
    """
    from heapq import heapify, heappop, heappush

    adj: dict[int, set[int]] = {v: set() for v in range(net.order) if v != ground}
    for i, j, _ in net._edges:
        if i != j and i != ground and j != ground:
            adj[i].add(j)
            adj[j].add(i)
    left = set(adj).difference(keep)
    # (degree, vertex) of every vertex left, and stale entries after a
    # vertex's degree changed or it was taken: those are skipped
    heap = [(len(adj[v]), v) for v in left]
    heapify(heap)
    order = []
    while left:
        degree, v = heappop(heap)
        if v not in left or degree != len(adj[v]):
            continue
        left.remove(v)
        order.append(v)
        near = adj.pop(v)
        for x in near:
            fill = adj[x]
            fill |= near
            fill.discard(x)
            fill.discard(v)
            if x in left:
                heappush(heap, (len(fill), x))
    return order


def _integer_laplacian(net: Network, keep: Sequence[int] = (),
                       ground: int | None = None) -> tuple[list[list[int]], int, list[int]]:
    """(D*L, D, order) for an exact network, as int rows over the vertices in `order`.

    `order` lists the vertices to eliminate, neither kept nor the ground, in
    the greedy minimum-degree order of _min_degree, then `keep` as given;
    the ground is left out of the rows and columns, which is how the
    eliminations ground it.  With every vertex kept, the rows follow the
    vertex order.  D is the lcm of the numerators of the non-loop
    resistances, which are the denominators of the conductances, so a
    conductance q/p adds the integer q * (D/p) to D*L.
    """
    order = _min_degree(net, keep, ground) + list(keep)
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
    return rows, d, order


def _schur(a: list[list[int]], k: int) -> tuple[list[list[int]], int]:
    """Fraction-free (Bareiss) elimination of the first k pivots of a symmetric integer matrix.

    All three exact eliminations share it: the grounded adjugate behind L+
    and the Kirchhoff index, the spanning-tree count and Kron reduction.
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

    Step s turns row r into (p_s row - f top) / p_{s-1}, with p_s the pivot
    of step s, p_{-1} = 1, and f the row's entry in the pivot column.  A row
    with f = 0 is only scaled, by p_s / p_{s-1}, and that scaling is
    deferred.  Each row holds the divisor it was last brought up to date
    with: p_{s-1} for a row as it stands after step s - 1.  Over untouched
    steps the factors telescope, so when step t needs the row, as its pivot
    row or with f != 0, or T needs it at the end, one pass multiplies it by
    p_{t-1} and divides it by p_{s-1}.  That division is exact as well: each
    entry it produces is the entry after step t - 1, which is a minor of the
    matrix and so an integer.  A row also knows where its trailing zeros
    start, and an update stops at the later of its own and the pivot row's,
    since past both it would only scale zeros.  So a step costs work only
    in the rows its pivot row has nonzeros for, which the minimum-degree
    order of _integer_laplacian keeps few, and a row of zeros costs nothing.
    """
    from itertools import compress

    prev = 1
    held = [1] * len(a)  # the divisor row r was last brought up to date with
    end = []  # row r is zero from column end[r] on
    for row in a:
        e = len(row) if any(row) else 0
        while e and not row[e - 1]:
            e -= 1
        end.append(e)
    for s in range(k):
        top, stop = a[s], end[s]
        if held[s] != prev:
            top[s:stop] = [x * prev // held[s] for x in top[s:stop]]
        pivot = top[s]
        for r in compress(range(s + 1, stop), top[s + 1:stop]):
            f = top[r]
            row, old, e = a[r], held[r], max(end[r], stop)
            if old == prev:
                row[r:e] = [(pivot * x - f * y) // prev for x, y in zip(row[r:e], top[r:e])]
            else:
                row[r:e] = [(pivot * (x * prev // old) - f * y) // prev
                            for x, y in zip(row[r:e], top[r:e])]
            held[r], end[r] = pivot, e
        prev = pivot
    for r in range(k, len(a)):
        if held[r] != prev:
            a[r][r:end[r]] = [x * prev // held[r] for x in a[r][r:end[r]]]
    t = [row[k:] for row in a[k:]]
    for i, row in enumerate(t):
        row[:i] = [t[j][i] for j in range(i)]
    return t, prev


def _in_range(x: float) -> float:
    """A float answer `x`, when it is finite.

    The sums of squares behind the float answers are taken with np.vdot,
    which, unlike `@`, overflows to inf without a warning, so an answer past
    the binary64 range reaches this as inf.
    """
    if not math.isfinite(x):
        raise SingularMatrixError("the answer is past the binary64 range; use exact resistances")
    return x


def _binary64(r) -> float:
    """float(r), or an infinity of r's sign for an int or Fraction past the binary64 range."""
    try:
        return float(r)
    except OverflowError:
        return math.inf if r > 0 else -math.inf


def _edge(u, v) -> str:
    """An edge as error messages name it, each label clipped by reprlib."""
    return f"edge ({reprlib.repr(u)}, {reprlib.repr(v)})"


def _require_connected(net: Network) -> None:
    if len(set(_components(net))) > 1:
        raise DisconnectedNetworkError("network is disconnected")


def _sparse_laplacian(net: Network, ground: Sequence[int] | None = None):
    """(A, order): the float Laplacian as a SciPy CSC matrix, straight from the edge list.

    Its rows and columns follow `order`, the vertices not in `ground` in
    vertex order and then `ground` as given, so the grounded block L0 is
    A[:m, :m], with m the number of vertices not grounded.  With `ground`
    None, the vertex with the largest conductance sum (the lowest index
    among equals) is the ground; with it empty, A is the whole Laplacian in
    vertex order.  A sum of parallel conductances past the
    binary64 range is inf, without a warning; _factor then reports it.
    """
    import numpy as np
    from scipy.sparse import csc_array

    n = net.order
    ends = np.array([(i, j, r) for i, j, r in net._edges if i != j]).reshape(-1, 3)
    i, j = ends[:, 0].astype(np.intp), ends[:, 1].astype(np.intp)
    g = 1.0 / ends[:, 2]
    with np.errstate(over="ignore"):
        sums = np.bincount(i, g, n) + np.bincount(j, g, n)
    if ground is None:
        ground = [int(np.argmax(sums))]
    inner = np.ones(n, dtype=bool)
    inner[ground] = False
    order = np.concatenate([np.flatnonzero(inner), ground]).astype(np.intp)
    at = np.empty(n, dtype=np.intp)
    at[order] = np.arange(n)
    a, b = at[i], at[j]
    diagonal = np.arange(n)
    lap = csc_array((np.concatenate([sums[order], -g, -g]),
                     (np.concatenate([diagonal, a, b]), np.concatenate([diagonal, b, a]))),
                    shape=(n, n))
    return lap, order


def _factor(a):
    """SuperLU's factor of a float CSC matrix A, Q A Q^T = L D L^T, checked to be one.

    SuperLU factors A in minimum-degree order (MMD on A^T + A; George and
    Liu, SIAM Review 1989), pivoting on the diagonal alone, so its row and
    column permutations agree and U = D L^T: this is the square-root-free
    Cholesky factorization.  The returned object holds the unit lower
    triangular L as lu.L, D as the diagonal of lu.U, and Q as lu.perm_c,
    which takes row i of A to row perm_c[i]; lu.solve(b) solves A x = b
    through them.  Callers pass a grounded Laplacian, positive definite
    whenever every vertex has a path to the ground, and an M-matrix, so L
    has no positive entry off its diagonal.  Raises SingularMatrixError
    when SuperLU fails, when the permutations differ, or when a pivot is
    not positive and finite.
    """
    import numpy as np
    from scipy.sparse.linalg import splu

    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot
        lu = None
    if lu is not None:
        d = lu.U.diagonal()
        if np.array_equal(lu.perm_r, lu.perm_c) and np.all((d > 0) & (d < math.inf)):
            return lu
    raise SingularMatrixError("binary64 Cholesky factorization failed: the conductances are "
                              "too far apart or too large for floats; use exact resistances")


def _inverse_factor(net: Network):
    """Z, with Z Z^T = G, the inverse of the grounded block padded with zeros.

    Grounds the vertex with the largest conductance sum (the lowest index
    among equals), factors the grounded block with _factor and reads D, Q
    and L, the strictly lower part of the unit lower factor, off that
    factor, so that Q L0 Q^T = (I + L) D (I + L)^T and
    G = Q^T Y Y^T Q with Y = (I + L)^-T D^-1/2.  Y is upper triangular and
    is built one row at a time from the bottom, over the CSC column j of L:
    Y[j, j] = d_j^-1/2 and Y[j, j+1:] = -L[k, j] Y[k, j+1:] summed over the
    rows k of that column's nonzeros, all below j and done already.  L has
    no positive entry, so Y >= 0 and every such sum adds terms of one sign.
    Row j of Y is written straight to row v of Z, v the vertex at position j
    of the factor, so Z is C-ordered with one contiguous row per vertex,
    zero before the vertex's position in the factor; the ground's row stays
    zero, which pads L0^-1 with zeros.  Raises DisconnectedNetworkError when
    `net` is not connected, and SingularMatrixError when the factorization
    fails.

    The float error does not depend on the overall scale of the conductances.
    It is about machine epsilon times the condition number of L0, which grows
    with the size of the network and with the spread of its conductances.
    Grounding the largest diagonal keeps that vertex's conductances out of
    L0, so that a large conductance is not eliminated before the ground and
    rounded into the small ones next to it: on a path of 1e7 and 1e-7 ohms,
    grounding the 1e7-ohm end would cost 2% of the resistance.
    """
    import numpy as np
    from scipy.sparse import tril

    _require_connected(net)
    lap, order = _sparse_laplacian(net)
    m = net.order - 1
    lu = _factor(lap[:m, :m])
    low, d = tril(lu.L, -1, format="csc"), lu.U.diagonal()
    vertex = np.empty(m, dtype=np.intp)  # the vertex at each position of the factor
    vertex[lu.perm_c] = order[:m]
    below = vertex[low.indices]  # the vertex of each nonzero's row
    minus = -low.data
    starts = low.indptr.tolist()
    root = (1.0 / np.sqrt(d)).tolist()
    z = np.zeros((net.order, m))
    for j, v in reversed(list(enumerate(vertex.tolist()))):
        a, b = starts[j], starts[j + 1]
        y = z[v]
        y[j] = root[j]
        y[j + 1:] = minus[a:b] @ z[below[a:b], j + 1:]
    return z


def _grounded_adjugate(net: Network) -> tuple[list[list[int]], int, int, list[int]]:
    """(Y, D, det, order) of a connected exact network, with Y = adj(A), A = D*L0.

    Grounds vertex 0 and builds A from _integer_laplacian, its rows and
    columns in the elimination `order`, factors it once with _schur and reads
    its adjugate Y = det A^-1 off the factor by back-substitution in
    integers, so that L0^-1 = D Y / det.  Raises DisconnectedNetworkError
    when `net` is not connected.

    Write A = L Delta L^T, with L unit lower triangular.  After _schur, row s
    of `a` holds U[s][k] = p_{s-1} Delta_s L^T[s][k] for k >= s, where
    p_s = U[s][s] is the pivot of step s and p_{-1} = 1: a pivot row is
    brought up to date when it pivots and never touched after, so the upper
    triangle read here is current.  The lower triangle is stale and is not
    read.  L^T A^-1 = Delta^-1 L^-1 is lower triangular with diagonal
    1 / Delta_s, so sum_k U[s][k] Y[k][j] = delta_sj p_{s-1} det for every
    j >= s, and for s = m - 1 down to 0

        Y[s][j] = (delta_sj p_{s-1} det - sum_{k > s} U[s][k] Y[k][j]) / p_s.

    Each Y entry is a cofactor of A, an integer, so every division is exact.
    For j > s the sum reads rows of Y below s, done already.  The diagonal
    j = s reads Y[k][s] = Y[s][k], so it comes last, after the entries to
    its right are mirrored into column s.  The sums run over the nonzeros of
    U[s] alone, which the minimum-degree order keeps few.
    """
    from itertools import compress

    _require_connected(net)
    a, d, order = _integer_laplacian(net, ground=0)
    m = len(a)
    _, det = _schur(a, m)
    y = [[0] * m for _ in range(m)]
    for s in range(m - 1, -1, -1):
        u = a[s]
        pivot = u[s]
        near = list(compress(range(s + 1, m), u[s + 1:]))
        acc = [0] * (m - 1 - s)
        for k in near:
            c = u[k]
            acc = [x + c * z for x, z in zip(acc, y[k][s + 1:])]
        right = y[s]
        right[s + 1:] = [-x // pivot for x in acc]
        for k, x in enumerate(right[s + 1:], s + 1):
            y[k][s] = x
        below = a[s - 1][s - 1] if s else 1
        right[s] = (below * det - sum([u[k] * right[k] for k in near])) // pivot
    return y, d, det, order


def pinv_laplacian(net: Network):
    """Moore-Penrose pseudoinverse of a connected network's Laplacian.

    Grounds one vertex and inverts the remaining block L0 of the Laplacian.
    Exact networks ground vertex 0 and take L0^-1 = D Y / det from
    _grounded_adjugate, whose rows and columns are in elimination order,
    then put them back in vertex order; L+ is symmetric, so each of its
    entries is built once, on or above the diagonal, and mirrored.
    L+ = P G P, with G the inverse of L0 padded with zeros at the ground and
    P = I - J/N: on an exact network a tuple of row tuples of Fractions,
    built without NumPy; a float64 array otherwise.  Float networks take a
    fresh Z from _inverse_factor, which grounds the vertex with the largest
    conductance sum and holds one row per vertex, centre its columns in place
    into P Z, twice, and return the Gram matrix L+ = (P Z)(P Z)^T, one more
    order-N array.  NumPy computes that product with BLAS's syrk and mirrors
    one triangle, so float L+ equals its transpose bit for bit.  Raises
    DisconnectedNetworkError when `net` is not connected.  The float
    resistances and both Kirchhoff indices do not call this; _inverse_factor
    says how accurate the float answers are.
    """
    n = net.order
    if net.is_exact:
        y, d, det, order = _grounded_adjugate(net)
        # Put Y's rows and columns back in vertex order, pad it at the ground
        # and centre it in integers: n^2 (P Y P)_ij = n^2 Y_ij - n (s_i + s_j)
        # + S, with s the row sums of the symmetric Y and S their total.
        at = sorted(range(n - 1), key=order.__getitem__)  # where vertices 1 .. n-1 are
        y = [[0] * n] + [[0] + [y[i][j] for j in at] for i in at]
        sums = [sum(row) for row in y]
        total = sum(sums)
        scale = det * n * n
        lp = []
        for i, (row, si) in enumerate(zip(y, sums)):
            lp.append(tuple([lp[j][i] for j in range(i)]
                            + [Fraction(d * (n * n * x - n * (si + sj) + total), scale)
                               for x, sj in zip(row[i:], sums[i:])]))
        return tuple(lp)
    z = _inverse_factor(net)
    # P is a projection, so a second pass changes P Z only by what the first
    # left: the means are running sums down the columns, off by about N eps
    # |Z|, and the row sums of L+ are Z's column sums after centring
    for _ in range(2):
        z -= z.mean(axis=0)
    return z @ z.T


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

    __slots__ = ("_vertices", "_edges", "_index", "_exact", "_pinv", "_z")

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
                raise ValueError(f"{_edge(u, v)} references an unknown vertex")
            r = Fraction(r) if self._exact else _binary64(r)
            if not r > 0:  # str(r), clipped by reprlib, without the quotes it adds
                raise ValueError(f"{_edge(u, v)} must have positive resistance, "
                                 f"got {reprlib.repr(str(r))[1:-1]}")
            if not self._exact and not (math.isfinite(r) and math.isfinite(1.0 / r)):
                raise ValueError(f"{_edge(u, v)} must have a finite resistance "
                                 f"and a finite conductance, got r = {r}")
            indexed.append((self._index[u], self._index[v], r))
        self._edges = tuple(indexed)
        self._pinv = None
        self._z = None

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
            raise ValueError(f"unknown vertex {reprlib.repr(label)}") from None

    def __repr__(self) -> str:
        mode = "exact" if self._exact else "float"
        return f"Network({self.order} vertices, {self.edge_count} edges, {mode})"

    def laplacian(self):
        """Weighted graph Laplacian (conductance = 1/resistance; loops ignored).

        A new, writable array on every call: on an exact network a Fraction
        object array, D*L / D from the integer rows the exact eliminations
        use; float64 otherwise, the float eliminations' sparse Laplacian
        with no vertex grounded, made dense, so its diagonal holds exactly
        the conductance sums the float path picks its ground by.  A float
        sum of parallel conductances past the binary64 range is inf, without
        a warning.  No elimination calls this: each builds its own matrix
        from the edges.
        """
        if not self._exact:
            return _sparse_laplacian(self, [])[0].toarray()
        import numpy as np

        rows, d, _ = _integer_laplacian(self, range(self.order))
        zero = Fraction(0)
        return np.array([[Fraction(x, d) if x else zero for x in row] for row in rows],
                        dtype=object)

    def pseudoinverse(self):
        """pinv_laplacian of this network, cached and read-only.

        Exact L+ is a tuple of row tuples, immutable already, and serves the
        exact resistances.  A float64 L+ is the Gram matrix (P Z)(P Z)^T of
        a fresh Z, centred in place, so the cached Z is neither read nor
        filled; it is made read-only, and no float answer of the oracle reads
        it, nor does either Kirchhoff index.
        """
        if self._pinv is None:
            pinv = pinv_laplacian(self)
            if not self._exact:
                pinv.flags.writeable = False
            self._pinv = pinv
        return self._pinv

    def _embedding(self):
        """_inverse_factor of this float network, cached and read-only."""
        if self._z is None:
            z = _inverse_factor(self)
            z.flags.writeable = False
            self._z = z
        return self._z

    def to_float(self) -> "Network":
        """Float-mode copy (same topology, binary64 resistances)."""
        if not self._exact:
            return self
        return Network(self._vertices,
                       [(self._vertices[iu], self._vertices[iv], _binary64(r))
                        for iu, iv, r in self._edges])


def resistance_oracle(net: Network, u: str, v: str):
    """Effective resistance between two vertices.

    On an exact network, r(u, v) = L+[u,u] - 2 L+[u,v] + L+[v,v], an exact
    Fraction computed without NumPy from two rows of the cached
    pseudoinverse.  On a float network, r(u, v) = |Z[u] - Z[v]|^2 over two
    contiguous rows of the cached Z of _inverse_factor, a sum of squares that
    cannot cancel.  Raises DisconnectedNetworkError when the network is not
    connected, for u == v too.
    """
    i = net.vertex_index(u)
    j = net.vertex_index(v)
    if net.is_exact:
        lp = net.pseudoinverse()
        row_i, row_j = lp[i], lp[j]
        return row_i[i] - 2 * row_i[j] + row_j[j]
    import numpy as np

    z = net._embedding()
    d = z[i] - z[j]
    return _in_range(np.vdot(d, d))


def kirchhoff_oracle(net: Network):
    """Sum of effective resistances over all vertex pairs: N * trace(L+).

    N trace(L+) = N trace(G) - 1^T G 1, with G the inverse of the grounded
    block padded with zeros, since trace(P G P) = trace(G) - 1^T G 1 / N.
    Exact networks take G = D Y / det from _grounded_adjugate, so the index
    is the one Fraction D (N trace(Y) - sum(Y)) / det; they neither read nor
    fill the cached pseudoinverse, and need no permutation, as a trace and
    a sum do not depend on the order.  Float ones take the same two terms
    off the cached Z of _inverse_factor, as N (|Z|_F^2 - |Z^T 1 / sqrt N|^2):
    trace(G) = |Z|_F^2 and 1^T G 1 = |Z^T 1|^2, each a sum of squares, and
    Z >= 0, so the column sums Z^T 1 add terms of one sign.  By Cauchy and
    Schwarz the scaled column sums have squared norm at most |Z|_F^2, and
    |Z|_F^2 = trace(G), the sum of the resistances to the ground, is at most
    the index, so no term overflows where the index does not.  The one
    subtraction loses a factor N trace(G) / index of the relative accuracy:
    at most N, as the index sums over all pairs and trace(G) over the pairs
    with the ground, and 2 on a prism, or on any graph whose vertices all
    look alike.
    """
    n = net.order
    if net.is_exact:
        y, d, det, _ = _grounded_adjugate(net)
        trace = sum([row[i] for i, row in enumerate(y)])
        return Fraction(d * (n * trace - sum(map(sum, y))), det)
    import numpy as np

    z = net._embedding()
    sums = z.sum(axis=0) / math.sqrt(n)
    return _in_range(n * (float(np.vdot(z, z)) - float(np.vdot(sums, sums))))


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
    a, d, _ = _integer_laplacian(net, ground=0)
    m = net.order - 1
    _, det = _schur(a, m)
    count = Fraction(det, d ** m)
    return count.numerator if count.denominator == 1 else count


def kron_reduce(net: Network, keep: Sequence[str]) -> Network:
    """Collapse a network onto `keep`, preserving their pairwise resistances.

    Eliminates the interior vertices I first and reads the surviving edges
    off the Schur complement S = L_KK - L_KI L_II^-1 L_IK onto the kept
    vertices K, in the order given.  Exact networks run `_schur` on the
    integer rows of D*L, built with the interior in minimum-degree order and
    the kept vertices last.  Float ones build the sparse Laplacian with the
    kept vertices last, factor its interior block with _factor and solve
    L_II X = B for the dense kept columns B = L_IK with the factor's own
    solve, so that L_KI L_II^-1 L_IK = B^T X and the conductances are
    B^T X - L_KK off the diagonal.  An entry is exactly zero when no edge
    and no path through the interior joins its two vertices, and that pair
    gets no edge.  Any other entry is nonzero, and in float mode it is a
    sum of terms of one sign, so it cannot round to zero: L_II is an
    M-matrix, so the factor L D L^T has no positive entry off the diagonal
    of L and D > 0.  With B <= 0, both triangular solves add terms of one
    sign, X <= 0, B^T X sums only nonnegative products, and -L_KK is >= 0
    off the diagonal, in floating point too.  Raises
    DisconnectedNetworkError when some interior vertex has no path to any
    kept vertex, and SingularMatrixError when a float conductance, or the
    resistance it gives, is past the binary64 range.
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
        a, d, _ = _integer_laplacian(net, kidx)
        t, pivot = _schur(a, net.order - len(kidx))
        conductance = [[Fraction(-x, pivot * d) for x in row] for row in t]
    else:
        lap, _ = _sparse_laplacian(net, kidx)
        m = net.order - len(kidx)
        b = lap[:m, m:].toarray()
        conductance = (b.T @ _factor(lap[:m, :m]).solve(b) - lap[m:, m:].toarray()).tolist()

    edges = []
    for i in range(len(keep)):
        for j in range(i + 1, len(keep)):
            g = conductance[i][j]
            if g != 0:
                # a float conductance past the range, or its resistance, raises
                r = 1 / g if net.is_exact else _in_range(1 / _in_range(g))
                edges.append((keep[i], keep[j], r))
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
                raise ValueError(f'edge #{k}: bad rational {reprlib.repr(r)}') from exc
        edges.append((u, v, r))
    return Network(vertices, edges)
