"""The multigraph network type and its linear-algebra oracle."""

import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from prismres import network
from prismres.exact import Qsqrt3
from prismres.ladder import ladder_delta_edges
from prismres.network import (
    DisconnectedNetworkError,
    Network,
    SingularMatrixError,
    build_ladder,
    build_prism,
    kirchhoff_oracle,
    kron_reduce,
    matrix_tree_count,
    network_from_json,
    network_to_json,
    pinv_laplacian,
    resistance_oracle,
)
from prismres.verify import EightTerminalStencil, four_corner_laplacian


def _random_connected(rng: random.Random, size: int) -> Network:
    """Random exact multigraph: a spanning backbone plus noise edges."""
    labels = [f"v{k}" for k in range(size)]
    pool = [Fraction(1), Fraction(1, 2), Fraction(3), Fraction(5, 7), Fraction(2, 3)]
    edges = []
    for k in range(1, size):
        edges.append((labels[k], labels[rng.randrange(k)], rng.choice(pool)))
    for _ in range(size):
        u, v = rng.randrange(size), rng.randrange(size)
        edges.append((labels[u], labels[v], rng.choice(pool)))  # may parallel or loop
    return Network(labels, edges)


def _assert_exact_equal(got, rows) -> None:
    """`got` holds Fractions equal to `rows`: an object array for L, a tuple
    of row tuples for L+."""
    if isinstance(got, np.ndarray):
        assert got.dtype == object
        got = got.tolist()
    else:
        assert type(got) is tuple and all(type(row) is tuple for row in got)
    assert all(type(x) is Fraction for row in got for x in row)
    assert [list(row) for row in got] == [list(row) for row in rows]


# -- construction ---------------------------------------------------------


def test_build_prism_shape():
    for n in (1, 2, 3, 7):
        net = build_prism(n)
        assert net.order == 2 * n
        assert net.edge_count == 3 * n
        assert net.is_exact
    with pytest.raises(ValueError):
        build_prism(0)


def test_build_prism_degenerate_multigraphs():
    y1 = build_prism(1)
    loops = [(u, v) for u, v, _ in y1.edges if u == v]
    assert sorted(loops) == [("p1", "p1"), ("q1", "q1")]

    y2 = build_prism(2)
    sides = [e for e in y2.edges if e[:2] in (("p1", "p2"), ("p2", "p1"))]
    assert len(sides) == 2  # doubled rail edge


def test_build_ladder_shape():
    for n in (1, 2, 5):
        net = build_ladder(n)
        assert net.order == 2 * n
        assert net.edge_count == 3 * n - 2
    with pytest.raises(ValueError):
        build_ladder(0)


def test_network_validation():
    with pytest.raises(ValueError):
        Network([], [])
    with pytest.raises(ValueError):
        Network(["a", "a"], [])
    with pytest.raises(ValueError):
        Network(["a", "b"], [("a", "c", 1)])
    with pytest.raises(ValueError):
        Network(["a", "b"], [("a", "b", 0)])
    with pytest.raises(ValueError):
        Network(["a", "b"], [("a", "b", -2)])
    with pytest.raises(ValueError):
        Network([("a",)], [])


def test_network_rejects_non_finite_resistance():
    for r in (math.inf, math.nan, 1e-320):  # 1/1e-320 overflows
        with pytest.raises(ValueError, match=r"edge \('a', 'b'\)"):
            Network(["a", "b"], [("a", "b", 1.0), ("a", "b", r)])


def test_mode_detection():
    assert Network(["a", "b"], [("a", "b", Fraction(1, 2))]).is_exact
    assert not Network(["a", "b"], [("a", "b", 0.5)]).is_exact
    mixed = Network(["a", "b", "c"], [("a", "b", 1), ("b", "c", 0.5)])
    assert not mixed.is_exact
    assert all(isinstance(r, float) for _, _, r in mixed.edges)


def test_to_float_shares_topology():
    net = build_prism(3)
    fnet = net.to_float()
    assert not fnet.is_exact
    assert fnet.vertices == net.vertices
    assert fnet.edge_count == net.edge_count


# -- Laplacians -----------------------------------------------------------


def test_laplacian_single_edge():
    net = Network(["a", "b"], [("a", "b", 1)])
    _assert_exact_equal(net.laplacian(), [[1, -1], [-1, 1]])


def test_laplacian_ignores_loops():
    rung_only = Network(["p1", "q1"], [("p1", "q1", 1)])
    assert np.array_equal(build_prism(1).laplacian(), rung_only.laplacian())


def test_laplacian_doubled_edges_accumulate():
    expected = [
        [3, -2, -1, 0],
        [-2, 3, 0, -1],
        [-1, 0, 3, -2],
        [0, -1, -2, 3],
    ]
    _assert_exact_equal(build_prism(2).laplacian(), expected)


def test_laplacian_row_sums():
    assert all(sum(row) == 0 for row in build_prism(5).laplacian())
    float_sums = build_prism(5).to_float().laplacian().sum(axis=1)
    assert max(abs(s) for s in float_sums) <= 1e-12


def test_laplacian_weighted():
    net = Network(["a", "b"], [("a", "b", Fraction(1, 4))])
    _assert_exact_equal(net.laplacian(), [[4, -4], [-4, 4]])


# -- pseudoinverse --------------------------------------------------------


def test_pinv_single_edge():
    lp = pinv_laplacian(Network(["a", "b"], [("a", "b", 1)]))
    quarter = Fraction(1, 4)
    _assert_exact_equal(lp, [[quarter, -quarter], [-quarter, quarter]])


def test_pinv_triangle():
    tri = Network(list("abc"), [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    lp = tri.pseudoinverse()
    assert lp[0][0] == Fraction(2, 9)
    assert lp[0][1] == Fraction(-1, 9)


def test_pinv_penrose_identities_small(prisms, ladders):
    for net in (prisms(4), ladders(5)):
        lap = net.laplacian()
        lp = net.pseudoinverse()
        assert not (lap @ lp @ lap - lap).any()
        assert not (lp @ lap @ lp - lp).any()
        assert all(sum(row) == 0 for row in lp)


def test_pinv_float_residual(float_prisms):
    net = float_prisms(40)
    lap = net.laplacian()
    lp = net.pseudoinverse()
    assert np.abs(lap @ lp @ lap - lap).max() <= 1e-10


def test_float_pinv_is_the_centred_gram_matrix(prisms, ladders):
    # (M P)^T (M P) is one syrk with a mirrored triangle: symmetric bit for bit
    for net in [build(n) for build in (prisms, ladders) for n in range(1, 13)]:
        approx = pinv_laplacian(net.to_float())
        assert np.array_equal(approx, approx.T)
        want = np.array([[float(x) for x in row] for row in net.pseudoinverse()])
        assert np.abs(approx - want).max() <= 1e-12, net


def test_one_vertex_network():
    for r in (1, 1.0):
        net = Network(["a"], [("a", "a", r)])  # the loop only sets the mode
        assert net.is_exact == isinstance(r, int)
        lp = net.pseudoinverse()
        if net.is_exact:
            _assert_exact_equal(lp, [[0]])
        else:
            assert np.array_equal(lp, [[0]]) and lp.dtype == float
        assert kirchhoff_oracle(net) == 0
        assert resistance_oracle(net, "a", "a") == 0


def test_pinv_disconnected():
    two = Network(list("abcd"), [("a", "b", 1), ("c", "d", 1)])
    with pytest.raises(DisconnectedNetworkError):
        two.pseudoinverse()
    with pytest.raises(DisconnectedNetworkError):
        two.to_float().pseudoinverse()
    for net in (two, two.to_float()):
        with pytest.raises(DisconnectedNetworkError):
            resistance_oracle(net, "a", "c")
        with pytest.raises(DisconnectedNetworkError):
            resistance_oracle(net, "a", "a")
        with pytest.raises(DisconnectedNetworkError):
            kirchhoff_oracle(net)


def test_connectivity_is_read_off_the_edges(monkeypatch):
    two = Network(list("abcd"), [("a", "b", 1), ("c", "d", 1)])

    def no_laplacian(self):
        raise AssertionError("built a Laplacian to decide connectivity")

    monkeypatch.setattr(Network, "laplacian", no_laplacian)
    assert matrix_tree_count(two) == 0
    for net in (two, two.to_float()):
        with pytest.raises(DisconnectedNetworkError):
            net.pseudoinverse()
        with pytest.raises(DisconnectedNetworkError):
            kron_reduce(net, ["a", "b"])  # c and d have no path to a kept vertex


def _oracle_answers(net):
    answers = [resistance_oracle(net, "p1", "q2"),
               network_to_json(kron_reduce(net, ["p1", "q2", "p3"]))]
    if net.is_exact:
        answers.append(matrix_tree_count(net))
    return answers


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_only_the_pseudoinverse_is_cached(mode):
    def fresh():
        net = build_prism(3)
        return net if mode == "exact" else net.to_float()

    want = _oracle_answers(fresh())
    net = fresh()
    lap = net.laplacian()
    assert lap is not net.laplacian() and lap.flags.writeable
    lap[:, :] = 5  # the caller's copy; no later answer may read it
    assert np.array_equal(net.laplacian(), fresh().laplacian())
    assert _oracle_answers(net) == want
    pinv = net.pseudoinverse()
    assert pinv is net.pseudoinverse()
    with pytest.raises(TypeError if mode == "exact" else ValueError):
        pinv[0][0] = 5
    assert _oracle_answers(net) == want


def test_float_eliminations_factor_their_own_laplacian_in_place():
    warm = build_prism(3).to_float()
    warm.pseudoinverse()
    kron_reduce(warm, ["p1", "q2", "p3"])
    square = 8 * 800 ** 2  # one float64 array of order 800
    # L+ = (M P)^T (M P) holds M and the product, two order-N arrays
    for reduce, bound in ((lambda net: net.pseudoinverse(), 2.5),
                          (lambda net: kron_reduce(net, ["p1", "q100", "p200"]), 1.5)):
        net = build_prism(400).to_float()
        tracemalloc.start()
        try:
            reduce(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * square, (peak / square, bound)


def test_float_queries_hold_one_order_n_array():
    warm = build_prism(3).to_float()
    resistance_oracle(warm, "p1", "q2")
    kirchhoff_oracle(warm)
    square = 8 * 800 ** 2  # one float64 array of order 800
    for query in (lambda net: resistance_oracle(net, "p1", "q200"), kirchhoff_oracle):
        net = build_prism(400).to_float()
        tracemalloc.start()
        try:
            query(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * square, peak / square


def test_float_resistance_and_kirchhoff_build_no_pseudoinverse(monkeypatch):
    exact = build_prism(5)
    r, kf = float(resistance_oracle(exact, "p1", "q3")), float(kirchhoff_oracle(exact))

    def no_pinv(net):
        raise AssertionError("built L+")

    monkeypatch.setattr(network, "pinv_laplacian", no_pinv)
    net = exact.to_float()
    assert abs(resistance_oracle(net, "p1", "q3") - r) <= 1e-15 * r
    assert abs(kirchhoff_oracle(net) - kf) <= 1e-15 * kf
    assert resistance_oracle(net, "q2", "q2") == 0.0
    m = net._embedding()
    assert m is net._embedding()
    with pytest.raises(ValueError):
        m[0, 0] = 5
    with pytest.raises(AssertionError, match="built L"):
        resistance_oracle(build_prism(5), "p1", "q3")


@pytest.mark.parametrize("fault", ["info", "nan"])
def test_a_failed_factor_inversion_is_singular(monkeypatch, fault):
    from scipy.linalg import lapack

    dtrtri = lapack.dtrtri

    def failing(c, **kwargs):
        inv, info = dtrtri(c, **kwargs)
        if fault == "nan":
            inv[-1, 0] = math.nan
            return inv, info
        return inv, 2

    monkeypatch.setattr(lapack, "dtrtri", failing)
    net = build_prism(3).to_float()
    with pytest.raises(SingularMatrixError):
        resistance_oracle(net, "p1", "q2")
    with pytest.raises(SingularMatrixError):
        kirchhoff_oracle(net)
    with pytest.raises(SingularMatrixError):
        net.pseudoinverse()


def test_pinv_float_overflow_is_singular_not_disconnected():
    # two parallel 1e-308 ohm edges overflow the conductance sum to inf
    net = Network(list("abc"), [("a", "b", 1e-308), ("a", "b", 1e-308), ("b", "c", 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow to inf is not a warning
        with pytest.raises(SingularMatrixError):
            net.pseudoinverse()


def test_float_answer_past_the_binary64_range_is_singular():
    # each resistor fits, r(v0, v2) = 2e308 and Kf = 3 (1e308 + 1e308 + 2e308) do not
    net = _path(1e308, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow to inf is not a warning
        with pytest.raises(SingularMatrixError, match="binary64 range"):
            resistance_oracle(net, "v0", "v2")
        with pytest.raises(SingularMatrixError, match="binary64 range"):
            kirchhoff_oracle(net)
        assert resistance_oracle(net, "v0", "v1") == 1e308


# -- resistance and Kirchhoff oracles ------------------------------------


def test_resistance_basic_values():
    single = Network(["a", "b"], [("a", "b", 1)])
    assert resistance_oracle(single, "a", "b") == 1
    tri = Network(list("abc"), [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert resistance_oracle(tri, "a", "b") == Fraction(2, 3)
    assert resistance_oracle(tri, "a", "a") == 0


def test_resistance_series_parallel():
    series = Network(list("abc"), [("a", "b", 1), ("b", "c", 1)])
    assert resistance_oracle(series, "a", "c") == 2
    parallel = Network(["a", "b"], [("a", "b", 1), ("a", "b", 1)])
    assert resistance_oracle(parallel, "a", "b") == Fraction(1, 2)
    with_loop = Network(["a", "b"], [("a", "b", 1), ("a", "a", 5)])
    assert resistance_oracle(with_loop, "a", "b") == 1


def test_resistance_is_symmetric(prisms):
    net = prisms(4)
    assert resistance_oracle(net, "p1", "q3") == resistance_oracle(net, "q3", "p1")


def test_resistance_unknown_vertex():
    net = Network(["a", "b"], [("a", "b", 1)])
    with pytest.raises(ValueError):
        resistance_oracle(net, "a", "z")


def test_kirchhoff_oracle_values(prisms):
    single = Network(["a", "b"], [("a", "b", 1)])
    assert kirchhoff_oracle(single) == 1
    assert kirchhoff_oracle(prisms(2)) == Fraction(11, 3)
    assert kirchhoff_oracle(prisms(5)) == Fraction(655, 19)


def test_kirchhoff_oracle_equals_pair_sum():
    cycle = Network(list("abcd"), [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)])
    labels = cycle.vertices
    manual = sum(resistance_oracle(cycle, labels[i], labels[j])
                 for i in range(4) for j in range(i + 1, 4))
    assert kirchhoff_oracle(cycle) == manual == 5


def test_metric_triangle_inequality_randomized():
    rng = random.Random(99)
    for _ in range(8):
        net = _random_connected(rng, rng.randrange(3, 8))
        a, b, c = rng.sample(net.vertices, 3)
        ab = resistance_oracle(net, a, b)
        bc = resistance_oracle(net, b, c)
        ac = resistance_oracle(net, a, c)
        assert ac <= ab + bc


# -- the exact oracle against an independent reference -------------------


def _fraction_laplacian(net: Network) -> list[list[Fraction]]:
    """The Laplacian accumulated edge by edge in Fractions."""
    at = {v: k for k, v in enumerate(net.vertices)}
    lap = [[Fraction(0)] * net.order for _ in range(net.order)]
    for u, v, r in net.edges:
        if u != v:
            i, j = at[u], at[v]
            lap[i][i] += 1 / r
            lap[j][j] += 1 / r
            lap[i][j] -= 1 / r
            lap[j][i] -= 1 / r
    return lap


def _gauss_jordan(a: list[list[Fraction]]) -> tuple[list[list[Fraction]], Fraction]:
    """(inverse, determinant) of a nonsingular Fraction matrix, with row swaps."""
    m = len(a)
    rows = [row + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(a)]
    det = Fraction(1)
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c] != 0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(m):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[m:] for row in rows], det


def _random_multigraph(rng: random.Random, size: int, distinct: int) -> Network:
    """Connected exact multigraph with a loop and a parallel edge, its
    resistances drawn from `distinct` random p/q with p, q <= 10^6."""
    pool = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(distinct)]
    labels = [f"v{k}" for k in range(size)]
    edges = [(labels[k], labels[rng.randrange(k)], rng.choice(pool)) for k in range(1, size)]
    edges += [(labels[rng.randrange(size)], labels[rng.randrange(size)], rng.choice(pool))
              for _ in range(size)]
    edges.append((labels[-1], labels[-1], rng.choice(pool)))
    if size > 1:
        edges.append(edges[0][:2] + (rng.choice(pool),))
    rng.shuffle(edges)
    return Network(labels, edges)


def _centred_inverse(a: list[list[Fraction]]) -> tuple[list[list[Fraction]], Fraction]:
    """(X+, det(X + J/k)) for a symmetric k x k X with zero row sums and a
    one-dimensional kernel: X+ = (X + J/k)^-1 - J/k."""
    j = Fraction(1, len(a))
    inv, det = _gauss_jordan([[x + j for x in row] for row in a])
    return [[x - j for x in row] for row in inv], det


# every resistance its own draw up to order 19; past that a few draws, as
# exact eliminations slow down with the lcm of the conductance denominators
@pytest.mark.parametrize("size, distinct", [(1, 4), (2, 6), (3, 8), (4, 10), (6, 14), (9, 20),
                                            (13, 28), (19, 40), (27, 8), (40, 4)])
def test_exact_oracle_matches_gauss_jordan(size, distinct):
    rng = random.Random(1400 + size)
    net = _random_multigraph(rng, size, distinct)
    lp, det = _centred_inverse(_fraction_laplacian(net))
    _assert_exact_equal(pinv_laplacian(net), lp)
    # L + J/N has the eigenvalues of L, with a 1 in place of the 0, and the
    # product of L's nonzero eigenvalues is N times the weighted tree count
    assert matrix_tree_count(net) == det / size
    for k in range(1, min(size, 4) + 1):
        kidx = rng.sample(range(size), k)
        # the reduced Laplacian's pseudoinverse is L+ on the kept vertices,
        # centred: both give the kept vertices' potentials for currents
        # that enter and leave there
        c = Fraction(1, k)
        block = [[lp[a][b] for b in kidx] for a in kidx]
        sums = [sum(row) for row in block]
        total = sum(sums)
        centred = [[x - c * (sa + sb) + c * c * total for x, sb in zip(row, sums)]
                   for row, sa in zip(block, sums)]
        lap_k, _ = _centred_inverse(centred)
        keep = [net.vertices[i] for i in kidx]
        want = {(keep[a], keep[b]): 1 / -lap_k[a][b]
                for a in range(k) for b in range(a + 1, k) if lap_k[a][b]}
        reduced = kron_reduce(net, keep)
        assert reduced.vertices == tuple(keep)
        assert {(u, v): r for u, v, r in reduced.edges} == want


def test_exact_eliminations_build_no_laplacian(monkeypatch, prisms):
    nets = [_random_multigraph(random.Random(7), 12, 26), prisms(3)]
    want = [(pinv_laplacian(net), network_to_json(kron_reduce(net, net.vertices[:3])),
             matrix_tree_count(net)) for net in nets]

    def no_laplacian(self):
        raise AssertionError("an exact elimination built a Fraction Laplacian")

    monkeypatch.setattr(Network, "laplacian", no_laplacian)
    for net, (lp, reduced, trees) in zip(nets, want):
        _assert_exact_equal(pinv_laplacian(net), lp)
        assert network_to_json(kron_reduce(net, net.vertices[:3])) == reduced
        assert matrix_tree_count(net) == trees


@pytest.mark.parametrize("net", [
    Network(["a"], []),
    Network(["a"], [("a", "a", Fraction(2, 3))]),
    Network(list("abc"), []),
    Network(list("abc"), [("a", "b", 2), ("a", "b", Fraction(2, 3)), ("c", "c", 5),
                          ("b", "c", Fraction(7, 4)), ("c", "b", Fraction(7, 4))]),
    _random_multigraph(random.Random(3), 15, 32),
], ids=["one-vertex", "one-vertex-loop", "no-edges", "loops-and-parallels", "random"])
def test_exact_laplacian_equals_the_fraction_accumulation(net):
    _assert_exact_equal(net.laplacian(), _fraction_laplacian(net))


# -- the exact elimination kernel ----------------------------------------


def _sparse_definite(rng: random.Random, size: int, blocks: int) -> list[list[int]]:
    """Symmetric positive-definite int matrix: `blocks` contiguous diagonal
    blocks with a few off-diagonal entries in [-9, 9] each, every diagonal
    entry above its row's absolute sum."""
    cuts = [0, *sorted(rng.sample(range(1, size), min(blocks, size) - 1)), size]
    a = [[0] * size for _ in range(size)]
    for lo, hi in zip(cuts, cuts[1:]):
        for _ in range(hi - lo):
            i, j = rng.randrange(lo, hi), rng.randrange(lo, hi)
            if i != j:
                a[i][j] = a[j][i] = rng.choice([x for x in range(-9, 10) if x])
    for i, row in enumerate(a):
        row[i] = sum(map(abs, row)) + rng.randint(1, 9)
    return a


def _bordered(rng: random.Random, a: list[list[int]], extra: int) -> list[list[int]]:
    """[[a, B], [B^T, C]] with B sparse and C symmetric, half of its rows zero."""
    size = len(a)
    full = [row + [0] * extra for row in a] + [[0] * (size + extra) for _ in range(extra)]
    for _ in range(size):
        i, j = rng.randrange(size), size + rng.randrange(extra)
        full[i][j] = full[j][i] = rng.randint(-9, 9)
    for i in range(size, size + extra, 2):
        for j in range(i, size + extra, 2):
            full[i][j] = full[j][i] = rng.randint(-9, 9)
    return full


def _fraction_schur(a: list[list[int]], k: int) -> tuple[list[list[Fraction]], Fraction]:
    """(Schur complement of the leading k x k block, its determinant), by
    Gaussian elimination in Fractions."""
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for s in range(k):
        pivot = m[s][s]
        det *= pivot
        for r in range(s + 1, len(m)):
            f = m[r][s] / pivot
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[s])]
    return [row[k:] for row in m[k:]], det


@pytest.mark.parametrize("seed", range(12))
def test_deferred_schur_equals_the_fraction_schur_complement(seed):
    rng = random.Random(2200 + seed)
    size = rng.randint(1, 24)
    # up to three blocks: the rows of a later block wait for every pivot of
    # the earlier ones, and the border rows start as zeros
    a = _sparse_definite(rng, size, 1 + seed % 3)
    for matrix, k in [(a, size), (a, rng.randrange(size + 1)),
                      (_bordered(rng, a, rng.randint(1, 6)), size)]:
        want, det = _fraction_schur(matrix, k)
        t, pivot = network._schur([row[:] for row in matrix], k)
        assert pivot == det
        assert all(type(x) is int for row in t for x in row)
        assert [[Fraction(x, pivot) for x in row] for row in t] == want


def _pendant_multigraph(rng: random.Random, size: int) -> Network:
    """Connected exact multigraph of `size` vertices: a random core with a
    loop and a parallel edge, and long paths hung off it.  The vertices are
    shuffled, so the ground, vertex 0, lands anywhere; a path's rows wait
    out every pivot until the elimination reaches them."""
    pool = [Fraction(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(rng.randint(1, 6))]
    labels = [f"v{k}" for k in range(size)]
    rng.shuffle(labels)
    core = rng.randint(1, size)
    edges = [(labels[k], labels[rng.randrange(k)], rng.choice(pool)) for k in range(1, core)]
    edges += [(labels[rng.randrange(core)], labels[rng.randrange(core)], rng.choice(pool))
              for _ in range(core // 2)]
    edges.append((labels[0], labels[0], rng.choice(pool)))
    if edges[0][0] != edges[0][1]:
        edges.append(edges[0][:2] + (rng.choice(pool),))
    for k in range(core, size):
        # start a new path off the core, or grow the last one
        tail = labels[rng.randrange(core)] if rng.random() < 0.2 else labels[k - 1]
        edges.append((tail, labels[k], rng.choice(pool)))
    return Network(sorted(labels, key=lambda v: int(v[1:])), edges)


def _adjugate_draws(prisms, ladders) -> list[Network]:
    rng = random.Random(2300)
    nets = [prisms(n) for n in range(1, 13)] + [ladders(n) for n in range(1, 13)]
    nets += [_pendant_multigraph(rng, rng.randint(1, 24)) for _ in range(20)]
    nets += [_random_multigraph(rng, rng.randint(1, 24), rng.randint(1, 6)) for _ in range(20)]
    return nets


def test_adjugate_equals_the_bordered_schur_and_gauss_jordan(prisms, ladders):
    for net in _adjugate_draws(prisms, ladders):
        y, d, det, order = network._grounded_adjugate(net)
        a, d_want, order_want = network._integer_laplacian(net, ground=0)
        m = net.order - 1
        # the reference: the Schur complement of [[D*L0, I], [I, 0]] is -(D*L0)^-1
        bordered = [row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
        bordered += [[int(i == j) for j in range(m)] + [0] * m for i in range(m)]
        t, bordered_det = network._schur(bordered, m)
        inv, gj_det = _gauss_jordan([[Fraction(x) for x in row] for row in a])
        assert (d, order) == (d_want, order_want)
        assert det == bordered_det == gj_det
        assert all(type(x) is int for row in y for x in row)
        assert y == [[-x for x in row] for row in t]
        assert [[Fraction(x, det) for x in row] for row in y] == inv


def test_exact_kirchhoff_reads_the_adjugate(monkeypatch, prisms, ladders):
    from prismres.prism import kirchhoff_closed

    draws = _adjugate_draws(prisms, ladders)
    want = []
    for net in draws:
        lp = pinv_laplacian(net)
        want.append(net.order * sum(lp[i][i] for i in range(net.order)))
        assert kirchhoff_oracle(net) == want[-1]
    one = kirchhoff_oracle(Network(["a"], []))
    assert type(one) is Fraction and one == 0
    for n in range(1, 41):
        assert kirchhoff_oracle(prisms(n)) == kirchhoff_closed(n)

    def no_pinv(net):
        raise AssertionError("built L+")

    monkeypatch.setattr(network, "pinv_laplacian", no_pinv)
    for net, kf in zip(draws, want):
        fresh = network_from_json(network_to_json(net))
        assert kirchhoff_oracle(fresh) == kf
        assert fresh._pinv is None
    with pytest.raises(AssertionError, match="built L"):
        resistance_oracle(build_prism(5), "p1", "q3")


def test_minimum_degree_order_is_a_deterministic_permutation(prisms, ladders):
    rng = random.Random(2300)
    nets = [prisms(6), ladders(7), _random_multigraph(rng, 20, 8), _random_connected(rng, 25)]
    for net in nets:
        size = net.order
        for keep, ground in [((), 0), ((), None), (tuple(rng.sample(range(size), 4)), None)]:
            order = network._min_degree(net, keep, ground)
            assert sorted(order) == sorted(set(range(size)) - set(keep) - {ground})
            # independent of the order of the edges and of the sets' iteration
            shuffled = Network(net.vertices, rng.sample(list(net.edges), net.edge_count))
            assert network._min_degree(shuffled, keep, ground) == order
            rows, d, full = network._integer_laplacian(net, keep, ground)
            assert full == order + list(keep)
            lap = _fraction_laplacian(net)
            assert rows == [[d * lap[i][j] for j in full] for i in full]
    path = Network([f"v{k}" for k in range(5)], [(f"v{k}", f"v{k + 1}", 1) for k in range(4)])
    star = Network([f"v{k}" for k in range(5)], [("v0", f"v{k}", 1) for k in range(4, 0, -1)])
    # fewest neighbours first, the lower index among equals; kept vertices
    # count as neighbours, the ground does not
    assert network._min_degree(path, (), None) == [0, 1, 2, 3, 4]
    assert network._min_degree(path, (0,), None) == [4, 3, 2, 1]
    assert network._min_degree(path, (), 2) == [0, 1, 3, 4]
    # with one leaf left, the centre ties with it and has the lower index
    assert network._min_degree(star, (), None) == [1, 2, 3, 0, 4]
    assert network._min_degree(star, (3,), 1) == [2, 4, 0]


# -- spanning trees -------------------------------------------------------


def test_matrix_tree_values(prisms, ladders):
    tri = Network(list("abc"), [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    assert matrix_tree_count(tri) == 3
    k4_edges = [(u, v, 1) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]]
    assert matrix_tree_count(Network(list("abcd"), k4_edges)) == 16
    assert matrix_tree_count(prisms(3)) == 75
    assert matrix_tree_count(ladders(4)) == 56
    assert matrix_tree_count(Network(["a"], [])) == 1


def test_matrix_tree_weighted():
    # conductance-weighted count: each triangle tree has product 2 * 2 = 4
    half = Fraction(1, 2)
    tri = Network(list("abc"), [("a", "b", half), ("b", "c", half), ("a", "c", half)])
    assert matrix_tree_count(tri) == 12
    path = Network(["a", "b"], [("a", "b", 3)])
    assert matrix_tree_count(path) == Fraction(1, 3)


def test_matrix_tree_disconnected_and_float():
    two = Network(list("abcd"), [("a", "b", 1), ("c", "d", 1)])
    assert matrix_tree_count(two) == 0
    with pytest.raises(TypeError):
        matrix_tree_count(two.to_float())


# -- Kron reduction -------------------------------------------------------


def test_kron_series_collapse():
    series = Network(list("abc"), [("a", "b", 1), ("b", "c", 1)])
    reduced = kron_reduce(series, ["a", "c"])
    assert reduced.vertices == ("a", "c")
    assert list(reduced.edges) == [("a", "c", Fraction(2))]


def test_kron_star_to_triangle():
    star = Network(list("oabc"), [("o", "a", 1), ("o", "b", 1), ("o", "c", 1)])
    reduced = kron_reduce(star, ["a", "b", "c"])
    assert reduced.edge_count == 3
    assert all(r == 3 for _, _, r in reduced.edges)


def test_kron_keep_everything_merges_parallels(prisms):
    for y2 in (prisms(2), prisms(2).to_float()):
        reduced = kron_reduce(y2, list(y2.vertices))
        assert reduced.is_exact == y2.is_exact
        assert np.array_equal(reduced.laplacian(), y2.laplacian())
        assert reduced.edge_count == 4  # doubled edges merged, loops gone


def test_kron_preserves_resistances_randomized():
    rng = random.Random(2024)
    for _ in range(6):
        net = _random_connected(rng, rng.randrange(4, 9))
        keep = rng.sample(net.vertices, rng.randrange(2, 4))
        reduced = kron_reduce(net, keep)
        for i in range(len(keep)):
            for j in range(i + 1, len(keep)):
                assert (resistance_oracle(reduced, keep[i], keep[j])
                        == resistance_oracle(net, keep[i], keep[j]))


def test_kron_open_circuit_survives_round_trip(ladders):
    # the 2-rung ladder's corner diagonal is an open circuit: 4 edges, not 5
    reduced = kron_reduce(ladders(2), ["p2", "q2", "p1", "q1"])
    assert reduced.edge_count == 4
    pairs = {tuple(sorted((u, v))) for u, v, _ in reduced.edges}
    assert ("p1", "q2") not in pairs and ("p2", "q1") not in pairs

    freduced = kron_reduce(ladders(2).to_float(), ["p2", "q2", "p1", "q1"])
    assert freduced.edge_count == 4


def test_kron_float_matches_exact(ladders):
    exact = kron_reduce(ladders(5), ["p5", "q5", "p1", "q1"])
    approx = kron_reduce(ladders(5).to_float(), ["p5", "q5", "p1", "q1"])
    for (u, v, r), (fu, fv, fr) in zip(exact.edges, approx.edges):
        assert (u, v) == (fu, fv)
        assert abs(float(r) - fr) <= 1e-12 * float(r)


def _two_blocks(rng: random.Random, size: int) -> tuple[Network, list[str]]:
    """An exact multigraph of two random blocks sharing the cut vertex v0,
    and a kept set holding v0 and vertices of both blocks.  Every path
    between the blocks crosses v0, so a kept vertex of one block and one of
    the other are joined by no path through the interior."""
    labels = [f"v{k}" for k in range(size)]
    split = rng.randrange(2, size - 1)
    blocks = [labels[:split], labels[:1] + labels[split:]]
    pool = [Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(6)]
    edges, keep = [], [labels[0]]
    for block in blocks:
        edges += [(block[k], block[rng.randrange(k)], rng.choice(pool)) for k in range(1, len(block))]
        edges += [(rng.choice(block), rng.choice(block), rng.choice(pool)) for _ in block]
        keep += rng.sample(block[1:], rng.randrange(1, len(block)))
    rng.shuffle(keep)
    return Network(labels, edges), keep


def test_float_kron_has_the_exact_edges():
    rng = random.Random(2424)
    for _ in range(40):
        net, keep = _two_blocks(rng, rng.randrange(4, 17))
        want = {(u, v): float(r) for u, v, r in kron_reduce(net, keep).edges}
        got = {(u, v): r for u, v, r in kron_reduce(net.to_float(), keep).edges}
        assert len(want) < len(keep) * (len(keep) - 1) // 2  # pairs across v0
        assert got.keys() == want.keys()
        assert all(abs(got[p] - r) <= 1e-9 * r for p, r in want.items())


def test_kron_floating_interior_rejected():
    net = Network(list("abc"), [("a", "b", 1)])
    with pytest.raises(DisconnectedNetworkError):
        kron_reduce(net, ["a", "b"])  # c has no path to the kept set
    with pytest.raises(DisconnectedNetworkError):
        kron_reduce(net.to_float(), ["a", "b"])
    # two components, each holding a kept vertex, reduce to two isolated ones
    split = Network(list("abcd"), [("a", "b", 1), ("c", "d", 1)])
    for mode in (split, split.to_float()):
        reduced = kron_reduce(mode, ["a", "c"])
        assert reduced.vertices == ("a", "c") and reduced.edge_count == 0


def test_kron_validates_keep(prisms):
    with pytest.raises(ValueError):
        kron_reduce(prisms(3), [])
    with pytest.raises(ValueError):
        kron_reduce(prisms(3), ["p1", "p1"])
    with pytest.raises(ValueError):
        kron_reduce(prisms(3), ["p1", "nope"])


# -- scale: the graph decides connectivity, at any magnitude --------------


def _path(*rs) -> Network:
    labels = [f"v{k}" for k in range(len(rs) + 1)]
    return Network(labels, [(labels[k], labels[k + 1], r) for k, r in enumerate(rs)])


def test_float_path_of_huge_resistors_is_connected():
    assert abs(resistance_oracle(_path(1e13, 1e13), "v0", "v2") - 2e13) <= 1e-12 * 2e13


def test_float_mixed_magnitude_path_is_connected():
    want = 1e7 + 1e-7
    assert abs(resistance_oracle(_path(1e-7, 1e7), "v0", "v2") - want) <= 1e-12 * want


@pytest.mark.parametrize("rs", [(1e7, 1e-7), (1e7, 1e-7, 1e7), (1e9, 1e-9)])
def test_float_path_grounds_its_largest_conductance_sum(rs):
    # grounded at v0, the large conductance is eliminated before the ground:
    # 2.4% and 1.5% off for the first two, and a failed Cholesky for the last
    want = sum(rs)
    got = resistance_oracle(_path(*rs), "v0", f"v{len(rs)}")
    assert abs(got - want) <= 1e-12 * want


def test_float_kron_keeps_huge_edges():
    (u, v, r), = kron_reduce(_path(1e12, 1e12), ["v0", "v2"]).edges
    assert (u, v) == ("v0", "v2")
    assert abs(r - 2e12) <= 1e-12 * 2e12


@pytest.mark.parametrize("net, keep", [
    # the parallel pair's conductance sum is inf; the path's reduced
    # conductance, 5e-309, has no finite resistance
    (Network(list("abc"), [("a", "b", 1e-308), ("a", "b", 1e-308), ("b", "c", 1.0)]), ["a", "b"]),
    (_path(1e308, 1e308), ["v0", "v2"]),
], ids=["parallel", "path"])
def test_float_kron_past_the_binary64_range_is_singular(net, keep):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither overflow is a warning
        with pytest.raises(SingularMatrixError, match="binary64 range"):
            kron_reduce(net, keep)


def test_float_scaled_prism_is_accurate(prisms):
    net = prisms(20)
    big = Network(net.vertices, [(u, v, 1e12 * float(r)) for u, v, r in net.edges])
    want = 1e12 * float(resistance_oracle(net, "p1", "q7"))
    assert abs(resistance_oracle(big, "p1", "q7") - want) <= 1e-12 * want


def test_scale_invariance_randomized():
    rng = random.Random(31)
    for _ in range(6):
        net = _random_connected(rng, rng.randrange(3, 9))
        labels = net.vertices
        keep = rng.sample(labels, 3)
        pairs = [(a, b) for k, a in enumerate(labels) for b in labels[k + 1:]]
        r = {p: resistance_oracle(net, *p) for p in pairs}
        kirchhoff = kirchhoff_oracle(net)
        kron = list(kron_reduce(net, keep).edges)

        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = Network(labels, [(u, v, c * x) for u, v, x in net.edges])
        assert all(resistance_oracle(scaled, *p) == c * r[p] for p in pairs)
        assert kirchhoff_oracle(scaled) == c * kirchhoff
        assert list(kron_reduce(scaled, keep).edges) == [(u, v, c * x) for u, v, x in kron]
        assert matrix_tree_count(scaled) == matrix_tree_count(net) / c ** (len(labels) - 1)

        def close(got, want: Fraction, s: float) -> bool:
            return abs(got - s * float(want)) <= 1e-12 * s * float(want)

        for k in range(-6, 13):
            s = 10.0 ** k
            fscaled = Network(labels, [(u, v, s * float(x)) for u, v, x in net.edges])
            assert all(close(resistance_oracle(fscaled, *p), r[p], s) for p in pairs), (k, labels)
            assert close(kirchhoff_oracle(fscaled), kirchhoff, s), k
            fkron = list(kron_reduce(fscaled, keep).edges)
            assert [e[:2] for e in fkron] == [e[:2] for e in kron], k
            assert all(close(fx, x, s) for (_, _, fx), (_, _, x) in zip(fkron, kron)), k


def test_float_error_within_conditioning_bound():
    # Cholesky's error does not change under diagonal scaling (van der Sluis),
    # so it is governed by kappa(S), S = D^-1/2 L0 D^-1/2 with D = diag(L0),
    # not by kappa(L0), which the spread of the conductances inflates.
    # First order in the backward error dS, |dr| <= |dS| |y|^2 <= N eps
    # kappa(S) r; centring and the three-term sum round at the size of L+'s
    # entries, N eps max|L+|.  Resistances are powers of two, so the float
    # network is exactly the exact one.
    eps = np.finfo(float).eps
    rng = random.Random(5)
    for _ in range(8):
        size = rng.randrange(2, 61)
        labels = [f"v{k}" for k in range(size)]

        def pick():
            return Fraction(2) ** rng.randint(-16, 16)  # 10^+-5 ohms

        edges = [(labels[k], labels[rng.randrange(k)], pick()) for k in range(1, size)]
        edges += [(rng.choice(labels), rng.choice(labels), pick()) for _ in range(size)]
        net = Network(labels, edges)
        fnet = net.to_float()
        lap = fnet.laplacian()
        k = int(np.argmax(lap.diagonal()))  # the float path's ground
        l0 = np.delete(np.delete(lap, k, 0), k, 1)
        d = 1.0 / np.sqrt(l0.diagonal())
        kappa = np.linalg.cond(l0 * np.outer(d, d))
        lx, lf = net.pseudoinverse(), fnet.pseudoinverse()
        scale = size * eps * np.abs(lf).max()
        for i in range(size):
            for j in range(i + 1, size):
                r = lx[i][i] - 2 * lx[i][j] + lx[j][j]
                got = lf[i, i] - 2 * lf[i, j] + lf[j, j]
                assert abs(got - float(r)) <= size * eps * kappa * float(r) + scale, (size, i, j)
        keep = rng.sample(labels, min(size, 3))
        assert ([e[:2] for e in kron_reduce(fnet, keep).edges]
                == [e[:2] for e in kron_reduce(net, keep).edges])


def _power_of_two_networks(seed: int, count: int):
    """Exact multigraphs of 2 to 60 vertices, resistances 2^-16 to 2^16
    ohms: a random spanning tree plus as many random edges, loops and
    parallels included.  Their float copies are exactly the same networks."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randrange(2, 61)
        labels = [f"v{k}" for k in range(size)]

        def pick():
            return Fraction(2) ** rng.randint(-16, 16)

        edges = [(labels[k], labels[rng.randrange(k)], pick()) for k in range(1, size)]
        edges += [(rng.choice(labels), rng.choice(labels), pick()) for _ in range(size)]
        yield Network(labels, edges)


def test_float_oracle_within_its_sum_of_squares_bound():
    # A float resistance is |d|^2, d = M[:,u] - M[:,v], where M = C^-1 and
    # C C^T = A, the Laplacian grounded at k as a row and column of the
    # identity; D = diag(A) and S = D^-1/2 A D^-1/2 as in the test above.
    # First order in eps, with g_u = |M[:,u]| = sqrt(r(u, k)):
    # * the factor is exact for A + dA, which moves r by at most
    #   N eps kappa(S) r, as in the test above;
    # * the triangular inverse is within c_N eps/2 |C^-1| |C| |C^-1|, with
    #   c_N <= N (Higham, Accuracy and Stability of Numerical Algorithms,
    #   ch. 14).  C = D^1/2 C_S with C_S C_S^T = S, so column u of that
    #   matrix is |C_S^-1| |C_S| |C_S^-1 e_u| d_u^-1/2, of norm at most
    #   N sqrt(kappa(S)) g_u, since |||B|||_2 <= sqrt(N) ||B||_2.  So |d|
    #   moves by N^2 eps sqrt(kappa(S)) (g_u + g_v) and |d|^2 by 2 |d| times
    #   that;
    # * rounding |d|^2 itself: the difference and the square round each term
    #   by eps relative, and N nonnegative terms sum within N eps/2, so
    #   (N + 2) eps r.  No term cancels, so nothing scales with max |L+|.
    # The Kirchhoff index N |M P|_F^2 is the sum of |d|^2 over the pairs, so
    # the first two terms add up over the pairs.  An error in a row's mean
    # moves that row's sum of squares only to second order (the exact mean
    # minimises it), and the N^2 nonnegative squares sum within N^2 eps
    # relative.
    eps = np.finfo(float).eps
    for net in _power_of_two_networks(5, 8):
        size = net.order
        fnet = net.to_float()
        lap = fnet.laplacian()
        k = int(np.argmax(lap.diagonal()))  # the float path's ground
        l0 = np.delete(np.delete(lap, k, 0), k, 1)
        d = 1.0 / np.sqrt(l0.diagonal())
        kappa = np.linalg.cond(l0 * np.outer(d, d))
        lx = net.pseudoinverse()
        exact = [[float(lx[i][i] - 2 * lx[i][j] + lx[j][j]) for j in range(size)]
                 for i in range(size)]
        g = [math.sqrt(row[k]) for row in exact]
        labels = net.vertices
        factor_bound = 0.0
        for i in range(size):
            for j in range(i, size):
                r = exact[i][j]
                pair = size * eps * (kappa * r
                                     + 2 * math.sqrt(r) * size * math.sqrt(kappa) * (g[i] + g[j]))
                got = resistance_oracle(fnet, labels[i], labels[j])
                assert abs(got - r) <= pair + (size + 2) * eps * r, (size, i, j, got, r)
                factor_bound += pair
        want = float(kirchhoff_oracle(net))
        got = kirchhoff_oracle(fnet)
        assert abs(got - want) <= factor_bound + size ** 2 * eps * want, (size, got, want)


# -- the eight-terminal stencil and four-corner assembly ------------------


def test_four_corner_matches_kron(ladders):
    for n in range(2, 11):
        reduced = kron_reduce(ladders(n), [f"p{n}", f"q{n}", "p1", "q1"])
        assert np.array_equal(four_corner_laplacian(ladder_delta_edges(n)), reduced.laplacian())


def test_stencil_matches_full_reduction(prisms):
    net = prisms(6)
    keep = ["p1", "p3", "p4", "p6", "q1", "q3", "q4", "q6"]
    reduced = kron_reduce(net, keep)
    stencil = EightTerminalStencil.for_prism(6, 4)
    assert np.array_equal(stencil.laplacian(), reduced.laplacian())
    assert stencil.network().order == 8


def test_stencil_corner_degrees():
    stencil = EightTerminalStencil.for_prism(10, 5)
    lap = stencil.laplacian()
    assert lap[0, 0] == stencil.lower_corner_degree
    assert lap[1, 1] == stencil.lower_corner_degree
    assert lap[2, 2] == stencil.upper_corner_degree
    assert lap[3, 3] == stencil.upper_corner_degree
    lo = ladder_delta_edges(4)
    assert stencil.lower_corner_degree == (1 + lo.side + lo.rung + lo.diag).as_rational()


def test_stencil_open_diagonal_at_boundary():
    # i = 3 gives a 2-rung lower arc whose diagonal is open
    stencil = EightTerminalStencil.for_prism(8, 3)
    assert stencil.lower.diag == Qsqrt3(0)
    assert stencil.network().edge_count == 14  # 16 slots minus two open diagonals


def test_stencil_validates_cut():
    with pytest.raises(ValueError):
        EightTerminalStencil.for_prism(6, 2)
    with pytest.raises(ValueError):
        EightTerminalStencil.for_prism(6, 6)


# -- JSON interchange -----------------------------------------------------


def test_json_round_trip_exact():
    net = Network(["a", "b", "c"],
                  [("a", "b", Fraction(5, 12)), ("a", "b", 1), ("c", "c", 2), ("b", "c", 7)])
    doc = network_to_json(net)
    assert doc["edges"][0]["r"] == "5/12"
    back = network_from_json(doc)
    assert back.vertices == net.vertices
    assert list(back.edges) == list(net.edges)
    assert np.array_equal(back.laplacian(), net.laplacian())


def test_json_round_trip_float():
    net = Network(["a", "b"], [("a", "b", 0.125)])
    back = network_from_json(network_to_json(net))
    assert not back.is_exact
    assert list(back.edges) == [("a", "b", 0.125)]


def test_json_accepts_integer_resistance():
    doc = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": 2}]}
    assert network_from_json(doc).is_exact


def test_json_rejects_malformed():
    good_edge = {"u": "a", "v": "b", "r": 1}
    bad_docs = [
        [],
        {"vertices": ["a", "b"]},
        {"vertices": ["a", "b"], "edges": [good_edge], "extra": 1},
        {"vertices": "ab", "edges": [good_edge]},
        {"vertices": ["a", 2], "edges": [good_edge]},
        {"vertices": ["a", "b"], "edges": {"0": good_edge}},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": 1, "w": 2}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": 3, "r": 1}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": True}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": "1/0"}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": "huh"}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "z", "r": 1}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": -1}]},
    ]
    for doc in bad_docs:
        with pytest.raises(ValueError):
            network_from_json(doc)
