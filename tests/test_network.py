"""The multigraph network type and its linear-algebra oracle."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from prismres.exact import Qsqrt3
from prismres.ladder import ladder_delta_edges
from prismres.network import (
    DisconnectedNetworkError,
    Network,
    SingularMatrixError,
    SymMatrix,
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


# -- construction ---------------------------------------------------------


def test_build_prism_shape():
    for n in (1, 2, 3, 7):
        net = build_prism(n)
        assert net.vertex_count == 2 * n
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
        assert net.vertex_count == 2 * n
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
    assert net.laplacian() == SymMatrix([[1, -1], [-1, 1]])


def test_laplacian_ignores_loops():
    rung_only = Network(["p1", "q1"], [("p1", "q1", 1)])
    assert build_prism(1).laplacian() == rung_only.laplacian()


def test_laplacian_doubled_edges_accumulate():
    expected = SymMatrix([
        [3, -2, -1, 0],
        [-2, 3, 0, -1],
        [-1, 0, 3, -2],
        [0, -1, -2, 3],
    ])
    assert build_prism(2).laplacian() == expected


def test_laplacian_row_sums():
    assert all(sum(row) == 0 for row in build_prism(5).laplacian().entries)
    float_sums = build_prism(5).to_float().laplacian().entries.sum(axis=1)
    assert max(abs(s) for s in float_sums) <= 1e-12


def test_laplacian_weighted():
    net = Network(["a", "b"], [("a", "b", Fraction(1, 4))])
    assert net.laplacian() == SymMatrix([[4, -4], [-4, 4]])


# -- SymMatrix ------------------------------------------------------------


def test_sym_matrix_modes_and_equality():
    exact = SymMatrix([[1, 2], [2, 1]])
    assert exact.is_exact
    assert exact[0, 1] == Fraction(2)
    floaty = SymMatrix([[1.0, 2.0], [2.0, 1.0]])
    assert not floaty.is_exact
    assert exact != floaty
    assert exact == SymMatrix([[Fraction(1), 2], [2, 1]])


def test_sym_matrix_rejects_bad_shapes():
    # not square, then asymmetric, in exact and in float mode
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4]],
                 [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError):
            SymMatrix(rows)


def test_sym_matrix_int_array_is_exact():
    m = SymMatrix(np.array([[1, -1], [-1, 1]]))
    assert m.is_exact
    assert m == SymMatrix([[1, -1], [-1, 1]])
    assert type(m[0, 1]) is Fraction and type(m[0, 1].numerator) is int


def test_sym_matrix_eigenvalues_sorted():
    eig = SymMatrix([[2, -1], [-1, 2]]).eigenvalues()
    assert np.allclose(eig, [1.0, 3.0])


# -- pseudoinverse --------------------------------------------------------


def test_pinv_single_edge():
    lp = pinv_laplacian(SymMatrix([[1, -1], [-1, 1]]))
    quarter = Fraction(1, 4)
    assert lp == SymMatrix([[quarter, -quarter], [-quarter, quarter]])


def test_pinv_triangle():
    tri = Network(list("abc"), [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    lp = tri.pseudoinverse()
    assert lp[0, 0] == Fraction(2, 9)
    assert lp[0, 1] == Fraction(-1, 9)


def test_pinv_penrose_identities_small(prisms, ladders):
    for net in (prisms(4), ladders(5)):
        lap = net.laplacian().entries
        lp = net.pseudoinverse().entries
        assert not (lap @ lp @ lap - lap).any()
        assert not (lp @ lap @ lp - lp).any()
        assert all(sum(row) == 0 for row in lp)


def test_pinv_float_residual(float_prisms):
    net = float_prisms(40)
    lap = net.laplacian().entries
    lp = net.pseudoinverse().entries
    assert np.abs(lap @ lp @ lap - lap).max() <= 1e-10


def test_pinv_disconnected():
    two = Network(list("abcd"), [("a", "b", 1), ("c", "d", 1)])
    with pytest.raises(DisconnectedNetworkError):
        two.pseudoinverse()
    with pytest.raises(DisconnectedNetworkError):
        two.to_float().pseudoinverse()
    with pytest.raises(DisconnectedNetworkError):
        resistance_oracle(two, "a", "c")
    with pytest.raises(DisconnectedNetworkError):
        resistance_oracle(two, "a", "a")


def test_pinv_float_overflow_is_singular_not_disconnected():
    # two parallel 1e-308 ohm edges overflow the conductance sum to inf
    net = Network(list("abc"), [("a", "b", 1e-308), ("a", "b", 1e-308), ("b", "c", 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow to inf is not a warning
        with pytest.raises(SingularMatrixError):
            net.pseudoinverse()


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
    y2 = prisms(2)
    reduced = kron_reduce(y2, list(y2.vertices))
    assert reduced.laplacian() == y2.laplacian()
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


# -- the eight-terminal stencil and four-corner assembly ------------------


def test_four_corner_matches_kron(ladders):
    for n in range(2, 11):
        reduced = kron_reduce(ladders(n), [f"p{n}", f"q{n}", "p1", "q1"])
        assert four_corner_laplacian(ladder_delta_edges(n)) == reduced.laplacian()


def test_stencil_matches_full_reduction(prisms):
    net = prisms(6)
    keep = ["p1", "p3", "p4", "p6", "q1", "q3", "q4", "q6"]
    reduced = kron_reduce(net, keep)
    stencil = EightTerminalStencil.for_prism(6, 4)
    assert stencil.laplacian() == reduced.laplacian()
    assert stencil.network().vertex_count == 8


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
    assert back.laplacian() == net.laplacian()


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
