import random

import pytest

from drn.graphs import Graph, graph_from_spec_text, nonisomorphic_graphs
from drn.latin import circulant, idempotent
from drn.matrices import (
    ADJACENT_BUT_AGREE,
    DUPLICATE_ROWS,
    NONADJ_BUT_DISAGREE,
    MatrixParseError,
    read_matrix,
    verify,
    write_matrix,
)
from drn.perms import all_perms
import fixtures
from reference import matrix, normalize, permute_columns, relabel, relabel_symbols


def G(spec):
    return graph_from_spec_text(spec)


def test_matrix_validation():
    with pytest.raises(ValueError, match="row 2"):
        matrix([(1, 2), (1, 1)])
    with pytest.raises(ValueError, match="width"):
        matrix([(1, 2), (1, 2, 3)])


def test_verify_reference_certificates():
    f = fixtures.get("p3_width4")
    assert verify(f.graph(), f.matrix()).valid
    f = fixtures.get("c10_width6")
    assert verify(f.graph(), f.matrix()).valid


def test_verify_duplicate_rows():
    rep = verify(G("K2"), matrix([(1, 2), (1, 2)]))
    assert not rep.valid
    assert rep.violations[0].kind == DUPLICATE_ROWS


def test_verify_reports_all_violations_with_positions():
    g = G("P3")
    m = matrix([(1, 2, 3), (1, 3, 2), (2, 3, 1)])
    rep = verify(g, m)
    kinds = {(v.i, v.j): v for v in rep.violations}
    # rows 1,2 adjacent but agree at position 1; rows 1,3 non-adjacent yet disagree
    assert kinds[(1, 2)].kind == ADJACENT_BUT_AGREE and kinds[(1, 2)].position == 1
    assert kinds[(1, 3)].kind == NONADJ_BUT_DISAGREE


def test_verify_row_count_mismatch():
    with pytest.raises(ValueError):
        verify(G("K3"), matrix([(1, 2), (2, 1)]))


def _random_matrix(rng, n, k):
    pool = rng.sample(all_perms(k), n)
    return matrix(pool)


def _random_graph(rng, n):
    from itertools import combinations
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("seed", range(5))
def test_symmetry_actions_preserve_verify(seed):
    rng = random.Random(seed)
    for _ in range(40):
        k = rng.randint(2, 6)
        n = rng.randint(2, min(6, len(all_perms(k))))
        m = _random_matrix(rng, n, k)
        g = _random_graph(rng, n)
        t = tuple(rng.sample(range(1, k + 1), k))
        base = verify(g, m).valid
        assert verify(g, normalize(m)).valid == base
        assert verify(g, permute_columns(m, t)).valid == base
        assert verify(g, relabel_symbols(m, t)).valid == base


@pytest.mark.parametrize("n", range(1, 21))
def test_latin_squares_certify_complete_graphs(n):
    kn = G(f"K{n}")
    assert verify(kn, matrix(circulant(n).cells)).valid
    if n != 2:
        assert verify(kn, matrix(idempotent(n).cells)).valid


def test_verify_symmetric_under_relabeling_of_pairs():
    # verify is pairwise and deterministic: permuting rows together with the
    # graph's vertices preserves the outcome
    rng = random.Random(99)
    for g in nonisomorphic_graphs(4):
        perms = rng.sample(all_perms(4), g.n)
        m = matrix(perms)
        base = verify(g, m).valid
        order = list(range(g.n))
        rng.shuffle(order)
        g2 = relabel(g, order)
        rows2 = [None] * g.n
        for v in range(g.n):
            rows2[order[v]] = m.rows[v]
        assert verify(g2, matrix(rows2)).valid == base


def test_drnmat_round_trip():
    m = fixtures.get("k6_minus_k3_width6").matrix()
    text = write_matrix(m, comments=("reference certificate",))
    assert text.startswith("# reference certificate\ndrnmat 1\n6 6\n")
    assert read_matrix(text) == m


def test_read_matrix_header_example():
    text = "drnmat 1\n3 4\n1 2 3 4\n3 4 1 2\n1 2 4 3\n"
    assert read_matrix(text) == fixtures.get("p3_width4").matrix()


def test_read_matrix_errors():
    with pytest.raises(MatrixParseError, match="header"):
        read_matrix("3 4\n1 2 3 4\n")
    with pytest.raises(MatrixParseError, match="row 1 is not a permutation"):
        read_matrix("drnmat 1\n1 4\n1 1 2 3\n")
    with pytest.raises(MatrixParseError, match="row 2"):
        read_matrix("drnmat 1\n2 3\n1 2 3\n1 2\n")
    with pytest.raises(MatrixParseError, match="expected 2 rows"):
        read_matrix("drnmat 1\n2 3\n1 2 3\n")
    # duplicate rows read; verify reports them
    m = read_matrix("drnmat 1\n2 2\n1 2\n1 2\n")
    assert m.rows == ((1, 2), (1, 2))
    assert [v.kind for v in verify(G("K2"), m).violations] == [DUPLICATE_ROWS]
