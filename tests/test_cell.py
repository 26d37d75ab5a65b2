from collections import Counter

import pytest

from grobcell import make_cell
from grobcell.cell import (
    below_diagonal_stats,
    bound_matrix,
    cell_from_minimal_generators,
    degree_matrix,
    dimension,
    dimension_bounds,
    hilbert_function,
    lex_betti,
    param_count,
    special_indices,
)
from grobcell.errors import BadMVector, ColengthTooSmall, NotLexSegment

from conftest import M_EX1, M_EX2, M_EX3
from oracles import enumerate_lex_segment_cells


def test_make_cell_goldens():
    c = make_cell(M_EX1)
    assert (c.t, c.d, c.lex_segment()) == (3, (5, 2, 4), True)
    c3 = make_cell(M_EX3)
    assert (c3.t, c3.d) == (3, (2, 1, 2))
    point = make_cell([0, 1])
    assert (point.t, point.colength()) == (1, 1)
    assert point.minimal_generators() == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "bad", [[0], [1, 2], [0, 2, 1], [0, -1], [0, 0, 3]]
)
def test_make_cell_rejects(bad):
    with pytest.raises(BadMVector):
        make_cell(bad)


def test_non_lex_cell_accepted():
    c = make_cell([0, 2, 2, 5])
    assert not c.lex_segment()
    # the repeated m value makes one staircase generator redundant
    assert c.minimal_generators() == ((3, 0), (1, 2), (0, 5))


def test_hilbert_function_goldens():
    assert hilbert_function(make_cell(M_EX1)) == (1, 2, 3, 3, 3, 3, 3, 2, 1, 1, 1)
    assert hilbert_function(make_cell(M_EX2)) == (
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12, 12, 9, 9, 9, 9, 6, 3, 3
    )
    assert hilbert_function(make_cell([0, 1])) == (1,)


def test_matrices_goldens():
    assert bound_matrix(make_cell(M_EX1)).rows == (
        (4, 4, 4), (1, 1, 1), (0, 1, 3), (-3, -2, 1)
    )
    assert bound_matrix(make_cell(M_EX3)).rows == (
        (1, 1, 1), (1, 0, 0), (1, 0, 1), (0, 0, 1)
    )
    assert bound_matrix(make_cell([0, 1])).rows == ((0,), (0,))
    u = degree_matrix(make_cell(M_EX1))
    assert u.entry(1, 1) == 5 and u.entry(4, 1) == -3 and u.entry(3, 3) == 4


def test_dimension_goldens():
    assert dimension(make_cell(M_EX2)) == 195
    assert dimension(make_cell(M_EX1)) == 30
    assert dimension(make_cell([0, 1])) == 2
    with pytest.raises(NotLexSegment):
        dimension(make_cell([0, 2, 2, 5]))


def test_dimension_bounds_goldens():
    assert dimension_bounds(make_cell(M_EX1)) == (26, 46)
    assert 26 <= 30 <= 46
    # colength of the large example is sum(m) = 150, so the corollary
    # bounds are (162, 300); 195 sits inside.
    c2 = make_cell(M_EX2)
    assert c2.colength() == 150
    assert dimension_bounds(c2) == (162, 300)
    assert 162 <= 195 <= 300
    c = make_cell([0, 2])
    assert dimension_bounds(c) == (4, 4)
    assert dimension(c) == 4
    with pytest.raises(ColengthTooSmall):
        dimension_bounds(make_cell([0, 1]))


def test_special_indices():
    assert special_indices(make_cell(M_EX1)) == ((1, 3), (1, 2, 3))
    assert special_indices(make_cell(M_EX2)) == ((1, 4, 10), (1, 4, 7, 10))
    assert special_indices(make_cell([0, 1, 2, 3])) == ((), ())


def test_lex_betti_goldens():
    assert lex_betti(make_cell(M_EX1)) == {3: 1, 7: 1, 8: 1, 11: 1}
    assert lex_betti(make_cell(M_EX3)) == {3: 1, 4: 2, 5: 1}
    assert lex_betti(make_cell([0, 1])) == {1: 2}
    with pytest.raises(NotLexSegment):
        lex_betti(make_cell([0, 2, 2, 5]))


def test_below_diagonal_stats_goldens():
    assert below_diagonal_stats(make_cell(M_EX2)) == (12, 45)
    assert below_diagonal_stats(make_cell(M_EX1)) == (3, 2)


def test_exhaustive_dimension_consistency():
    # For every lex-segment cell of colength <= 25: the slot count, the
    # Hilbert-function formula and its compact form agree (dimension()
    # cross-checks all three internally), the corollary bounds hold, and
    # the bookkeeping identities from the below-diagonal count follow.
    cells = enumerate_lex_segment_cells(25)
    assert len(cells) > 500
    for c in cells:
        n = c.colength()
        h = hilbert_function(c)
        assert sum(h) == n == sum(c.m)
        assert all(h[i] == i + 1 for i in range(min(c.t, len(h))))
        N = dimension(c)
        if n >= 2:
            lo, hi = dimension_bounds(c)
            assert lo <= N <= hi
        # below-diagonal bookkeeping: entries + degree-1 slots - zeros
        # equals the below-diagonal parameter count N - n
        t = c.t
        deg1, zeros = below_diagonal_stats(c)
        ht = h[t] if t < len(h) else 0
        assert deg1 == ht
        assert t * (t + 1) // 2 + deg1 - zeros == N - n
        # generator-degree identities against the Hilbert function
        beta = lex_betti(c)
        def hv(i):
            return h[i] if i < len(h) else 0
        assert beta.get(t, 0) == hv(t - 1) - hv(t) + 1
        for j in sorted(beta):
            if j > t:
                assert beta[j] == hv(j - 1) - hv(j)
        for i in range(t, len(h) + 1):
            assert hv(i) == sum(v for j, v in beta.items() if j > i)


def test_param_count_matches_dimension_only_for_lex():
    # param_count is defined for every cell; dimension refuses non-lex ones
    c = make_cell([0, 2, 2, 5])
    assert param_count(c) > 0


def test_param_counts_sum_to_the_point_count_of_the_hilbert_scheme():
    # The cells of colength n partition Hilb^n(A^2) into affine spaces of
    # dimension param_count, so over F_q the sum of q^param_count over them
    # is the point count of Hilb^n(A^2): the coefficient of T^n in
    # prod_(k>=1) 1/(1 - q^(k+1) T^k) (Ellingsrud and Stromme 1987;
    # Goettsche 1990).  Neither side is built with cell.py: the cells are
    # their m-vectors (0, m_1 <= ... <= m_t) with m_1 > 0 and sum n, non-lex
    # ones included, and the product is a power series in T over Z[q],
    # each coefficient a Counter {exponent of q: coefficient}.
    top = 14
    series = [Counter({0: 1})] + [Counter() for _ in range(top)]
    for k in range(1, top + 1):  # times 1/(1 - q^(k+1) T^k), in place
        for n in range(k, top + 1):
            for e, c in series[n - k].items():
                series[n][e + k + 1] += c

    def tails(n, least):
        """The non-decreasing (m_1, ..., m_t) with m_1 >= least and sum n."""
        if n == 0:
            yield ()
        for first in range(least, n + 1):
            for rest in tails(n - first, first):
                yield (first, *rest)

    for n in range(1, top + 1):
        counts = Counter(param_count(make_cell([0, *m])) for m in tails(n, 1))
        assert counts == series[n], n


def test_cell_from_minimal_generators_round_trip():
    for c in enumerate_lex_segment_cells(16):
        assert cell_from_minimal_generators(c.minimal_generators()) == c
    c = make_cell([0, 2, 2, 5])
    assert cell_from_minimal_generators(c.minimal_generators()) == c


def test_cell_from_minimal_generators_rejects_non_artinian():
    from grobcell.errors import WrongInitialIdeal

    with pytest.raises(WrongInitialIdeal):
        cell_from_minimal_generators([(1, 0)])  # no pure y power
