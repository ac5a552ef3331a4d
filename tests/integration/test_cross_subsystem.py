"""Cross-subsystem agreement: SQL engine vs naive cube vs miner.

Three independent implementations compute candidate-rule aggregates:
the SQL engine's GROUP BY CUBE, the test oracle's naive cube (one
group-by per cuboid, ``tests/core/oracles.py``), and the miner's
exhaustive candidate generation.  They were written against the same
definitions (thesis §2.5, §3.1) and must agree exactly.
"""

import pytest

from repro.core.miner import mine
from repro.core.rule import WILDCARD
from repro.data.generators import flight_table, susy_table
from repro.platforms.sql_sirum import SqlSirum
from repro.sql import SqlEngine
from tests.core.oracles import cube_point, naive_cube

#: Long-running suite: excluded from the fast loop (-m 'not slow').
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def flights():
    return flight_table()


class TestSqlVersusNaiveCube:
    def test_cube_query_matches_naive_cube(self, flights):
        engine = SqlEngine()
        engine.register_table("f", flights)
        dims = list(flights.schema.dimensions)
        result = engine.query(
            "SELECT %s, %s, SUM(%s) s, COUNT(*) c FROM f GROUP BY CUBE(%s)"
            % (
                ", ".join('"%s"' % d for d in dims),
                ", ".join(
                    'GROUPING("%s") g%d' % (d, i) for i, d in enumerate(dims)
                ),
                flights.schema.measure,
                ", ".join('"%s"' % d for d in dims),
            )
        )
        cube = naive_cube(flights)
        arity = len(dims)
        assert len(result) == sum(len(groups) for groups in cube.values())
        for row in result.rows:
            values = row[:arity]
            bits = row[arity:2 * arity]
            total, count = row[2 * arity], row[2 * arity + 1]
            mask = 0
            key = []
            for j in range(arity):
                if bits[j] == 0:
                    mask |= 1 << j
                    key.append(
                        flights.encoder(dims[j]).encode_existing(values[j])
                    )
            assert cube[mask][tuple(key)] == (count, pytest.approx(total))

    def test_point_queries_match_sql_filters(self, flights):
        engine = SqlEngine()
        engine.register_table("f", flights)
        cube = naive_cube(flights)
        london = flights.encoder("Destination").encode_existing("London")
        point = cube_point(cube, (WILDCARD, WILDCARD, london))
        row = engine.query(
            "SELECT COUNT(*), SUM(Delay) FROM f WHERE Destination = 'London'"
        ).rows[0]
        assert point == (row[0], pytest.approx(row[1]))


class TestSqlSirumVersusOperatorMiner:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_same_kl_on_random_tables(self, seed):
        table = susy_table(num_rows=150, num_dimensions=4, seed=seed)
        sql_result = SqlSirum(k=2).mine(table)
        operator = mine(table, k=2, variant="naive", exhaustive=True)
        assert sql_result.final_kl == pytest.approx(
            operator.final_kl, rel=1e-9
        )

    def test_cube_point_answers_rule_aggregates(self, flights):
        """Every mined rule's (avg, count) is answerable from the cube."""
        cube = naive_cube(flights)
        result = mine(flights, k=3, variant="naive", exhaustive=True)
        for mined in result.rule_set:
            count, total = cube_point(cube, mined.rule.values)
            assert count == mined.count
            assert total / count == pytest.approx(mined.avg_measure)

    @pytest.mark.parametrize("start, stop", [(0, 60), (30, 110), (90, 150)])
    def test_cube_point_answers_rule_aggregates_per_window(self, start,
                                                           stop):
        """Rules mined on a row window carry that window's aggregates."""
        window = susy_table(num_rows=150, num_dimensions=4,
                            seed=9).slice(start, stop)
        cube = naive_cube(window)
        result = mine(window, k=3, variant="baseline", sample_size=16,
                      seed=0)
        assert len(result.rule_set) > 1
        for mined in result.rule_set:
            count, total = cube_point(cube, mined.rule.values)
            assert count == mined.count
            assert total / count == pytest.approx(mined.avg_measure)


class TestColfileRoundTripThroughMiner:
    def test_mining_from_colfile_equals_mining_from_memory(self, tmp_path, flights):
        from repro.data.colfile import read_colfile, write_colfile

        path = tmp_path / "flights.col"
        write_colfile(flights, path, block_rows=4)
        reloaded = read_colfile(path)
        direct = mine(flights, k=2, variant="naive", exhaustive=True)
        via_file = mine(reloaded, k=2, variant="naive", exhaustive=True)
        assert [m.rule for m in direct.rule_set] == [
            m.rule for m in via_file.rule_set
        ]
        assert via_file.final_kl == pytest.approx(direct.final_kl)
