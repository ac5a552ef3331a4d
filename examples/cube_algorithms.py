"""Data-cube algorithms tour: four ways to the same cube.

SIRUM's candidate generation is a data-cube computation; the literature
the thesis builds on offers several algorithms with different
economics.  This example computes the full cube of a SUSY-shaped table
with each of them, verifies they agree, and shows iceberg pruning.

Run:  python examples/cube_algorithms.py
"""

from repro.cube import buc_cube, hash_cube, naive_cube, sort_cube
from repro.data.generators import susy_table


def main():
    table = susy_table(num_rows=500, num_dimensions=6, seed=11)
    print(
        "Input: %d rows, %d dimensions -> %d cuboids"
        % (len(table), table.schema.arity, 2 ** table.schema.arity)
    )

    print("\n-- Computing the full cube four ways --------------------------")
    reference = None
    for name, algorithm in [
        ("naive (pass per cuboid)", naive_cube),
        ("hash  (smallest parent)", hash_cube),
        ("sort  (pipe-sort paths)", sort_cube),
        ("BUC   (bottom-up)", buc_cube),
    ]:
        stats = {}
        cube = algorithm(table, stats=stats)
        if reference is None:
            reference = cube
        agreement = "ok" if cube == reference else "MISMATCH"
        work = stats.get("tuples_read", 0)
        print(
            "  %-24s tuples read %8d   groups %6d   [%s]"
            % (name, work, cube.num_groups(), agreement)
        )

    print("\n-- Iceberg pruning --------------------------------------------")
    for support in (1, 5, 25):
        iceberg = buc_cube(table, min_support=support)
        print(
            "  min_support=%-3d -> %6d groups survive"
            % (support, iceberg.num_groups())
        )


if __name__ == "__main__":
    main()
