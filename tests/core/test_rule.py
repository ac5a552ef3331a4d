"""Unit tests for the rule algebra (thesis §2.1, §2.5)."""

import pytest

from repro.common.errors import DataError
from repro.core.rule import Rule, WILDCARD

from .oracles import ancestors, parents


class TestConstruction:
    def test_values_are_stored_as_tuple(self):
        rule = Rule([1, WILDCARD, 2])
        assert rule.values == (1, -1, 2)

    def test_rejects_values_below_wildcard(self):
        with pytest.raises(DataError):
            Rule((0, -2))

    def test_is_immutable(self):
        rule = Rule((1, 2))
        with pytest.raises(AttributeError):
            rule.values = (3, 4)

    def test_all_wildcards(self):
        rule = Rule.all_wildcards(4)
        assert rule.values == (-1, -1, -1, -1)
        assert rule.is_root()

    def test_a_tuple_is_a_fully_bound_rule(self):
        rule = Rule((0, 1, 2))
        assert rule.num_bound == 3

    def test_equality_and_hash(self):
        assert Rule((1, WILDCARD)) == Rule((1, WILDCARD))
        assert hash(Rule((1, WILDCARD))) == hash(Rule((1, WILDCARD)))
        assert Rule((1, WILDCARD)) != Rule((WILDCARD, 1))

    def test_repr_renders_wildcards(self):
        assert repr(Rule((1, WILDCARD))) == "Rule(1, *)"


class TestMatching:
    def test_wildcards_match_anything(self):
        assert Rule.all_wildcards(3).matches((5, 6, 7))

    def test_bound_value_must_equal(self):
        rule = Rule((5, WILDCARD, 7))
        assert rule.matches((5, 0, 7))
        assert not rule.matches((5, 0, 8))

    def test_match_mask_vectorized(self, flights):
        london = flights.encoder("Destination").encode_existing("London")
        rule = Rule((WILDCARD, WILDCARD, london))
        mask = rule.match_mask(flights)
        # Tuples 1, 4, 6, 11 (1-based) arrive in London — thesis §2.1.
        assert list(mask.nonzero()[0]) == [0, 3, 5, 10]

    def test_thesis_tuple_t6_matches_r1_r2_r4_not_r3(self, flights):
        # t6 = (Sat, Frankfurt, London); thesis §2.1 example.
        t6 = flights.encoded_row(5)
        enc_day = flights.encoder("Day")
        enc_dst = flights.encoder("Destination")
        r1 = Rule.all_wildcards(3)
        r2 = Rule((WILDCARD, WILDCARD, enc_dst.encode_existing("London")))
        r3 = Rule((enc_day.encode_existing("Fri"), WILDCARD, WILDCARD))
        r4 = Rule((enc_day.encode_existing("Sat"), WILDCARD, WILDCARD))
        assert r1.matches(t6)
        assert r2.matches(t6)
        assert not r3.matches(t6)
        assert r4.matches(t6)


class TestLca:
    def test_thesis_example_t1_t6(self, flights):
        # lca(t1, t6) = (*, *, London) — thesis §2.1.
        t1 = flights.encoded_row(0)
        t6 = flights.encoded_row(5)
        lca = Rule.lca(t1, t6)
        london = flights.encoder("Destination").encode_existing("London")
        assert lca == Rule((WILDCARD, WILDCARD, london))

    def test_lca_of_identical_tuples_is_the_tuple(self):
        assert Rule.lca((1, 2), (1, 2)) == Rule((1, 2))

    def test_lca_of_disjoint_tuples_is_root(self):
        assert Rule.lca((1, 2), (3, 4)).is_root()

    def test_lca_with_rules_treats_wildcards_as_disagreement(self):
        left = Rule((1, WILDCARD))
        right = Rule((1, 2))
        assert Rule.lca(left, right) == Rule((1, WILDCARD))

    def test_lca_arity_mismatch_raises(self):
        with pytest.raises(DataError):
            Rule.lca((1,), (1, 2))

    def test_lca_is_ancestor_of_both(self, rng):
        for _ in range(50):
            a = tuple(rng.integers(0, 3, size=5))
            b = tuple(rng.integers(0, 3, size=5))
            lca = Rule.lca(a, b)
            assert lca.matches(a)
            assert lca.matches(b)


class TestDisjointness:
    def test_thesis_disjoint_example(self):
        # (Fri, London, LA) vs (*, SF, LA): different Origin -> disjoint.
        left = Rule((0, 1, 2))
        right = Rule((WILDCARD, 3, 2))
        assert left.is_disjoint(right)
        assert not left.overlaps(right)

    def test_thesis_overlapping_example_with_disjoint_supports(self):
        # (Wed, *, *) vs (*, *, London) overlap by definition even when
        # supports are disjoint (thesis §2.1).
        left = Rule((7, WILDCARD, WILDCARD))
        right = Rule((WILDCARD, WILDCARD, 0))
        assert not left.is_disjoint(right)
        assert left.overlaps(right)

    def test_disjointness_is_symmetric(self):
        a = Rule((1, WILDCARD))
        b = Rule((2, WILDCARD))
        assert a.is_disjoint(b) == b.is_disjoint(a)

    def test_root_overlaps_everything(self):
        root = Rule.all_wildcards(2)
        assert not root.is_disjoint(Rule((0, 1)))


class TestAncestors:
    def test_count_is_two_to_the_bound(self):
        rule = Rule((1, 2, WILDCARD))
        assert len(list(ancestors(rule))) == 4

    def test_thesis_figure_2_1_lattice(self, flights):
        # CL((Fri, SF, London)) has 8 elements — thesis Figure 2.1.
        t1 = flights.encoded_row(0)
        lattice = set(ancestors(Rule(t1)))
        assert len(lattice) == 8
        assert Rule.all_wildcards(3) in lattice
        assert Rule(t1) in lattice

    def test_exclude_self(self):
        rule = Rule((1, 2))
        proper = set(ancestors(rule, include_self=False))
        assert rule not in proper
        assert len(proper) == 3

    def test_every_ancestor_is_an_ancestor(self):
        rule = Rule((3, 1, 4, WILDCARD))
        for ancestor in ancestors(rule):
            assert ancestor.is_ancestor_of(rule)
            assert rule.is_descendant_of(ancestor)

    def test_parents_have_one_more_wildcard(self):
        rule = Rule((1, 2, WILDCARD))
        lifted = list(parents(rule))
        assert len(lifted) == 2
        for parent in lifted:
            assert parent.num_bound == rule.num_bound - 1

    def test_generalize(self):
        rule = Rule((1, 2, 3))
        assert rule.generalize([0, 2]) == Rule((WILDCARD, 2, WILDCARD))

    def test_root_is_only_its_own_ancestor(self):
        root = Rule.all_wildcards(3)
        assert list(ancestors(root)) == [root]


def _all_rules(arity, domain):
    """Every rule over ``arity`` attributes with codes ``0..domain-1``."""
    import itertools

    choices = [WILDCARD] + list(range(domain))
    return [Rule(values) for values in itertools.product(choices,
                                                         repeat=arity)]


class TestLatticeStructure:
    """The cube lattice CL(t) of thesis §2.5, navigated through rules."""

    @pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
    def test_levels_are_binomial(self, arity):
        from math import comb

        rule = Rule(tuple(range(arity)))
        levels = [0] * (arity + 1)
        for ancestor in ancestors(rule):
            levels[ancestor.num_bound] += 1
        assert levels == [comb(arity, n) for n in range(arity + 1)]

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_parent_child_duality(self, arity):
        # Every parent of an ancestor is an ancestor with one fewer
        # bound attribute, and only its children list it as a parent.
        rule = Rule(tuple(range(arity)))
        lattice = list(ancestors(rule))
        for child in lattice:
            for parent in parents(child):
                assert parent in lattice
                assert parent.is_ancestor_of(child)
                assert parent.num_bound == child.num_bound - 1
        for parent in lattice:
            children = [c for c in lattice if parent in set(parents(c))]
            assert len(children) == arity - parent.num_bound

    def test_root_has_no_parents(self):
        assert list(parents(Rule.all_wildcards(3))) == []

    def test_bound_rule_has_a_parent_per_bound_attribute(self):
        rule = Rule((1, WILDCARD, 3, 0))
        assert set(parents(rule)) == {
            Rule((WILDCARD, WILDCARD, 3, 0)),
            Rule((1, WILDCARD, WILDCARD, 0)),
            Rule((1, WILDCARD, 3, WILDCARD)),
        }

    def test_ancestor_relation_is_reflexive(self):
        for rule in _all_rules(3, 2):
            assert rule.is_ancestor_of(rule)

    def test_ancestor_relation_is_antisymmetric(self):
        rules = _all_rules(2, 3)
        for a in rules:
            for b in rules:
                if a.is_ancestor_of(b) and b.is_ancestor_of(a):
                    assert a == b

    def test_ancestor_relation_is_transitive(self):
        rules = _all_rules(2, 2)
        for a in rules:
            for b in rules:
                if not a.is_ancestor_of(b):
                    continue
                for c in rules:
                    if b.is_ancestor_of(c):
                        assert a.is_ancestor_of(c)

    def test_ancestors_are_exactly_the_ancestor_relation(self):
        rules = _all_rules(3, 2)
        for rule in rules:
            expected = {a for a in rules if a.is_ancestor_of(rule)}
            assert set(ancestors(rule)) == expected

    def test_generalize_nothing_is_identity(self):
        rule = Rule((1, 2, 3))
        assert rule.generalize([]) == rule

    def test_generalize_everything_is_the_root(self):
        rule = Rule((1, 2, 3))
        assert rule.generalize(range(3)).is_root()

    def test_ancestor_covers_every_row_its_descendant_covers(self, flights):
        for i in range(len(flights)):
            rule = Rule(flights.encoded_row(i))
            covered = rule.match_mask(flights)
            for ancestor in ancestors(rule):
                wider = ancestor.match_mask(flights)
                assert (wider | covered == wider).all()

    def test_disjoint_rules_cover_disjoint_rows(self, flights):
        rules = {Rule(flights.encoded_row(i)).generalize([1])
                 for i in range(len(flights))}
        for a in rules:
            for b in rules:
                if a.is_disjoint(b):
                    assert not (a.match_mask(flights)
                                & b.match_mask(flights)).any()


class TestDecode:
    def test_decode_uses_table_encoders(self, flights):
        london = flights.encoder("Destination").encode_existing("London")
        rule = Rule((WILDCARD, WILDCARD, london))
        assert rule.decode(flights) == ("*", "*", "London")
