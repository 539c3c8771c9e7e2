"""Folded subgroup graphs: membership vs brute force, fold confluence,
expression round trips, and Euler-characteristic rank."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loctower
from loctower.stallings import (
    SubgroupGraph,
    build_graph,
    contains,
    express,
    graph_edge_lines,
    rank,
)
from loctower.words import (
    IDENTITY,
    Word,
    commutator,
    invert,
    multiply,
    power,
    reduce,
    substitute,
    word,
)

from conftest import (
    iter_reduced_tuples,
    oracle_build_graph,
    random_nonempty_word,
    random_word,
    words_strategy,
)


def brute_force_member(generators, target, max_factors=4):
    """Try every product of at most `max_factors` generators or inverses."""
    if not target:
        return True
    moves = [g for g in generators] + [invert(g) for g in generators]
    frontier = [IDENTITY]
    for _ in range(max_factors):
        frontier = [multiply(w, m) for w in frontier for m in moves]
        if any(w == target for w in frontier):
            return True
    return False


class TestBuildGraph:
    def test_single_loop(self):
        g = build_graph([word(1)])
        assert g.num_vertices == 1
        assert g.edges == ((0, 0, 1),)

    def test_commutator_is_a_square(self):
        g = build_graph([commutator(word(1), word(2))])
        assert g.num_vertices == 4
        assert len(g.edges) == 4
        assert {abs(l) for _, _, l in g.edges} == {1, 2}

    def test_powers_fold_to_full_cyclic_group(self):
        # <x1^2, x1^3> = <x1>
        g = build_graph([word(1, 1), word(1, 1, 1)])
        assert contains(g, word(1))

    def test_identity_generators_rejected_gracefully(self):
        g = build_graph([IDENTITY, word(1)])
        assert contains(g, word(1))

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            build_graph([])

    def test_graph_edge_lines(self):
        g = build_graph([word(1)])
        assert graph_edge_lines(g) == ["0 0 1"]

    def test_deterministic(self):
        gens = [word(1, 2, -1), word(2, 2), word(1, -3, 1)]
        assert build_graph(gens) == build_graph(gens)

    def test_step_table_is_derived_not_passed(self):
        """The step table is built from the edges; it is no constructor
        argument, and equality and hashing ignore it."""
        fields = ((word(1),), 1, ((0, 0, 1),), (word(1),))
        with pytest.raises(TypeError):
            SubgroupGraph(*fields, _steps={})
        g = SubgroupGraph(*fields)
        assert g._steps == {(0, 1): (0, (1,)), (0, -1): (0, (-1,))}
        assert g == build_graph([word(1)]) and hash(g) == hash(build_graph([word(1)]))
        assert g != SubgroupGraph((word(2),), 1, ((0, 0, 2),), (word(1),))


def graph_shape(g):
    return g.num_vertices, g.edges


def assert_matches_oracle(gens):
    """The oracle trims the folded graph and ``build_graph`` does not, so
    equal graphs mean folding left no hair.  The edge-end count states
    that directly, and would catch hair even if the oracle stopped
    trimming: every vertex but the basepoint has two or more edge ends,
    a loop counting twice."""
    g = build_graph(gens)
    assert graph_shape(g) == oracle_build_graph(gens), gens
    ends = [0] * g.num_vertices
    for u, v, _ in g.edges:
        ends[u] += 1
        ends[v] += 1
    assert min(ends[1:], default=2) >= 2, gens


class TestFoldConfluence:
    def test_random_schedules_agree(self):
        rng = random.Random(20240817)
        for trial in range(100):
            gens = [
                random_nonempty_word(rng, 6, [1, 2, 3])
                for _ in range(rng.randint(1, 4))
            ]
            reference = graph_shape(build_graph(gens))
            assert reference == oracle_build_graph(gens), (trial, gens)
            for seed in range(3):
                shuffled = oracle_build_graph(gens, fold_seed=rng.randint(0, 10**9))
                assert shuffled == reference, (trial, gens)

    @given(st.lists(words_strategy(rank=3, max_len=9), min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_matches_oracle(self, gens):
        # identities and words that are not cyclically reduced included
        assert_matches_oracle(gens)

    def test_matches_oracle_on_rank_2_pairs(self):
        words = [IDENTITY, *map(Word, iter_reduced_tuples(3, 2))]
        assert len(words) == 53
        for a in words:
            for b in words:
                assert_matches_oracle([a, b])

    @pytest.mark.parametrize("a, b", [(2, 3), (5, 8), (13, 21)])
    def test_folding_pairs(self, a, b):
        # <u^a, u^b> = <u> for coprime a, b: the whole graph folds to u's loop
        u = word(1, 2, -3)
        gens = [power(u, a), power(u, b)]
        g = build_graph(gens)
        assert graph_shape(g) == oracle_build_graph(gens) == (3, ((0, 1, 1), (0, 2, 3), (1, 2, 2)))
        for k in (1, -1, 2, -3, 7):
            witness = express(g, power(u, k))
            assert witness is not None
            assert substitute(witness, gens) == power(u, k)


class TestMembership:
    def test_examples(self):
        g = build_graph([word(1, 1), word(2)])
        assert contains(g, word(1, 1, 2))
        assert contains(g, word(2, -1, -1))
        assert not contains(g, word(1))  # open path
        assert not contains(g, word(1, 2))  # no x2 edge leaves the middle of x1^2
        assert not contains(g, word(3))  # no x3 edge at all
        assert contains(g, IDENTITY)

    def test_commutator_subgroup_misses_generators(self):
        g = build_graph([commutator(word(1), word(2))])
        assert not contains(g, word(1))
        assert not contains(g, word(2))

    def test_matches_brute_force(self):
        rng = random.Random(95014)
        checked_positive = 0
        for trial in range(120):
            gens = [
                random_nonempty_word(rng, 5, [1, 2, 3])
                for _ in range(rng.randint(1, 3))
            ]
            g = build_graph(gens)
            target = random_word(rng, 6, [1, 2, 3])
            if brute_force_member(gens, target):
                assert contains(g, target), (gens, target)
                checked_positive += 1
            # graph positives are verified by the express() round trip
            witness = express(g, target)
            if witness is not None:
                assert substitute(witness, gens) == target
            else:
                assert not contains(g, target)
        assert checked_positive >= 20

    @given(words_strategy(rank=3, max_len=8))
    @settings(max_examples=100)
    def test_subgroup_closure(self, w):
        gens = [word(1, 1), word(2, 1), word(3)]
        g = build_graph(gens)
        # products of generators and their inverses are always members
        assert contains(g, substitute(w, gens))


class TestExpress:
    def test_examples(self):
        g = build_graph([word(1, 1)])
        assert express(g, word(1, 1, 1, 1)) == word(1, 1)
        assert express(g, word(1)) is None

        c12 = commutator(word(1), word(2))
        c34 = commutator(word(3), word(4))
        g = build_graph([c12, c34])
        assert express(g, multiply(c34, c12)) == word(2, 1)

    def test_basis_expression_round_trip(self):
        gens = [word(1, 2), word(2, 2), word(3, 1)]
        g = build_graph(gens)
        rng = random.Random(7)
        for _ in range(60):
            recipe = random_word(rng, 6, [1, 2, 3])
            target = substitute(recipe, gens)
            witness = express(g, target)
            assert witness is not None
            assert substitute(witness, gens) == target

    @given(
        st.lists(words_strategy(rank=3, max_len=6), min_size=1, max_size=4),
        words_strategy(rank=4, max_len=8),
    )
    @settings(max_examples=200)
    def test_round_trip(self, gens, recipe):
        recipe = reduce(l for l in recipe.letters if abs(l) <= len(gens))
        target = substitute(recipe, gens)
        witness = express(build_graph(gens), target)
        assert witness is not None
        assert substitute(witness, gens) == target

    def test_free_basis_witness_is_the_recipe(self):
        # over a free basis the expression is unique
        gens = [commutator(word(2 * i), word(2 * i + 1)) for i in range(1, 4)]
        g = build_graph(gens)
        rng = random.Random(11)
        for _ in range(40):
            recipe = random_word(rng, 8, [1, 2, 3])
            assert express(g, substitute(recipe, gens)) == recipe

    def test_search_fallback(self):
        # generators that do not read as single basis letters
        gens = [word(1, 1), word(1, 1, 1)]
        g = build_graph(gens)
        witness = express(g, word(1))
        assert witness is not None
        assert substitute(witness, gens) == word(1)

    def test_corrupt_witness_is_refused_under_optimization(self):
        """The expansion check is an explicit raise, so ``python -O`` keeps
        it: a loop at x1 whose witness claims y1^2 for the generator x1 must
        not express x1."""
        script = """
from loctower.stallings import SubgroupGraph, express
from loctower.words import Word
g = SubgroupGraph((Word((1,)),), 1, ((0, 0, 1),), (Word((1, 1)),))
try:
    print("unchecked", express(g, Word((1,))))
except AssertionError as exc:
    print(exc)
"""
        graph = SubgroupGraph((word(1),), 1, ((0, 0, 1),), (word(1, 1),))
        with pytest.raises(AssertionError, match="stallings"):
            express(graph, word(1))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(loctower.__file__).parent.parent)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("stallings: "), done.stdout


class TestRank:
    def test_examples(self):
        assert rank(build_graph([word(1), word(2)])) == 2
        assert rank(build_graph([word(1, 1), word(1, 1, 1)])) == 1
        assert rank(build_graph([commutator(word(1), word(2))])) == 1

    def test_commutator_family_rank(self):
        for n in range(1, 5):
            gens = [
                commutator(word(2 * i), word(2 * i + 1)) for i in range(1, n + 1)
            ]
            assert rank(build_graph(gens)) == n

    def test_free_generating_sets(self):
        rng = random.Random(31)
        for _ in range(40):
            gens = [random_nonempty_word(rng, 6, [1, 2, 3]) for _ in range(2)]
            g = build_graph(gens)
            assert 1 <= rank(g) <= len(gens)

