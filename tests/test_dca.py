import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmc.dca import (
    ComponentScore,
    LabeledPointCloud,
    NeighborhoodGraph,
    build_graph,
    component_consistency,
    component_quality,
    evaluate_alignment,
    fundamental_components,
    harmonic_score,
    precision_recall,
    score_components,
    score_labeled_graph,
)
from gmc.errors import ContractError, DataError, ShapeError

from _oracles import dca_scores_fractions, knn_edges_loops, network_scores


def random_labeled_graph(gen, n_max=10):
    n = int(gen.integers(2, n_max + 1))
    pairs = list(itertools.combinations(range(n), 2))
    mask = gen.random(len(pairs)) < gen.uniform(0.1, 0.9)
    edges = [p for p, keep in zip(pairs, mask) if keep]
    while True:
        is_ref = gen.random(n) < 0.5
        if 0 < is_ref.sum() < n:
            return n, edges, is_ref


def knn_cloud(kind, n, dim, scale_exponent, seed):
    """n points in `dim` dimensions: Gaussian, exact duplicates of a few
    points, lattice points (exact distance ties), lattice points moved by a
    few ulps (near-ties), a Gaussian cloud translated by 10**6 along every
    axis (`offset`), a Gaussian cloud with one point scaled by 10**12
    (`outlier`), or a Gaussian cloud whose odd rows, the evaluation points
    of the property test, are all one point (`collapsed`); all scaled by
    10**scale_exponent, capped so that no coordinate exceeds 1e151 (which
    leaves the clouds of coordinates up to 10 uncapped)."""
    gen = np.random.default_rng(seed)
    if kind == "duplicates":
        base = gen.normal(size=(max(1, n // 8), dim))
        pts = base[gen.integers(0, base.shape[0], n)]
    elif kind in ("lattice", "near_ties"):
        pts = np.round(gen.normal(size=(n, dim)) * 2.0) / 2.0
        if kind == "near_ties":
            pts += gen.integers(-4, 5, size=(n, dim)) * 2.0**-50
    else:
        pts = gen.normal(size=(n, dim))
        if kind == "offset":
            pts += 1e6
        elif kind == "outlier":
            pts[gen.integers(0, n)] *= 1e12
        elif kind == "collapsed":
            pts[1::2] = pts[1]
    top = np.abs(pts).max()
    if top > 0:
        scale_exponent = min(scale_exponent, 151 - int(np.ceil(np.log10(top))))
    return pts * 10.0**scale_exponent


def assert_matches_oracle(n, edges, is_ref):
    report = score_labeled_graph(NeighborhoodGraph(n, edges), is_ref)
    oracle = dca_scores_fractions(n, edges, [not r for r in is_ref])
    for score, c, q in zip(report.components, oracle["component_consistency"], oracle["component_quality"]):
        assert abs(score.consistency - float(c)) < 1e-12
        assert abs(score.quality - float(q)) < 1e-12
    assert abs(report.network_consistency - float(oracle["network_consistency"])) < 1e-12
    assert abs(report.network_quality - float(oracle["network_quality"])) < 1e-12
    assert abs(report.precision - float(oracle["precision"])) < 1e-12
    assert abs(report.recall - float(oracle["recall"])) < 1e-12
    assert abs(report.harmonic - float(oracle["harmonic"])) < 1e-12
    oracle_fundamental = sorted(
        v for v in range(n) if oracle["components"][v] in oracle["fundamental"]
    )
    assert list(report.fundamental_vertices) == oracle_fundamental


class TestLabeledPointCloud:
    def test_from_sets_stacks_reference_first(self):
        cloud = LabeledPointCloud.from_sets([[0.0], [1.0]], [[2.0]])
        assert cloud.n_points == 3
        assert cloud.is_reference.tolist() == [True, True, False]

    def test_rejects_nan_and_one_sided(self):
        with pytest.raises(DataError):
            LabeledPointCloud(np.array([[np.nan], [0.0]]), np.array([True, False]))
        with pytest.raises(DataError):
            LabeledPointCloud(np.zeros((3, 2)), np.array([True, True, True]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            LabeledPointCloud.from_sets(np.zeros((2, 3)), np.zeros((2, 4)))


class TestNeighborhoodGraph:
    def test_components_partition_and_singletons(self):
        g = NeighborhoodGraph(5, [(0, 1), (1, 2)])
        assert g.components == ((0, 1, 2), (3,), (4,))
        assert g.component_of.tolist() == [0, 0, 0, 1, 2]

    def test_edges_normalized_and_sorted(self):
        g = NeighborhoodGraph(4, [(3, 1), (0, 2)])
        assert g.edges == ((0, 2), (1, 3))

    @pytest.mark.parametrize(
        "edges", [[(1, 1)], [(0, 1), (1, 0)], [(0, 7)]]
    )
    def test_rejects_malformed_edges(self, edges):
        with pytest.raises(ContractError):
            NeighborhoodGraph(4, edges)

    def test_every_edge_is_intra_component(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            n, edges, _ = random_labeled_graph(gen)
            g = NeighborhoodGraph(n, edges)
            for u, v in g.edges:
                assert g.component_of[u] == g.component_of[v]


class TestBuildGraph:
    def test_two_points_single_edge(self):
        cloud = LabeledPointCloud.from_sets([[0.0]], [[1.0]])
        g = build_graph(cloud, k=1)
        assert g.edges == ((0, 1),)

    def test_four_collinear_points_tie_break(self):
        # x = 0,1,2,3; vertex 1 ties between 0 and 2 and must pick index 0,
        # vertex 2 ties between 1 and 3 and must pick index 1
        cloud = LabeledPointCloud(
            np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([True, False, True, False])
        )
        g = build_graph(cloud, k=1)
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_two_separated_blobs_give_two_components(self):
        gen = np.random.default_rng(7)
        blob_a = gen.normal(size=(12, 3)) * 0.5
        blob_b = gen.normal(size=(12, 3)) * 0.5 + 100.0
        cloud = LabeledPointCloud.from_sets(blob_a, blob_b)
        g = build_graph(cloud, k=3)
        assert len(g.components) == 2
        assert set(g.components[0]) == set(range(12))

    def test_k_out_of_range(self):
        cloud = LabeledPointCloud.from_sets([[0.0]], [[1.0]])
        with pytest.raises(ContractError):
            build_graph(cloud, k=2)
        with pytest.raises(ContractError):
            build_graph(cloud, k=0)

    def test_duplicate_points_allowed(self):
        cloud = LabeledPointCloud.from_sets([[1.0, 2.0]], [[1.0, 2.0]])
        g = build_graph(cloud, k=1)
        assert g.edges == ((0, 1),)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(
            ["gaussian", "duplicates", "lattice", "near_ties", "offset", "outlier", "collapsed"]
        ),
        n=st.one_of(st.integers(2, 70), st.sampled_from([64, 65, 128, 130, 200])),
        dim=st.integers(1, 9),
        k_choice=st.sampled_from(["1", "2", "n-2", "n-1", "mid"]),
        scale_exponent=st.integers(-150, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="duplicates", n=130, dim=3, k_choice="2", scale_exponent=-150, seed=0)
    @example(kind="near_ties", n=130, dim=5, k_choice="n-2", scale_exponent=150, seed=1)
    @example(kind="lattice", n=65, dim=2, k_choice="n-1", scale_exponent=0, seed=2)
    @example(kind="offset", n=130, dim=9, k_choice="2", scale_exponent=0, seed=3)
    @example(kind="outlier", n=130, dim=4, k_choice="1", scale_exponent=-150, seed=4)
    @example(kind="collapsed", n=200, dim=3, k_choice="2", scale_exponent=0, seed=5)
    def test_edges_match_per_point_loop(self, kind, n, dim, k_choice, scale_exponent, seed):
        k = {"1": 1, "2": 2, "n-2": n - 2, "n-1": n - 1, "mid": n // 2}[k_choice]
        k = min(max(k, 1), n - 1)
        pts = knn_cloud(kind, n, dim, scale_exponent, seed)
        cloud = LabeledPointCloud(pts, np.arange(n) % 2 == 0)
        assert build_graph(cloud, k).edges == knn_edges_loops(pts, k)

    def test_collapsed_cloud_keeps_blocks_small(self):
        # 2000 evaluation rows at one point make each of them keep the other
        # 1999 as candidates: the exact distances must be taken in chunks
        gen = np.random.default_rng(9)
        n, dim = 4000, 16
        evaluation = np.repeat(gen.normal(size=(1, dim)), 2000, axis=0)
        cloud = LabeledPointCloud.from_sets(gen.normal(size=(2000, dim)), evaluation)
        tracemalloc.start()
        try:
            graph = build_graph(cloud, k=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the GEMM block, the upper values, the candidate indices and their
        # distances come to about six 64 x n float arrays
        assert peak < 8 * (64 * n * 8)
        collapsed = graph.component_of[2000:]
        assert (collapsed == collapsed[0]).all()

    def test_no_self_loops_or_duplicates_by_construction(self):
        gen = np.random.default_rng(3)
        cloud = LabeledPointCloud.from_sets(gen.normal(size=(20, 4)), gen.normal(size=(15, 4)))
        g = build_graph(cloud, k=4)
        assert all(u < v for u, v in g.edges)
        assert len(set(g.edges)) == g.n_edges


class TestComponentFormulas:
    def test_consistency_examples(self):
        assert component_consistency(5, 5) == 1.0
        assert component_consistency(7, 0) == 0.0
        assert component_consistency(3, 1) == 0.5
        with pytest.raises(ContractError):
            component_consistency(0, 0)

    def test_quality_examples(self):
        assert component_quality(0, 0, 4) == 1.0
        assert component_quality(0, 0, 0) == 0.0  # singleton / edgeless branch
        assert component_quality(2, 1, 3) == 0.5

    def test_score_components_counts(self):
        # component {0,1,2}: edges RR(0-1), RE(1-2); component {3,4}: EE
        g = NeighborhoodGraph(5, [(0, 1), (1, 2), (3, 4)])
        is_ref = np.array([True, True, False, False, False])
        scores = score_components(g, is_ref)
        first, second = scores
        assert (first.n_reference, first.n_evaluation) == (2, 1)
        assert (first.edges_rr, first.edges_ee, first.edges_re) == (1, 0, 1)
        assert first.consistency == pytest.approx(1 - 1 / 3)
        assert first.quality == 0.5
        assert first.fundamental
        assert (second.edges_rr, second.edges_ee, second.edges_re) == (0, 1, 0)
        assert second.quality == 0.0
        assert not second.fundamental


class TestNetworkScores:
    def test_balanced_heterogeneous_component(self):
        g = NeighborhoodGraph(4, [(0, 2), (1, 3)])
        c, q = network_scores(g, np.array([True, True, False, False]))
        assert (c, q) == (1.0, 1.0)

    def test_zero_edges_zero_quality(self):
        g = NeighborhoodGraph(3, [])
        c, q = network_scores(g, np.array([True, False, False]))
        assert q == 0.0

    def test_pooled_counts_match_oracle(self):
        n, edges = 5, [(0, 1), (1, 2), (3, 4)]
        is_ref = np.array([True, True, False, False, False])
        oracle = dca_scores_fractions(n, edges, (~is_ref).tolist())
        c, q = network_scores(NeighborhoodGraph(n, edges), is_ref)
        assert c == pytest.approx(float(oracle["network_consistency"]), abs=1e-15)
        assert q == pytest.approx(float(oracle["network_quality"]), abs=1e-15)


class TestFundamentalAndPrecisionRecall:
    def test_all_one_sided_empty(self):
        g = NeighborhoodGraph(4, [(0, 1), (2, 3)])
        scores = score_components(g, np.array([True, True, False, False]))
        assert fundamental_components(scores) == ()

    def test_single_balanced_heterogeneous_all(self):
        g = NeighborhoodGraph(2, [(0, 1)])
        scores = score_components(g, np.array([True, False]))
        assert fundamental_components(scores) == (0, 1)

    def test_mixed_case_matches_oracle(self):
        gen = np.random.default_rng(11)
        for _ in range(60):
            n, edges, is_ref = random_labeled_graph(gen)
            scores = score_components(NeighborhoodGraph(n, edges), is_ref)
            oracle = dca_scores_fractions(n, edges, [not r for r in is_ref])
            expected = sorted(
                v for v in range(n) if oracle["components"][v] in oracle["fundamental"]
            )
            assert list(fundamental_components(scores)) == expected

    def test_precision_recall_extremes_and_counts(self):
        is_ref = np.array([True] * 5 + [False] * 4)
        assert precision_recall(is_ref, tuple(range(9))) == (1.0, 1.0)
        assert precision_recall(is_ref, ()) == (0.0, 0.0)
        # 3 of 4 E vertices and 2 of 5 R vertices fundamental
        assert precision_recall(is_ref, (0, 1, 5, 6, 7)) == (0.75, 0.4)


class TestHarmonicScore:
    def test_edge_cases_exact(self):
        assert harmonic_score(1.0, 1.0, 1.0) == 1.0
        assert harmonic_score(0.5, 1.0, 0.0) == 0.0
        assert harmonic_score(0.0, 1.0, 1.0) == 0.0
        assert harmonic_score(1.0, 0.0, 0.5) == 0.0
        assert harmonic_score(1.0, 1.0, 0.5) == 0.75

    def test_bounds_and_zero_branch(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            p, r, q = gen.uniform(0, 1, size=3)
            h = harmonic_score(p, r, q)
            assert 0.0 <= h <= 1.0
            assert h <= 3.0 * min(p, r, q) + 1e-15
            if min(p, r, q) == 0.0:
                assert h == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            harmonic_score(1.2, 0.5, 0.5)
        with pytest.raises(ContractError):
            harmonic_score(0.5, -0.1, 0.5)


class TestOracleEquivalence:
    def test_exhaustive_up_to_four_vertices(self):
        for n in range(2, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for edge_bits in range(1 << len(pairs)):
                edges = [p for b, p in enumerate(pairs) if edge_bits >> b & 1]
                for label_bits in range(1, (1 << n) - 1):
                    is_ref = [bool(label_bits >> v & 1) for v in range(n)]
                    assert_matches_oracle(n, edges, is_ref)

    def test_random_graphs_up_to_ten_vertices(self):
        gen = np.random.default_rng(17)
        for _ in range(300):
            n, edges, is_ref = random_labeled_graph(gen, n_max=10)
            assert_matches_oracle(n, edges, is_ref)


class TestInvariances:
    def test_label_swap_preserves_c_and_q(self):
        gen = np.random.default_rng(23)
        for _ in range(50):
            n, edges, is_ref = random_labeled_graph(gen)
            g = NeighborhoodGraph(n, edges)
            a = score_components(g, is_ref)
            b = score_components(g, ~np.asarray(is_ref))
            for sa, sb in zip(a, b):
                assert sa.consistency == sb.consistency
                assert sa.quality == sb.quality
            assert network_scores(g, is_ref) == network_scores(g, ~np.asarray(is_ref))

    def test_isometry_invariance(self):
        gen = np.random.default_rng(29)
        r = gen.normal(size=(25, 6))
        e = gen.normal(size=(20, 6))
        base = evaluate_alignment(r, e, k=3)
        rotation, _ = np.linalg.qr(gen.normal(size=(6, 6)))
        shift = gen.normal(size=6) * 10
        moved = evaluate_alignment(r @ rotation + shift, e @ rotation + shift, k=3)
        assert moved.harmonic == base.harmonic
        assert moved.precision == base.precision
        assert moved.recall == base.recall
        assert moved.fundamental_vertices == base.fundamental_vertices

    def test_reindexing_invariance(self):
        gen = np.random.default_rng(31)
        r = gen.normal(size=(15, 4))
        e = gen.normal(size=(12, 4))
        base = evaluate_alignment(r, e, k=2)
        shuffled = evaluate_alignment(
            r[gen.permutation(15)], e[gen.permutation(12)], k=2
        )
        assert shuffled.harmonic == base.harmonic
        assert shuffled.precision == base.precision
        assert shuffled.recall == base.recall
        assert shuffled.network_quality == base.network_quality

    def test_far_one_sided_cluster_never_raises_precision_or_recall(self):
        gen = np.random.default_rng(37)
        r = gen.normal(size=(20, 3))
        e = r + gen.normal(size=(20, 3)) * 0.01
        k = 3
        base = evaluate_alignment(r, e, k=k)
        # k+1 far-away reference points keep their k-NN edges internal
        far = gen.normal(size=(k + 1, 3)) * 0.1 + 1e4
        degraded = evaluate_alignment(np.concatenate([r, far]), e, k=k)
        assert degraded.precision <= base.precision
        assert degraded.recall <= base.recall
        assert degraded.harmonic <= base.harmonic


class TestEvaluateAlignment:
    def test_coincident_copy_scores_one_at_k1(self):
        gen = np.random.default_rng(41)
        r = gen.normal(size=(30, 5))
        report = evaluate_alignment(r, r.copy(), k=1)
        assert report.harmonic == 1.0
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.network_quality == 1.0
        assert report.outliers == ()
        assert len(report.components) == 30  # one twin pair per point

    def test_far_translation_scores_zero(self):
        gen = np.random.default_rng(43)
        r = gen.normal(size=(20, 4))
        report = evaluate_alignment(r, r + 1e6, k=3)
        assert report.harmonic == 0.0
        assert report.fundamental_vertices == ()
        assert report.precision == 0.0 and report.recall == 0.0
        assert set(report.outliers) == set(range(40))

    def test_report_counts_and_outliers_complement(self):
        gen = np.random.default_rng(47)
        report = evaluate_alignment(gen.normal(size=(12, 3)), gen.normal(size=(9, 3)), k=2)
        assert report.n_reference == 12 and report.n_evaluation == 9
        assert sorted(report.outliers + report.fundamental_vertices) == list(range(21))
        assert 0.0 <= report.precision <= 1.0 and 0.0 <= report.recall <= 1.0
        assert (report.harmonic == 0.0) == (
            min(report.precision, report.recall, report.network_quality) == 0.0
        )


def test_component_score_fundamental_property():
    score = ComponentScore(0, (0, 1), 1, 1, 0, 0, 1, 1.0, 1.0)
    assert score.fundamental
    assert not ComponentScore(1, (2,), 1, 0, 0, 0, 0, 0.0, 0.0).fundamental
