"""Acceptance gate: nine end-to-end claims, one test per claim.

Each test finishes by printing a `[criterion N] PASS` line with its measured
figures, so a verbose run doubles as a checklist. Tolerances and time budgets
are asserted, not aspirational; loosening one here changes the contract.

The slow criteria (5, 6, 7) share their seed-fixed 100-epoch trainings
through a module-scoped fixture that trains all nine in two processes, which
keeps the whole file well under the sum of the individual budgets.
"""

import itertools
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from gmc.cli import main
from gmc.dca import NeighborhoodGraph, evaluate_alignment, harmonic_score, score_labeled_graph
from gmc.downstream import ProbeConfig, evaluate_robustness, train_probe
from gmc.loss import RepresentationBatch, contrastive_loss
from gmc.model import GmcModel, TrainConfig, batch_loss, train
from gmc.synthdata import SynthConfig, generate

from _oracles import (
    components_bfs,
    dca_scores_fractions,
    mnt_xent_ablated_loops,
    mnt_xent_loops,
    named_gradients,
    positive_term_count,
)


def _report(capsys, criterion, elapsed, detail):
    with capsys.disabled():
        print(f"\n[criterion {criterion}] PASS in {elapsed:.1f}s: {detail}")


@pytest.fixture(scope="module")
def dataset():
    return generate(SynthConfig())


# (loss_variant, seed, tau) of the 100-epoch models criteria 5, 6 and 7 read
TRAINED_KEYS = (
    *((variant, seed, 0.1) for variant in ("full", "ablated") for seed in (0, 1, 2)),
    *(("full", 0, tau) for tau in (0.05, 0.3, 0.5)),
)


def _train_parameters(dataset, variant, seed, tau):
    model = GmcModel.build(dataset.config.modality_dims, seed=seed)
    train(model, dataset, TrainConfig(tau=tau, seed=seed, loss_variant=variant))
    return model.flat_parameters()


@pytest.fixture(scope="module")
def trained(dataset):
    """Trained models keyed (loss_variant, seed, tau).

    Criteria 5, 6 and 7 together describe nine 100-epoch runs but share
    three of them. All nine are trained when the fixture is first requested,
    in a pool of two processes that is shut down before it returns, so no
    criterion's timing overlaps the pool. Each model is rebuilt here from the
    parameter bytes its process trained.
    """
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        trained_parameters = list(pool.map(_train_parameters, itertools.repeat(dataset), *zip(*TRAINED_KEYS)))
    models = {}
    for key, flat in zip(TRAINED_KEYS, trained_parameters):
        model = models[key] = GmcModel.build(dataset.config.modality_dims, seed=key[1])
        model.replace_parameters(flat)
    return models


def _modality_harmonics(model, dataset, k=5):
    """Alignment harmonic of each modality pathway against the complete one."""
    z_complete = model.encode_complete(dataset.complete_view("test"))
    scores = []
    for m in range(model.modality_count):
        z_m = model.encode_modality(m, dataset.modality(m, "test"))
        scores.append(evaluate_alignment(z_complete, z_m, k=k).harmonic)
    return scores


# --- criterion 1: loss values against triple-loop oracles ---------------------


def _random_batch(gen):
    b = int(gen.integers(2, 9))
    m_count = int(gen.integers(1, 4))
    s = int(gen.integers(1, 9))
    scale = float(10.0 ** gen.uniform(-1.0, 1.0))
    zs = [gen.normal(scale=scale, size=(b, s)) for _ in range(m_count)]
    return RepresentationBatch(zs, gen.normal(scale=scale, size=(b, s)))


def _nested_lists(batch):
    zs = [[list(map(float, row)) for row in z] for z in batch.per_modality]
    zc = [list(map(float, row)) for row in batch.complete]
    return zs, zc


def test_criterion_1_loss_matches_triple_loop_oracle(capsys):
    start = time.perf_counter()
    gen = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        batch = _random_batch(gen)
        tau = float(gen.uniform(0.05, 1.0))
        zs, zc = _nested_lists(batch)
        for produced, expected in (
            (contrastive_loss(batch, tau, False)[0], mnt_xent_loops(zs, zc, tau)),
            (contrastive_loss(batch, tau, True)[0], mnt_xent_ablated_loops(zs, zc, tau)),
        ):
            diff = abs(produced - expected)
            if diff > worst:
                worst = diff
            assert diff <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(capsys, 1, elapsed, f"1000 random batches, both variants, worst |diff| {worst:.2e}")


# --- criterion 2: analytic gradients against finite differences ---------------


def test_criterion_2_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    gen = np.random.default_rng(202)
    model = GmcModel.build((4, 3), d=3, s=3, hidden=4, seed=5)
    xs = [gen.normal(size=(5, 4)), gen.normal(size=(5, 3))]
    xc = np.concatenate(xs, axis=1)
    tau = 0.2

    _, backward = batch_loss(model, xs, xc, tau)
    backward()
    analytic = {name: g.copy() for name, g in named_gradients(model).items()}

    h = 1e-6
    n_params = 0
    worst = 0.0
    for name, p in model.parameters().items():
        base = p.copy()  # parameter arrays are read-only; perturb a copy
        flat = base.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            model.replace_parameters({name: base})
            up = batch_loss(model, xs, xc, tau)[0]
            flat[i] = saved - h
            model.replace_parameters({name: base})
            down = batch_loss(model, xs, xc, tau)[0]
            flat[i] = saved
            fd[i] = (up - down) / (2.0 * h)
        model.replace_parameters({name: base})
        fd = fd.reshape(base.shape)
        n_params += fd.size
        # tensor-norm relative error; entrywise with a unit guard as backstop
        err = np.linalg.norm(analytic[name] - fd) / max(np.linalg.norm(fd), 1e-12)
        if err > worst:
            worst = err
        assert err < 1e-5, name
        assert np.max(np.abs(analytic[name] - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-5, name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(capsys, 2, elapsed, f"{n_params} parameters, worst relative error {worst:.2e}")


# --- criterion 3: alignment scoring, exhaustive over small graphs -------------
#
# Per-instance scoring is checked against the exact-Fraction oracle. For
# n <= 5 every edge subset and every labeling is scored directly. For n = 6
# and 7 the full instance space is out of reach (2^21 graphs x 126 labelings
# at n = 7), so it is covered in three mutually checking layers:
#
#   1. every isomorphism-orbit representative x every labeling, dual-route;
#      orbit minima come from vectorized min-propagation over generators of
#      the symmetric group, and the orbit counts must equal the published
#      numbers of non-isomorphic simple graphs (OEIS A000088: 156, 1044);
#   2. the orbit labeling itself is checked invariant under random vertex
#      permutations applied to the whole mask space at once;
#   3. sampled relabelings: a scored instance and its permuted image must
#      produce identical reports (scores are functions of integer counts,
#      so equality is exact), which transports layer-1 verdicts to every
#      vertex ordering.
#
# Component partitions are additionally checked against BFS, exhaustively
# through n = 6 and sampled at n = 7.

GRAPH_COUNTS = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def _edge_slots(n):
    return list(itertools.combinations(range(n), 2))


def _mask_edges(mask, slots):
    return [slots[j] for j in range(len(slots)) if (mask >> j) & 1]


def _labelings(n):
    """Every reference/evaluation split with both labels present."""
    out = []
    for label_mask in range(1, (1 << n) - 1):
        ref = np.array([(label_mask >> v) & 1 == 1 for v in range(n)])
        out.append((ref, [not r for r in ref.tolist()]))
    return out


def _scores_match_oracle(report, n, edges, is_eval, comp):
    """Assert one report equals the Fraction oracle, given the graph's
    `components_bfs` ids; return worst |diff|."""
    oracle = dca_scores_fractions(n, edges, is_eval, comp)
    occ = oracle["component_consistency"]
    ocq = oracle["component_quality"]
    assert len(report.components) == len(occ)
    fundamental_ids = set(oracle["fundamental"])
    worst = 0.0
    for ci, score in enumerate(report.components):
        dc = abs(score.consistency - float(occ[ci]))
        dq = abs(score.quality - float(ocq[ci]))
        if dc > worst:
            worst = dc
        if dq > worst:
            worst = dq
        assert dc < 1e-12 and dq < 1e-12
        assert score.fundamental == (ci in fundamental_ids)
    for got, want in (
        (report.network_consistency, oracle["network_consistency"]),
        (report.network_quality, oracle["network_quality"]),
        (report.precision, oracle["precision"]),
        (report.recall, oracle["recall"]),
        (report.harmonic, oracle["harmonic"]),
    ):
        d = abs(got - float(want))
        if d > worst:
            worst = d
        assert d < 1e-12
    return worst


def _partition_matches_bfs(graph, n, edges):
    """Assert the graph's components are the BFS oracle's; return its ids."""
    ids = components_bfs(n, edges)
    groups = {}
    for v, c in enumerate(ids):
        groups.setdefault(c, []).append(v)
    assert graph.components == tuple(tuple(groups[c]) for c in sorted(groups))
    return ids


def _perm_mask_table(n, perm, slots, index):
    """Table mapping every edge bitmask to its image under one permutation."""
    masks = np.arange(1 << len(slots), dtype=np.int64)
    table = np.zeros_like(masks)
    for j, (u, v) in enumerate(slots):
        a, b = perm[u], perm[v]
        dst = index[(a, b) if a < b else (b, a)]
        table |= ((masks >> j) & 1) << dst
    return table


def _orbit_minima(n, slots, index):
    """Smallest bitmask in each isomorphism orbit, for every mask at once.

    Min-propagation over a transposition, the n-cycle and its inverse: the
    generator set is closed under inversion, so reachability is symmetric
    and the fixpoint is the true orbit minimum.
    """
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % n for i in range(n)]
    uncycle = [(i - 1) % n for i in range(n)]
    tables = [_perm_mask_table(n, p, slots, index) for p in (swap, cycle, uncycle)]
    labels = np.arange(1 << len(slots), dtype=np.int64)
    for _ in range(200):
        updated = labels
        for table in tables:
            updated = np.minimum(updated, updated[table])
        if np.array_equal(updated, labels):
            return labels
        labels = updated
    raise AssertionError("orbit labeling did not converge")


def _component_stats(report):
    return sorted(
        (c.n_reference, c.n_evaluation, c.edges_rr, c.edges_ee, c.edges_re)
        for c in report.components
    )


def _relabeling_preserves_report(n, slots, gen):
    mask = int(gen.integers(0, 1 << len(slots)))
    label_mask = int(gen.integers(1, (1 << n) - 1))
    perm = [int(p) for p in gen.permutation(n)]
    edges = _mask_edges(mask, slots)
    is_ref = [(label_mask >> v) & 1 == 1 for v in range(n)]
    base = score_labeled_graph(NeighborhoodGraph(n, edges), is_ref)

    mapped_ref = [False] * n
    for v in range(n):
        mapped_ref[perm[v]] = is_ref[v]
    image = score_labeled_graph(
        NeighborhoodGraph(n, [(perm[u], perm[v]) for u, v in edges]), mapped_ref
    )

    # identical integer counts, so identical floats: exact equality is right
    assert image.network_consistency == base.network_consistency
    assert image.network_quality == base.network_quality
    assert image.precision == base.precision
    assert image.recall == base.recall
    assert image.harmonic == base.harmonic
    assert list(image.fundamental_vertices) == sorted(perm[v] for v in base.fundamental_vertices)
    assert list(image.outliers) == sorted(perm[v] for v in base.outliers)
    assert _component_stats(image) == _component_stats(base)


def test_criterion_3_alignment_scores_exhaustive_small_graphs(capsys):
    start = time.perf_counter()
    worst = 0.0
    instances = 0

    # n <= 5: every graph, every labeling, straight dual-route
    for n in range(2, 6):
        slots = _edge_slots(n)
        labelings = _labelings(n)
        for mask in range(1 << len(slots)):
            edges = _mask_edges(mask, slots)
            graph = NeighborhoodGraph(n, edges)
            comp = _partition_matches_bfs(graph, n, edges)
            for ref, is_eval in labelings:
                d = _scores_match_oracle(score_labeled_graph(graph, ref), n, edges, is_eval, comp)
                if d > worst:
                    worst = d
                instances += 1

    # n = 6, 7: orbit representatives x every labeling
    for n in (6, 7):
        slots = _edge_slots(n)
        index = {e: j for j, e in enumerate(slots)}
        labels = _orbit_minima(n, slots, index)
        reps = np.flatnonzero(labels == np.arange(labels.size))
        assert len(reps) == GRAPH_COUNTS[n]
        assert np.array_equal(np.unique(labels), reps)
        gen = np.random.default_rng(700 + n)
        for _ in range(3):
            table = _perm_mask_table(n, [int(p) for p in gen.permutation(n)], slots, index)
            assert np.array_equal(labels, labels[table])
        labelings = _labelings(n)
        for mask in reps.tolist():
            edges = _mask_edges(mask, slots)
            graph = NeighborhoodGraph(n, edges)
            comp = _partition_matches_bfs(graph, n, edges)
            for ref, is_eval in labelings:
                d = _scores_match_oracle(score_labeled_graph(graph, ref), n, edges, is_eval, comp)
                if d > worst:
                    worst = d
                instances += 1

    # relabeling transport: representative verdicts reach every ordering
    for n, samples in ((6, 3000), (7, 6000)):
        gen = np.random.default_rng(800 + n)
        slots = _edge_slots(n)
        for _ in range(samples):
            _relabeling_preserves_report(n, slots, gen)

    # partitions beyond the representatives
    slots = _edge_slots(6)
    for mask in range(1 << len(slots)):
        edges = _mask_edges(mask, slots)
        _partition_matches_bfs(NeighborhoodGraph(6, edges), 6, edges)
    gen = np.random.default_rng(900)
    slots = _edge_slots(7)
    for mask in gen.integers(0, 1 << len(slots), size=20000).tolist():
        edges = _mask_edges(mask, slots)
        _partition_matches_bfs(NeighborhoodGraph(7, edges), 7, edges)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        capsys,
        3,
        elapsed,
        f"{instances} labeled graphs dual-checked (orbits 156/1044), worst |diff| {worst:.1e}",
    )


# --- criterion 4: loss cost linear in the number of modalities ----------------


def test_criterion_4_loss_cost_linear_in_modalities(capsys):
    start = time.perf_counter()
    # B = 256 makes one call take milliseconds, so each added modality costs
    # far more than timer and cache noise and R^2 stays clear of 0.95
    b, s = 256, 64
    gen = np.random.default_rng(404)
    batches = []
    for m_count in range(1, 9):
        zs = [gen.normal(size=(b, s)) for _ in range(m_count)]
        batches.append(RepresentationBatch(zs, gen.normal(size=(b, s))))

    for m_count, batch in enumerate(batches, start=1):
        assert positive_term_count(batch) == m_count * b

    for batch in batches:
        contrastive_loss(batch, 0.1, False)
        contrastive_loss(batch, 0.1, False)
    # every repetition times all eight batches in turn, so a drift in machine
    # speed spreads over every M instead of landing on a run of M values
    reps = [[] for _ in batches]
    for _ in range(7):
        for batch, times in zip(batches, reps):
            t0 = time.perf_counter()
            contrastive_loss(batch, 0.1, False)
            times.append(time.perf_counter() - t0)
    medians = [sorted(times)[3] for times in reps]

    ms = np.arange(1, 9, dtype=np.float64)
    y = np.array(medians)
    slope, intercept = np.polyfit(ms, y, 1)
    residual = y - (slope * ms + intercept)
    r2 = 1.0 - float((residual**2).sum()) / float(((y - y.mean()) ** 2).sum())
    assert slope > 0
    assert r2 > 0.95
    elapsed = time.perf_counter() - start
    _report(capsys, 4, elapsed, f"term count M*B exact for M in 1..8, wall-clock R^2 {r2:.4f}")


# --- criterion 5: trained quality floors on the default benchmark -------------


def test_criterion_5_trained_model_meets_quality_floors(capsys, dataset, trained):
    start = time.perf_counter()
    model = trained["full", 0, 0.1]

    z_train = model.encode_complete(dataset.complete_view("train"))
    probe = train_probe(z_train, dataset.labels_view("train"), config=ProbeConfig(seed=0))
    table = evaluate_robustness(model, probe, dataset, split="test")
    for m in range(1, dataset.modality_count + 1):
        assert table.modality(m) >= 0.9 * table.complete

    harmonics = _modality_harmonics(model, dataset)
    assert all(h > 0.5 for h in harmonics)

    untrained = GmcModel.build(dataset.config.modality_dims, seed=0)
    baseline = _modality_harmonics(untrained, dataset)
    assert all(h < 0.2 for h in baseline)

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        capsys,
        5,
        elapsed,
        f"probe complete {table.complete:.4f} / worst modality {table.worst_modality():.4f}; "
        f"harmonic min {min(harmonics):.3f}, untrained max {max(baseline):.3f}",
    )


# --- criterion 6: ablation degrades geometric alignment -----------------------


def test_criterion_6_ablated_loss_degrades_alignment(capsys, dataset, trained):
    start = time.perf_counter()
    means = {}
    for variant in ("full", "ablated"):
        scores = []
        for seed in (0, 1, 2):
            scores.extend(_modality_harmonics(trained[variant, seed, 0.1], dataset))
        means[variant] = sum(scores) / len(scores)
    assert means["ablated"] < means["full"]
    elapsed = time.perf_counter() - start
    _report(
        capsys,
        6,
        elapsed,
        f"mean harmonic over 3 seeds: full {means['full']:.6f} > ablated {means['ablated']:.6f}",
    )


# --- criterion 7: probe accuracy stable across temperature --------------------


def test_criterion_7_probe_accuracy_stable_across_tau(capsys, dataset, trained):
    start = time.perf_counter()
    taus = (0.05, 0.1, 0.3, 0.5)
    tables = {}
    for tau in taus:
        model = trained["full", 0, tau]
        z_train = model.encode_complete(dataset.complete_view("train"))
        probe = train_probe(z_train, dataset.labels_view("train"), config=ProbeConfig(seed=0))
        tables[tau] = evaluate_robustness(model, probe, dataset, split="test")
    pathways = ["complete"] + [f"modality_{m}" for m in range(1, dataset.modality_count + 1)]
    spread = max(
        max(tables[tau][key] for tau in taus) - min(tables[tau][key] for tau in taus)
        for key in pathways
    )
    assert spread < 0.05
    elapsed = time.perf_counter() - start
    _report(capsys, 7, elapsed, f"worst per-pathway accuracy spread {spread:.4f} across tau {taus}")


# --- criterion 8: the CLI chain is byte-deterministic --------------------------


def test_criterion_8_cli_chain_byte_identical(capsys, tmp_path, monkeypatch):
    start = time.perf_counter()
    synth = {"n_samples": 120, "n_classes": 3, "modality_dims": [6, 5], "style_dim": 2, "seed": 7}
    train_cfg = {
        "epochs": 2,
        "batch_size": 32,
        "tau": 0.1,
        "seed": 7,
        "model": {"d": 12, "s": 12, "hidden": 12},
    }

    def run_chain(world):
        world.mkdir()
        (world / "synth.json").write_text(json.dumps(synth))
        (world / "train.json").write_text(json.dumps(train_cfg))
        monkeypatch.chdir(world)
        commands = [
            ["gen-data", "--config", "synth.json", "--out", "data"],
            ["train", "--config", "train.json", "--dataset", "data", "--out", "run"],
            ["encode", "--checkpoint", "run/checkpoint.gmc", "--dataset", "data",
             "--pathway", "complete", "--split", "test", "--out", "emb_complete"],
            ["encode", "--checkpoint", "run/checkpoint.gmc", "--dataset", "data",
             "--pathway", "1", "--split", "test", "--out", "emb_m1"],
            ["eval-dca", "--reference", "emb_complete/embeddings.csv",
             "--evaluation", "emb_m1/embeddings.csv", "--out", "dca"],
        ]
        for argv in commands:
            assert main(argv) == 0
        return {
            str(path.relative_to(world)): path.read_bytes()
            for path in sorted(world.rglob("*"))
            if path.is_file()
        }

    first = run_chain(tmp_path / "first")
    second = run_chain(tmp_path / "second")
    assert first == second
    elapsed = time.perf_counter() - start
    _report(capsys, 8, elapsed, f"{len(first)} files byte-identical across independent reruns")


# --- criterion 9: harmonic-mean edge cases -------------------------------------


def test_criterion_9_harmonic_score_edge_cases(capsys):
    start = time.perf_counter()
    assert harmonic_score(1.0, 1.0, 1.0) == 1.0
    assert harmonic_score(0.0, 1.0, 1.0) == 0.0
    assert harmonic_score(1.0, 0.0, 1.0) == 0.0
    assert harmonic_score(1.0, 1.0, 0.0) == 0.0
    assert harmonic_score(0.0, 0.0, 0.0) == 0.0
    assert harmonic_score(1.0, 1.0, 0.5) == 0.75
    elapsed = time.perf_counter() - start
    _report(capsys, 9, elapsed, "exact at (1,1,1), all zero cases, and (1,1,0.5) -> 0.75")
