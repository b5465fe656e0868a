"""Geometric alignment scoring between two labeled point sets.

A reference set R and an evaluation set E are pooled into one cloud, joined
by a symmetric k-nearest-neighbor graph, and scored per connected component:
consistency c measures the R/E balance of a component's vertices, quality q
the fraction of its edges that cross between R and E. Components with both
scores positive are fundamental; precision (recall) is the fraction of E (R)
vertices lying in fundamental components, and the reported scalar is the
harmonic mean of precision, recall and whole-graph quality.

Scoring is deliberately decoupled from graph construction: any undirected
graph over labeled vertices can be scored, and the construction itself is an
approximation choice (exact Delaunay triangulation is hopeless in latent
dimensions; a symmetric k-NN graph with deterministic tie-breaks stands in).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, ShapeError


@dataclass(frozen=True)
class LabeledPointCloud:
    """Pooled R and E points; `is_reference[i]` marks origin."""

    points: np.ndarray
    is_reference: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        mask = np.asarray(self.is_reference, dtype=bool)
        if points.ndim != 2:
            raise ShapeError("labeled_point_cloud", points.shape)
        if mask.shape != (points.shape[0],):
            raise ShapeError("labeled_point_cloud", points.shape, mask.shape)
        if not np.isfinite(points).all():
            raise DataError("point cloud contains non-finite coordinates")
        # squared distances reach 4 max|x|^2; the factor 8 leaves room for the
        # rounding bound build_graph relies on
        with np.errstate(over="ignore"):
            sq_max = 8.0 * np.einsum("ij,ij->i", points, points).max(initial=0.0)
        if not np.isfinite(sq_max):
            raise DataError("point cloud coordinates too large: squared distances overflow float64")
        if not mask.any() or mask.all():
            raise DataError("need at least one reference and one evaluation point")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "is_reference", mask)

    @classmethod
    def from_sets(cls, reference, evaluation) -> "LabeledPointCloud":
        """Stack reference points first, then evaluation points."""
        r = np.asarray(reference, dtype=np.float64)
        e = np.asarray(evaluation, dtype=np.float64)
        if r.ndim != 2 or e.ndim != 2 or r.shape[1] != e.shape[1]:
            raise ShapeError("from_sets", r.shape, e.shape)
        mask = np.concatenate([np.ones(r.shape[0], bool), np.zeros(e.shape[0], bool)])
        return cls(np.concatenate([r, e], axis=0), mask)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class NeighborhoodGraph:
    """Undirected simple graph plus its connected-component partition.

    `edges` may be given as vertex pairs or as an (E, 2) integer array; it is
    stored as sorted (min, max) tuples, and `edge_array` holds the same pairs
    as an (E, 2) array. `components` are tuples of sorted vertex indices,
    ordered by their smallest vertex; `component_of[v]` gives v's component
    index. Isolated vertices form singleton components.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...] = field(init=False)
    component_of: np.ndarray = field(init=False, repr=False)
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_vertices
        if n < 1:
            raise ContractError("graph needs at least one vertex")
        pairs = np.array(self.edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ContractError(f"edges must be vertex pairs, got shape {pairs.shape}")
        pairs.sort(axis=1)
        lo, hi = pairs[:, 0], pairs[:, 1]
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if np.count_nonzero(bad):
            u, v = np.array(self.edges, dtype=np.int64)[bad.argmax()].tolist()
            raise ContractError(f"self-loop at vertex {u}" if u == v else f"edge ({u}, {v}) outside vertex range")
        keys = lo * n + hi
        order = keys.argsort(kind="stable")
        keys = keys[order]
        repeated = keys[1:] == keys[:-1]
        if np.count_nonzero(repeated):
            first = order[1:][repeated].min()  # the first repeat in input order
            raise ContractError(f"duplicate edge {tuple(pairs[first].tolist())}")
        edge_array = pairs[order]
        lo, hi = edge_array[:, 0], edge_array[:, 1]

        # Hook and compress: hooking each root to a smaller root keeps
        # parent[x] < x for every other vertex, so every root ends as the
        # smallest vertex of its component, and ceil(log2 n) jumps reach it
        # from any vertex; the loop ends once no edge joins two trees.
        parent = np.arange(n)
        jumps = (n - 1).bit_length()
        while True:
            root_lo, root_hi = parent[lo], parent[hi]
            if not np.count_nonzero(root_lo != root_hi):
                break
            np.minimum.at(parent, np.maximum(root_lo, root_hi), np.minimum(root_lo, root_hi))
            for _ in range(jumps):
                parent = parent[parent]
        component_of = ((parent == np.arange(n)).cumsum() - 1)[parent]
        members = component_of.argsort(kind="stable").tolist()
        bounds = np.bincount(component_of).cumsum().tolist()
        components = tuple(tuple(members[a:b]) for a, b in zip([0] + bounds[:-1], bounds))
        for array in (edge_array, component_of):
            array.setflags(write=False)
        object.__setattr__(self, "edges", tuple(zip(lo.tolist(), hi.tolist())))
        object.__setattr__(self, "edge_array", edge_array)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "component_of", component_of)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


# Rows per Gram block: each block array is 64 * n floats (2 MB at n = 4000),
# so memory stays flat as the cloud grows.
_BLOCK_ROWS = 64


def build_graph(cloud: LabeledPointCloud, k: int = 5) -> NeighborhoodGraph:
    """Symmetric k-NN graph: (u,v) is an edge iff either is in the other's
    k nearest. Neighbor ranking is by (distance, lower index), which makes
    the result independent of construction order; k must satisfy 1 <= k < n.
    """
    n = cloud.n_points
    if not 1 <= k < n:
        raise ContractError(f"k must satisfy 1 <= k < n={n}, got {k}")
    pts = cloud.points
    dim = pts.shape[1]
    sq = np.einsum("ij,ij->i", pts, pts)
    # Row i's Gram values only filter candidates: its upper and lower
    # values are U_ij = fl(A_ij + fl(s_j + rho_j)) and
    # L_ij = fl(A_ij + fl(s_j - rho_j)), with A_ij = fl((-2 x_i) . x_j) from
    # the GEMM and s = fl(|x|^2). They leave out |x_i|^2, which shifts the
    # whole row alike. The candidates are ranked by D = sum(fl(x_j - x_i)^2),
    # so ties and near-ties fall as in a full distance row.
    # Rounding bound (Higham, "Accuracy and Stability of Numerical
    # Algorithms", ch. 3, with u = 2^-53, gamma_m = m u / (1 - m u),
    # G = gamma_{dim+2} >= 3u, n = |x|^2 exact and d2 = |x_i - x_j|^2):
    # - -2 x_i is exact (a power of two; nothing overflows, see below), so
    #   |A_ij + 2 x_i.x_j| <= G (n_i + n_j) in any summation order, FMA or
    #   not, as 2|x_i||x_j| <= n_i + n_j; and |s_j - n_j| <= G n_j;
    # - D rounds once in each difference, once in each square and dim - 1
    #   times in a sum of non-negative terms: |D - d2| <= G d2, and
    #   d2 <= 2 (n_i + n_j);
    # - forming s_j +- rho_j and adding it to A_ij round by at most
    #   u (s_j + rho_j) and u (n_i + n_j + s_j + rho_j), to first order.
    # So D_il - n_i <= U_il + beta_i and L_ij <= D_ij - n_i + beta_i, where
    # the row term beta_i = (3G + 2u) n_i, as long as rho_j covers the
    # column term (4G + 5u) n_j + 3u rho_j. rho_j = 8 gamma_{dim+3} s_j
    # + (4 dim + 8) eta covers it, with room for the second-order terms and
    # the roundings of forming rho, and 2 rho_i covers 2 beta_i. Under
    # gradual underflow sums and differences keep their relative bound, but
    # each product may also err by eta/2, half the smallest subnormal: A_ij,
    # s_j and D carry 3 dim such errors, 1.5 dim eta in all, which the
    # absolute term covers on the row side and on the column side. Nothing
    # overflows: LabeledPointCloud rejects clouds whose 8 max|x|^2 is not
    # finite, and no value formed here exceeds 4 max|x|^2 by more than the
    # bound.
    # Let T_i be the k-th smallest U_il (l != i). The threshold
    # nextafter(fl(T_i + 2 rho_i), +inf) is at least T_i + 2 beta_i, so a
    # point j with L_ij above it has D_ij - n_i > T_i + beta_i >= D_il - n_i
    # for the k points l with U_il <= T_i; j is not one of them, since
    # L_ij <= U_ij. So j is never among the k nearest, not even on a tie.
    # Only rho splits per column: a bound from the largest s_j would make
    # one far outlier turn every point into a candidate.
    u = 2.0**-53
    rel = 8.0 * (dim + 3) * u / (1.0 - (dim + 3) * u)
    rho = rel * sq + (4 * dim + 8) * 2.0**-1074
    upper, lower, slack = sq + rho, sq - rho, 2.0 * rho
    # reused across blocks: the GEMM block, the upper values and the mask
    block_rows = min(_BLOCK_ROWS, n)
    gram = np.empty((block_rows, n))
    ranked = np.empty((block_rows, n))
    kept = np.empty((block_rows, n), dtype=bool)
    # rows of x_j - x_i per exact-distance pass: at most n, and at most
    # 65536 floats, so each pass stays in cache and a block that keeps every
    # point (a collapsed cloud) holds no more than a few 64 x n arrays
    chunk = max(1, min(n, 65536 // max(dim, 1)))
    nearest = np.empty((n, k), dtype=np.int64)
    for r0 in range(0, n, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        m = r1 - r0
        g, part, keep = gram[:m], ranked[:m], kept[:m]
        np.matmul(-2.0 * pts[r0:r1], pts.T, out=g)
        # +inf keeps each point out of its own neighbour list: T_i is
        # finite because k < n
        local = np.arange(m)
        g[local, local + r0] = np.inf
        np.add(g, upper, out=part)
        part.partition(k - 1, axis=1)
        threshold = np.nextafter(part[:, k - 1] + slack[r0:r1], np.inf)
        g += lower
        np.less_equal(g, threshold[:, None], out=keep)
        flat = np.flatnonzero(keep)
        row, cand = np.divmod(flat, n)
        row += r0
        d2 = np.empty(flat.size)
        for c0 in range(0, flat.size, chunk):
            diff = pts[cand[c0 : c0 + chunk]] - pts[row[c0 : c0 + chunk]]
            d2[c0 : c0 + chunk] = np.einsum("ij,ij->i", diff, diff)
        # lexsort's last key is primary: by row, then distance, then index;
        # `row` is already sorted, so each row's group starts where it did
        order = np.lexsort((cand, d2, row))
        starts = np.searchsorted(row, np.arange(r0, r1))
        nearest[r0:r1] = cand[order[starts[:, None] + np.arange(k)]]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = nearest.ravel()
    keys = np.minimum(src, dst) * n + np.maximum(src, dst)
    keys.sort()
    # sort and drop repeats, as np.unique would without importing numpy.ma
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return NeighborhoodGraph(n, np.stack([keys // n, keys % n], axis=1))


# --- scoring ------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentScore:
    component_id: int
    vertices: tuple[int, ...]
    n_reference: int
    n_evaluation: int
    edges_rr: int
    edges_ee: int
    edges_re: int
    consistency: float
    quality: float

    @property
    def fundamental(self) -> bool:
        return self.consistency > 0.0 and self.quality > 0.0


def component_consistency(n_reference: int, n_evaluation: int) -> float:
    """c = 1 - |nR - nE| / (nR + nE), the vertex balance of a component."""
    total = n_reference + n_evaluation
    if total < 1:
        raise ContractError("component must be nonempty")
    return 1.0 - abs(n_reference - n_evaluation) / total


def component_quality(edges_rr: int, edges_ee: int, edges_re: int) -> float:
    """q = 1 - (same-origin edges)/(all edges); 0 for an edgeless component."""
    total = edges_rr + edges_ee + edges_re
    if total < 1:
        return 0.0
    return 1.0 - (edges_rr + edges_ee) / total


# column of an edge in (rr, ee, re), by how many of its endpoints are reference
_EDGE_KIND = np.array([1, 2, 0])


def score_components(graph: NeighborhoodGraph, is_reference) -> list[ComponentScore]:
    mask = np.asarray(is_reference, dtype=bool)
    if mask.shape != (graph.n_vertices,):
        raise ShapeError("score_components", (graph.n_vertices,), mask.shape)
    n_components = len(graph.components)
    lo, hi = graph.edge_array[:, 0], graph.edge_array[:, 1]
    ref = mask.view(np.int8)
    slot = graph.component_of[lo] * 3 + _EDGE_KIND[ref[lo] + ref[hi]]
    counts = np.bincount(slot, minlength=3 * n_components).reshape(n_components, 3).tolist()
    refs = np.bincount(graph.component_of[mask], minlength=n_components).tolist()
    return [
        ComponentScore(
            component_id=ci,
            vertices=comp,
            n_reference=n_r,
            n_evaluation=len(comp) - n_r,
            edges_rr=rr,
            edges_ee=ee,
            edges_re=re,
            consistency=component_consistency(n_r, len(comp) - n_r),
            quality=component_quality(rr, ee, re),
        )
        for ci, (comp, n_r, (rr, ee, re)) in enumerate(zip(graph.components, refs, counts))
    ]


def _pooled_scores(scores: list[ComponentScore]) -> tuple[float, float]:
    """(c, q) of the whole graph from the summed counts of its components."""
    return component_consistency(
        sum(s.n_reference for s in scores), sum(s.n_evaluation for s in scores)
    ), component_quality(
        sum(s.edges_rr for s in scores), sum(s.edges_ee for s in scores), sum(s.edges_re for s in scores)
    )


def fundamental_components(scores: list[ComponentScore]) -> tuple[int, ...]:
    """Sorted vertices of all components with c > 0 and q > 0."""
    vertices: list[int] = []
    for score in scores:
        if score.fundamental:
            vertices.extend(score.vertices)
    return tuple(sorted(vertices))


def precision_recall(is_reference, fundamental_vertices) -> tuple[float, float]:
    """P = fundamental share of E vertices, R = fundamental share of R vertices."""
    mask = np.asarray(is_reference, dtype=bool)
    n_r = int(np.count_nonzero(mask))
    n_e = mask.size - n_r
    if n_r < 1 or n_e < 1:
        raise ContractError("need both reference and evaluation vertices")
    in_f = np.zeros(mask.size, dtype=bool)
    in_f[list(fundamental_vertices)] = True
    found_r = int(np.count_nonzero(in_f & mask))
    return (int(np.count_nonzero(in_f)) - found_r) / n_e, found_r / n_r


def harmonic_score(precision: float, recall: float, quality: float) -> float:
    """3/(1/P + 1/R + 1/q), or 0 as soon as any input is 0."""
    for value in (precision, recall, quality):
        if not 0.0 <= value <= 1.0:
            raise ContractError(f"harmonic inputs must lie in [0,1], got {value!r}")
    if precision <= 0.0 or recall <= 0.0 or quality <= 0.0:
        return 0.0
    return 3.0 / (1.0 / precision + 1.0 / recall + 1.0 / quality)


@dataclass(frozen=True)
class DcaReport:
    """Full scoring output for one (R, E) pair.

    The harmonic score combines precision, recall and *network* quality;
    network consistency is reported alongside but never enters the score.
    Outliers are the vertices left outside every fundamental component,
    exported for plotting only.
    """

    components: tuple[ComponentScore, ...]
    network_consistency: float
    network_quality: float
    fundamental_vertices: tuple[int, ...]
    precision: float
    recall: float
    harmonic: float
    outliers: tuple[int, ...]
    n_reference: int
    n_evaluation: int


def score_labeled_graph(graph: NeighborhoodGraph, is_reference) -> DcaReport:
    """Scoring layer alone; works for any graph regardless of provenance."""
    mask = np.asarray(is_reference, dtype=bool)
    scores = score_components(graph, mask)
    net_c, net_q = _pooled_scores(scores)
    fundamental = fundamental_components(scores)
    precision, recall = precision_recall(mask, fundamental)
    outside = np.ones(graph.n_vertices, dtype=bool)
    outside[list(fundamental)] = False
    n_r = int(np.count_nonzero(mask))
    return DcaReport(
        components=tuple(scores),
        network_consistency=net_c,
        network_quality=net_q,
        fundamental_vertices=fundamental,
        precision=precision,
        recall=recall,
        harmonic=harmonic_score(precision, recall, net_q),
        outliers=tuple(outside.nonzero()[0].tolist()),
        n_reference=n_r,
        n_evaluation=mask.size - n_r,
    )


def evaluate_alignment(reference, evaluation, k: int = 5) -> DcaReport:
    """Full pipeline: pool points, build the k-NN graph, score it."""
    cloud = LabeledPointCloud.from_sets(reference, evaluation)
    graph = build_graph(cloud, k)
    return score_labeled_graph(graph, cloud.is_reference)
