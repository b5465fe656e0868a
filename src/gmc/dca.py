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

    `components` are tuples of sorted vertex indices, ordered by their
    smallest vertex; `component_of[v]` gives v's component index. Isolated
    vertices form singleton components.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...] = field(init=False)
    component_of: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ContractError("graph needs at least one vertex")
        seen = set()
        normalized = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ContractError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ContractError(f"edge ({u}, {v}) outside vertex range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ContractError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))

        parent = list(range(self.n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in normalized:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        groups: dict[int, list[int]] = {}
        for v in range(self.n_vertices):
            groups.setdefault(find(v), []).append(v)
        components = tuple(tuple(groups[root]) for root in sorted(groups))
        component_of = np.empty(self.n_vertices, dtype=np.int64)
        for ci, comp in enumerate(components):
            for v in comp:
                component_of[v] = ci
        component_of.setflags(write=False)
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
    # The Gram value g = fl(s_x + s_y) - 2 fl(x.y), s = fl(|x|^2), only filters
    # candidates; they are ranked by D = sum(fl(y - x)^2), computed per kept
    # candidate, so ties and near-ties fall as in a full distance row.
    # Rounding bound (Higham, "Accuracy and Stability of Numerical
    # Algorithms", ch. 3, with u = 2^-53 and gamma_m = m u / (1 - m u)),
    # for d2 = |x - y|^2:
    # - |s_x - |x|^2| <= gamma_dim |x|^2 and |fl(x.y) - x.y| <= gamma_dim |x||y|
    #   in any summation order, FMA or not; the sum and the difference in g
    #   add two roundings, so |g - d2| <= gamma_{dim+2} (|x| + |y|)^2.
    # - D rounds once in each difference, once in each square and dim - 1
    #   times in a sum of non-negative terms: |D - d2| <= gamma_{dim+2} d2,
    #   and d2 <= (|x| + |y|)^2.
    # So |g - D| <= 2 gamma_{dim+2} (|x| + |y|)^2 <= 4 gamma_{dim+2} (|x|^2 + |y|^2).
    # Forming g +- b rounds once more, by at most 2u (|x|^2 + |y|^2), and
    # fl(s_x + s_y) may fall short of |x|^2 + |y|^2 by a relative gamma_{dim+1};
    # b = 8 gamma_{dim+3} fl(s_x + s_y) covers all of it twice over. Under
    # gradual underflow sums and differences keep that relative bound, but
    # each product may also err by eta/2, half the smallest subnormal: g and
    # D carry 5 dim such errors (the Gram product counts twice), 2.5 dim eta
    # in all, and the absolute term (4 dim + 8) eta also covers the rounding
    # of b itself. Nothing overflows: LabeledPointCloud rejects clouds whose
    # 8 max|x|^2 is not finite.
    # With every |g - D| <= b, a point j whose g_j - b_j exceeds the k-th
    # smallest g + b has k other points strictly nearer by D, so it is never
    # among the k nearest, not even on a tie.
    u = 2.0**-53
    rel = 8.0 * (dim + 3) * u / (1.0 - (dim + 3) * u)
    eta = 2.0**-1074
    nearest = np.empty((n, k), dtype=np.int64)
    for r0 in range(0, n, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        rows = np.arange(r0, r1)
        # in place, so a block holds three 64 x n float arrays at a time;
        # s - 2 x.y and s + (-2 x.y) round alike
        b = sq[r0:r1, None] + sq[None, :]
        g = pts[r0:r1] @ pts.T
        g *= -2.0
        g += b
        # +inf keeps each point out of its own neighbour list: the k-th
        # smallest g + b below is finite because k < n
        g[rows - r0, rows] = np.inf
        b *= rel
        b += (4 * dim + 8) * eta
        lower = g - b
        g += b  # g now holds the upper bound g + b
        g.partition(k - 1, axis=1)
        keep = lower <= g[:, k - 1, None]
        for i, row_keep in zip(rows, keep):
            cand = np.flatnonzero(row_keep)
            diff = pts[cand] - pts[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            # lexsort's last key is primary: sort by distance, then index
            nearest[i] = cand[np.lexsort((cand, d2))[:k]]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = nearest.ravel()
    keys = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    return NeighborhoodGraph(n, tuple(zip((keys // n).tolist(), (keys % n).tolist())))


def graph_from_edges(n_vertices: int, edges) -> NeighborhoodGraph:
    """Score an externally supplied graph (construction-agnostic entry)."""
    return NeighborhoodGraph(int(n_vertices), tuple((int(u), int(v)) for u, v in edges))


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


def score_components(graph: NeighborhoodGraph, is_reference) -> list[ComponentScore]:
    mask = np.asarray(is_reference, dtype=bool)
    if mask.shape != (graph.n_vertices,):
        raise ShapeError("score_components", (graph.n_vertices,), mask.shape)
    counts = [[0, 0, 0] for _ in graph.components]  # rr, ee, re per component
    for u, v in graph.edges:
        slot = counts[graph.component_of[u]]
        if mask[u] and mask[v]:
            slot[0] += 1
        elif not mask[u] and not mask[v]:
            slot[1] += 1
        else:
            slot[2] += 1
    scores = []
    for ci, comp in enumerate(graph.components):
        n_r = int(mask[list(comp)].sum())
        n_e = len(comp) - n_r
        rr, ee, re = counts[ci]
        scores.append(
            ComponentScore(
                component_id=ci,
                vertices=comp,
                n_reference=n_r,
                n_evaluation=n_e,
                edges_rr=rr,
                edges_ee=ee,
                edges_re=re,
                consistency=component_consistency(n_r, n_e),
                quality=component_quality(rr, ee, re),
            )
        )
    return scores


def network_scores(graph: NeighborhoodGraph, is_reference) -> tuple[float, float]:
    """(c, q) of the whole graph: same formulas, pooled counts."""
    mask = np.asarray(is_reference, dtype=bool)
    if mask.shape != (graph.n_vertices,):
        raise ShapeError("network_scores", (graph.n_vertices,), mask.shape)
    n_r = int(mask.sum())
    n_e = graph.n_vertices - n_r
    rr = ee = re = 0
    for u, v in graph.edges:
        if mask[u] and mask[v]:
            rr += 1
        elif not mask[u] and not mask[v]:
            ee += 1
        else:
            re += 1
    return component_consistency(n_r, n_e), component_quality(rr, ee, re)


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
    n_r = int(mask.sum())
    n_e = mask.size - n_r
    if n_r < 1 or n_e < 1:
        raise ContractError("need both reference and evaluation vertices")
    in_f = np.zeros(mask.size, dtype=bool)
    in_f[list(fundamental_vertices)] = True
    precision = float((in_f & ~mask).sum() / n_e)
    recall = float((in_f & mask).sum() / n_r)
    return precision, recall


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
    net_c, net_q = network_scores(graph, mask)
    fundamental = fundamental_components(scores)
    precision, recall = precision_recall(mask, fundamental)
    in_f = np.zeros(graph.n_vertices, dtype=bool)
    in_f[list(fundamental)] = True
    return DcaReport(
        components=tuple(scores),
        network_consistency=net_c,
        network_quality=net_q,
        fundamental_vertices=fundamental,
        precision=precision,
        recall=recall,
        harmonic=harmonic_score(precision, recall, net_q),
        outliers=tuple(int(v) for v in np.flatnonzero(~in_f)),
        n_reference=int(mask.sum()),
        n_evaluation=int((~mask).sum()),
    )


def evaluate_alignment(reference, evaluation, k: int = 5) -> DcaReport:
    """Full pipeline: pool points, build the k-NN graph, score it."""
    cloud = LabeledPointCloud.from_sets(reference, evaluation)
    graph = build_graph(cloud, k)
    return score_labeled_graph(graph, cloud.is_reference)
