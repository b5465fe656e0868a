"""Brute-force reference implementations used only by the test suite.

Everything here is written with explicit loops over Python floats,
independent of the package's tensor engine and numpy formulations, so the
production code and these oracles can only agree by computing the same
mathematics. The one exception is `knn_edges_loops`: k-NN edges must agree
bit for bit on ties and near-ties, so it keeps the straightforward per-point
numpy distance loop whose arithmetic the production graph reproduces.
"""

import math
from fractions import Fraction

import numpy as np


def cos_loops(u, v):
    uu = vv = uv = 0.0
    for k in range(len(u)):
        uu += u[k] * u[k]
        vv += v[k] * v[k]
        uv += u[k] * v[k]
    c = uv / (math.sqrt(uu) * math.sqrt(vv))
    return max(-1.0, min(1.0, c))


def sim_loops(u, v, tau):
    return math.exp(cos_loops(u, v) / tau)


def mnt_xent_loops(zs, zc, tau):
    """Triple-loop total loss. zs: per-modality lists of sample vectors."""
    m_count, b = len(zs), len(zc)
    total = 0.0
    for m in range(m_count):
        for i in range(b):
            omega = 0.0
            for j in range(b):
                if j == i:
                    continue
                omega += sim_loops(zs[m][i], zc[j], tau)
                omega += sim_loops(zs[m][i], zs[m][j], tau)
                omega += sim_loops(zc[i], zc[j], tau)
            total += -math.log(sim_loops(zs[m][i], zc[i], tau) / omega)
    return total


def mnt_xent_ablated_loops(zs, zc, tau):
    m_count, b = len(zs), len(zc)
    total = 0.0
    for m in range(m_count):
        for i in range(b):
            omega = 0.0
            for j in range(b):
                if j != i:
                    omega += sim_loops(zc[i], zc[j], tau)
            total += -math.log(sim_loops(zs[m][i], zc[i], tau) / omega)
    return total


# --- graph alignment oracle -------------------------------------------------


def knn_edges_loops(points, k):
    """Sorted edges of the symmetric k-NN graph, one full distance row per
    point: each point joins its k nearest others by (squared distance,
    index)."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    edges = set()
    for i in range(n):
        diff = pts - pts[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        # lexsort's last key is primary: sort by distance, then index
        order = np.lexsort((np.arange(n), d2))
        for j in order[:k]:
            edges.add((min(i, int(j)), max(i, int(j))))
    return tuple(sorted(edges))


def components_bfs(n, edges):
    """Connected components by breadth-first search over an adjacency list.

    Returns a component id per vertex; ids are assigned by ascending
    smallest member, matching no particular production convention beyond
    being canonical.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    next_id = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        queue = [start]
        comp[start] = next_id
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if comp[w] == -1:
                    comp[w] = next_id
                    queue.append(w)
        next_id += 1
    return comp


def dca_scores_fractions(n, edges, is_eval):
    """Exact rational alignment scores for one labeled graph.

    Returns a dict with per-component tuples and the network-level values,
    all as Fractions (or exact ints where natural).
    """
    comp = components_bfs(n, edges)
    k = max(comp) + 1 if n else 0
    n_ref = [0] * k
    n_ev = [0] * k
    e_rr = [0] * k
    e_ee = [0] * k
    e_re = [0] * k
    for v in range(n):
        if is_eval[v]:
            n_ev[comp[v]] += 1
        else:
            n_ref[comp[v]] += 1
    for u, v in edges:
        c = comp[u]
        if is_eval[u] and is_eval[v]:
            e_ee[c] += 1
        elif not is_eval[u] and not is_eval[v]:
            e_rr[c] += 1
        else:
            e_re[c] += 1

    def cons(r, e):
        return 1 - Fraction(abs(r - e), r + e)

    def qual(rr, ee, re):
        tot = rr + ee + re
        if tot < 1:
            return Fraction(0)
        return 1 - Fraction(rr + ee, tot)

    comp_c = [cons(n_ref[c], n_ev[c]) for c in range(k)]
    comp_q = [qual(e_rr[c], e_ee[c], e_re[c]) for c in range(k)]
    fundamental = [c for c in range(k) if comp_c[c] > 0 and comp_q[c] > 0]

    tot_ref = sum(n_ref)
    tot_ev = sum(n_ev)
    net_c = cons(tot_ref, tot_ev)
    net_q = qual(sum(e_rr), sum(e_ee), sum(e_re))

    f_ref = sum(n_ref[c] for c in fundamental)
    f_ev = sum(n_ev[c] for c in fundamental)
    precision = Fraction(f_ev, tot_ev)
    recall = Fraction(f_ref, tot_ref)
    if precision > 0 and recall > 0 and net_q > 0:
        harmonic = 3 / (1 / precision + 1 / recall + 1 / net_q)
    else:
        harmonic = Fraction(0)
    return {
        "component_consistency": comp_c,
        "component_quality": comp_q,
        "fundamental": fundamental,
        "network_consistency": net_c,
        "network_quality": net_q,
        "precision": precision,
        "recall": recall,
        "harmonic": harmonic,
        "components": comp,
    }
