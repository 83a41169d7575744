"""The recursive Cheeger-cut search against the exhaustive scan, one step
at a time: the paper's claim that both pick the same edge at every
iteration of a solve. Both selectors take the edge terms a solve holds
for its edge set, `gram_terms` here, and the search its cut plan too."""

from fsgl.graph import weaken_edge
from fsgl.objective import edge_terms
from fsgl.partition import LEAF_NODES, cut_plan, partition_select
from fsgl.solver import compute_state, greedy_step


def gram_terms(g, y, cfg):
    """edge_terms of the Gram matrix y on g's edge rows at cfg.epsilon: the
    `terms` a solve hands either selector for g."""
    m_arr, n_arr, _ = g.edge_arrays()
    return edge_terms(y, m_arr, n_arr, cfg.epsilon)


def lockstep(g, obs, cfg, max_steps):
    """Call `greedy_step` and `partition_select`, with g's `gram_terms` and
    its cut_plan(g, LEAF_NODES), on one fresh `compute_state` of `g` and
    assert the same edge and bitwise the same grad, then weaken `g` by the
    scan's pick, for at most `max_steps` steps. Returns (steps compared,
    whether both selectors returned None)."""
    for step in range(max_steps):
        state = compute_state(g, cfg, obs.k)
        terms = gram_terms(g, obs.gram, cfg)
        exhaustive = greedy_step(g, state, cfg, terms)
        recursive = partition_select(g, state, cfg, terms, cut_plan(g, LEAF_NODES))
        if exhaustive is None:
            assert recursive is None
            return step, True
        assert recursive is not None
        assert recursive[0] == exhaustive[0]
        assert recursive[1] == exhaustive[1]
        g = weaken_edge(g, exhaustive[0], cfg.epsilon)
    return max_steps, False
