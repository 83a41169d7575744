"""The recursive Cheeger-cut search against the exhaustive scan, one step
at a time: the paper's claim that both pick the same edge at every
iteration of a solve."""

from fsgl.graph import weaken_edge
from fsgl.partition import partition_select
from fsgl.solver import compute_state, greedy_step


def lockstep(g, obs, cfg, max_steps):
    """Call `greedy_step` and `partition_select` on one fresh
    `compute_state` of `g` and assert the same edge and bitwise the same
    grad, then weaken `g` by the scan's pick, for at most `max_steps`
    steps. Returns (steps compared, whether both selectors returned None)."""
    for step in range(max_steps):
        state = compute_state(g, cfg, obs.k)
        exhaustive = greedy_step(g, obs.gram, state, cfg)
        recursive = partition_select(g, state, obs, cfg)
        if exhaustive is None:
            assert recursive is None
            return step, True
        assert recursive is not None
        assert recursive[0] == exhaustive[0]
        assert recursive[1] == exhaustive[1]
        g = weaken_edge(g, exhaustive[0], cfg.epsilon)
    return max_steps, False
