"""The benchmark's instance recipe and start rule are the library's.

perfbench/harness.py draws its instances and builds its start graphs
with code of its own. These tests pin both, bit for bit, to
`datagen.draw_instance` and `init_graph.initial_graph`, so the harness
can switch to the library functions without moving a digest. The
harness is imported read-only, as perfbench's own tests import it.
"""

import inspect
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
from fsgl.bench import run_benchmark  # noqa: E402
from fsgl.datagen import draw_instance, sample_count  # noqa: E402
from fsgl.init_graph import default_budget, initial_graph  # noqa: E402

WORKLOADS = ("dense-greedy-n30", "sparse-recursive-n30", "sparse-greedy-full-n30", "tiny")
CASES = [(name, seed, i) for name in WORKLOADS for seed in (0, 3) for i in range(3)]


def same_edges(a, b) -> bool:
    """Whether two graphs hold bitwise equal edge arrays."""
    return a.n == b.n and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                              for x, y in zip(a.edge_arrays(), b.edge_arrays()))


def test_harness_generator_constants_are_run_benchmarks_defaults():
    params = inspect.signature(run_benchmark).parameters
    assert [params[p].default for p in ("density", "rho", "nu", "n_components",
                                        "mean_scale")] == [
        harness.DENSITY, harness.RHO, harness.NU, harness.N_COMPONENTS, harness.MEAN_SCALE]


@pytest.mark.parametrize("name, seed, i", CASES)
def test_harness_instance_is_draw_instance(name, seed, i):
    wl = harness.WORKLOADS[name]
    inst = harness.make_instance(name, seed, i)
    gt, obs = draw_instance(wl.n, sample_count(wl.n, wl.ratio), harness.GENERATORS[i % 2],
                            [seed % 2**64, zlib.crc32(name.encode()), i], harness.DENSITY,
                            harness.RHO, harness.NU, harness.N_COMPONENTS,
                            harness.MEAN_SCALE)
    assert inst.generator == harness.GENERATORS[i % 2]
    assert inst.obs.x.dtype == obs.x.dtype and inst.obs.x.shape == obs.x.shape
    assert inst.obs.x.tobytes() == obs.x.tobytes()
    assert same_edges(inst.truth, gt.w_star)


@pytest.mark.parametrize("name, seed, i", CASES)
def test_harness_start_is_initial_graph(name, seed, i):
    # the sparse workloads start from the tree plus the default 3N budget;
    # without that budget, greedy starts from the complete graph
    wl = harness.WORKLOADS[name]
    obs = harness.make_instance(name, seed, i).obs
    cfg = harness.solver_config(wl)
    if wl.init == "sparse":
        cfg = replace(cfg, budget_b=default_budget(wl.n, None))
    assert same_edges(harness.initial_graph(wl, obs), initial_graph(obs, cfg))
