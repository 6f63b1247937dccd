"""Cold start: importing the package loads no module a run may not use.

``scipy.stats`` (about 1.3 s of a cold import) would serve only the t
quantile of :func:`~repro.analysis.stats.mean_ci`, and ``networkx``
only the non-lattice builders, :attr:`Topology.graph`, spring layouts
and the dimension-exchange edge coloring, so neither is imported until
first use. Each check runs in a fresh interpreter, because this test
session has long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: module prefixes a plain ``import`` of the package must not load
DEFERRED = ("scipy.stats", "networkx")


def _fresh(body: str) -> tuple[set[str], str]:
    """Run *body* in a fresh interpreter; return the modules it left
    loaded and its last line of output before them."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = f"import json, sys\n{body}\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.splitlines()
    return set(json.loads(out[-1])), (out[-2] if len(out) > 1 else "")


def test_import_loads_neither_scipy_stats_nor_networkx():
    loaded, _ = _fresh("import repro, repro.runner, repro.workloads, repro.cli")
    assert sorted(m for m in loaded if m.startswith(DEFERRED)) == []


RUN_DEFERRED_PATHS = """
from repro.analysis.stats import mean_ci
from repro.runner import RunSpec
from repro.runner.worker import execute_spec
from repro.workloads import build_scenario

topology = build_scenario("star:16+hotspot", seed=0).topology
res = execute_spec(RunSpec("star:16+hotspot", "dimension-exchange", seed=0,
                           max_rounds=5))
print(json.dumps([topology.graph.number_of_edges(), res.final_cov,
                  res.total_migrations, mean_ci([1.0, 2.0, 4.0])]))
"""


def test_deferred_paths_import_on_first_use_and_agree_in_process():
    loaded, printed = _fresh(RUN_DEFERRED_PATHS)
    assert "networkx" in loaded and "scipy.special" in loaded
    assert "scipy.stats" not in loaded

    # The same calls in this process, whose imports are long warm.
    namespace = {"json": json, "print": lambda line: namespace.update(line=line)}
    exec(RUN_DEFERRED_PATHS, namespace)
    assert printed == namespace["line"]
