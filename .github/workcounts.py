"""Per-task call counts of padefit's named layers, at two source trees.

    python3 .github/workcounts.py HEAD_ROOT PARENT_ROOT

For each library workload of the benchmark, a fresh process per tree runs
the first 20 tasks of pool seed 1 (``perfbench/workloads.py``, imported
read-only, with padefit from the tree's ``src/``) under one cProfile pass
and counts the calls of each function in LAYERS.  For numpy's ``qr``,
``svd`` and ``solve`` it also counts the matrices they factor, the sum of
the leading stack sizes of their first arguments (1 for a lone matrix): a
batched call factors each matrix alone, so a call count alone hides work
that moves from one routine's calls into another's stacks.  Counts are
exact and do not depend on the host.  The script prints a Markdown table,
one cell per layer and workload: the count where both trees agree,
``parent -> head`` where they do not, and ``absent`` for a function that a
tree does not have.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import pstats
import subprocess
import sys
from pathlib import Path

TASKS = 20
SEED = 1
WORKLOADS = ("extrapolation", "structure_search", "reliability")

#: (module, function): a function of the module, or a method of one of its classes
LAYERS = (
    ("padefit.fitting", "_fit"),
    ("padefit.linsys", "_solve"),
    ("padefit.rational", "_scan"),
    ("padefit.rational", "_horner"),
    ("padefit.rational", "_bisect"),
    ("padefit.diagnostics", "_measures"),
    ("padefit.weibull", "_graded_gauss"),
    ("numpy.linalg", "qr"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "solve"),
    ("numpy", "errstate.__enter__"),
)

#: numpy.linalg functions whose matrices are counted too, as "<name> matrices"
FACTORED = ("qr", "svd", "solve")


def count(root: Path, workload: str) -> dict[str, float]:
    """Calls per task of each layer that `root` has, in one profiled pass;
    a layer that `root` does not have is left out."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from padefit.errors import PadefitError

    codes = {}  # pstats key of the function's code -> (module, function)
    for module, function in LAYERS:
        try:
            code = inspect.unwrap(functools.reduce(getattr, function.split("."), importlib.import_module(module))).__code__
        except AttributeError:
            continue
        codes[(code.co_filename, code.co_firstlineno, code.co_name)] = (module, function)
    import numpy as np

    matrices = dict.fromkeys(FACTORED, 0)
    for name in FACTORED:
        setattr(np.linalg, name, factoring(name, getattr(np.linalg, name), matrices))
    pool = workloads.build_pool(workload, SEED)[:TASKS]
    task = workloads.TASKS[workload]
    profile = cProfile.Profile()
    for inputs in pool:
        profile.enable()
        try:
            task(inputs)
        except PadefitError:
            pass
        finally:
            profile.disable()
    stats = pstats.Stats(profile).stats
    out = {label(*layer): stats[key][1] / TASKS if key in stats else 0.0 for key, layer in codes.items()}
    return out | {f"linalg.{name} matrices": matrices[name] / TASKS for name in FACTORED}


def factoring(name: str, call, matrices: dict):
    # `call`, adding the leading stack size of its first argument to matrices[name]
    @functools.wraps(call)
    def counting(a, *args, **kwargs):
        matrices[name] += a.shape[0] if a.ndim > 2 else 1
        return call(a, *args, **kwargs)

    return counting


def label(module: str, function: str) -> str:
    return f"{module.removeprefix('padefit.')}.{function}"


def counts_at(root: Path) -> dict[str, dict[str, float]]:
    # one fresh process per workload, so no cache carries over between them
    out = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(root), workload],
            cwd=root, capture_output=True, text=True, check=True,
        )
        out[workload] = json.loads(child.stdout.splitlines()[-1])
    return out


def cell(head: dict, parent: dict, layer: str) -> str:
    show = lambda counts: f"{counts[layer]:g}" if layer in counts else "absent"
    return show(head) if show(head) == show(parent) else f"{show(parent)} -> {show(head)}"


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        print(json.dumps(count(Path(argv[1]).resolve(), argv[2])))
        return
    head, parent = (counts_at(Path(root).resolve()) for root in argv)
    print(f"Calls per task, {TASKS} tasks of pool seed {SEED} (parent -> head where they differ)\n")
    print("| layer | " + " | ".join(WORKLOADS) + " |")
    print("| --- |" + " --- |" * len(WORKLOADS))
    rows = [label(*layer) for layer in LAYERS]
    for name in reversed(FACTORED):  # each beside its call count
        rows.insert(rows.index(f"numpy.linalg.{name}") + 1, f"linalg.{name} matrices")
    for row in rows:
        print(f"| {row} | " + " | ".join(cell(head[w], parent[w], row) for w in WORKLOADS) + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
