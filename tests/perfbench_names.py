"""The curvlab names the benchmark under perfbench/ reads, found on its syntax
trees without running it: the functions its tracer rebinds (``TRACED`` in
perfbench/tracer.py) and every ``module.attr`` that its workloads, its child
process and its tracer take from curvlab."""

from __future__ import annotations

import ast
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
READERS = ("workloads.py", "child.py", "tracer.py")


def traced() -> list[tuple]:
    """The ``TRACED`` rows of perfbench/tracer.py: (module, attribute path,
    metric prefix, reports nodes)."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [tuple(row) for row in ast.literal_eval(node.value)]
    raise LookupError("no TRACED in perfbench/tracer.py")


def curvlab_reads(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, attribute) for each name a module takes from curvlab: the
    names of ``from curvlab.m import x`` and the attributes read off a
    curvlab module it imported; module "" is the package itself."""
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "curvlab":
                    # import curvlab.m binds curvlab; import curvlab.m as x binds m
                    if alias.asname:
                        modules[alias.asname] = alias.name[len("curvlab."):]
                    else:
                        modules["curvlab"] = ""
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module == "curvlab":
                for alias in node.names:
                    modules[alias.asname or alias.name] = alias.name
                    reads.add(("", alias.name))
            elif node.module.startswith("curvlab."):
                for alias in node.names:
                    reads.add((node.module[len("curvlab."):], alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
    return reads


def benchmark_reads() -> set[tuple[str, str]]:
    """Every (module, top-level name) of curvlab that the benchmark reads."""
    reads = {(module, path.split(".")[0]) for module, path, _, _ in traced()}
    for name in READERS:
        reads |= curvlab_reads(ast.parse((PERFBENCH / name).read_text()))
    return reads
