"""The oracles share no formula with the closed forms they check.

``potential_oracle`` and the closed forms live in one module,
``coulomblab.domains``.  This test reads that module with ``ast``, follows
the module-level functions that ``potential_oracle`` calls, transitively,
and asserts that they use no module-level name beyond the oracle code, the
shared body code and the quadrature.  An oracle that reached a closed form
(``background_potential``, ``_lambda_integral``, ``rectangle_log_potential``
and the rest) would no longer be an independent check of it.  The
benchmark's references are held to the same rule: ``bench/references.py``
imports nothing from the package.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

ORACLES = {"potential_oracle", "_oracle_1d", "_oracle_2d", "_oracle_box",
           "_oracle_ellipsoid", "_sphere_rule", "_edge_integral", "_frame",
           "_check_reach"}
SHARED = {
    # the bodies
    "Hyperellipsoid", "Annulus2D", "Box", "UniformDomain", "UnsupportedRegionError",
    "_ball_radius", "_point", "sphere_area", "gamma", "lru_cache",
    # the quadrature
    "adaptive_1d", "gl_nodes", "EvalResult",
    # the oracles' constants and the standard modules
    "_EDGE_MAPS", "_Q_FLOOR", "_SPHERE_NODES", "math", "np", "itertools", "replace",
}


def _module_names(tree):
    """The names that the module binds at its top level, and its functions."""
    names, functions = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names, functions


def oracle_names(source: str) -> set:
    """The module-level names used by ``potential_oracle`` and by every
    module-level function that it reaches, decorators included."""
    names, functions = _module_names(ast.parse(source))
    used, todo = set(), ["potential_oracle"]
    while todo:
        fn = todo.pop()
        used.add(fn)
        for node in ast.walk(functions[fn]):
            if isinstance(node, ast.Name) and node.id in names and node.id not in used:
                used.add(node.id)
                if node.id in functions:
                    todo.append(node.id)
    return used


def test_oracles_reach_no_closed_form():
    used = oracle_names((ROOT / "src" / "coulomblab" / "domains.py").read_text())
    # the walk reaches every oracle path, so the check below is not vacuous
    assert {"_oracle_1d", "_oracle_2d", "_oracle_box", "_oracle_ellipsoid"} <= used
    assert used <= ORACLES | SHARED, sorted(used - ORACLES - SHARED)


def test_the_walk_catches_an_oracle_that_calls_a_closed_form():
    # the check fails on a module whose oracle reaches a closed form through
    # a helper, and passes without it
    source = """
import math
def background_potential(dom, r):
    return 0.0
def _helper(dom, r):
    return background_potential(dom, r)
def potential_oracle(dom, r):
    return math.fsum([_helper(dom, r)])
"""
    assert oracle_names(source) == {"potential_oracle", "_helper", "background_potential",
                                    "math"}
    clean = source.replace("return background_potential(dom, r)", "return 0.0")
    assert oracle_names(clean) == {"potential_oracle", "_helper", "math"}


def test_bench_references_import_nothing_from_the_package():
    tree = ast.parse((ROOT / "bench" / "references.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no imports read"
    assert not [m for m in imported if m.partition(".")[0] == "coulomblab" or m.startswith(".")], \
        sorted(imported)
