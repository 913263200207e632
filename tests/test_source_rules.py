"""Rules the package source keeps, checked on its syntax trees."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import curvlab
from curvlab.variations import _GRADIENT_ROWS
from perfbench_names import benchmark_reads

SRC = Path(curvlab.__file__).parent

# the finite-difference oracle and its steps: defined in the package so the
# tests (and the benchmark) can check exact jets against them, never used by it
FD_ORACLE = {
    "fd_partials": "fields.py",
    "DEFAULT_FD_REL_STEP": "fields.py",
    "FIELD_FD_REL_STEP": "tensors.py",
}


def _oracle_uses(tree: ast.AST):
    """(name, line, is_definition) for every mention of an oracle name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in FD_ORACLE:
            yield node.name, node.lineno, True
        elif isinstance(node, ast.Name) and node.id in FD_ORACLE:
            yield node.id, node.lineno, isinstance(node.ctx, ast.Store)
        elif isinstance(node, ast.Attribute) and node.attr in FD_ORACLE:
            yield node.attr, node.lineno, False
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in FD_ORACLE:
                    yield alias.name, node.lineno, False


def test_package_takes_no_finite_difference_partials():
    defined, used = [], []
    for path in sorted(SRC.glob("*.py")):
        for name, line, is_def in _oracle_uses(ast.parse(path.read_text())):
            (defined if is_def else used).append((path.name, name, line))
    assert not used, f"finite-difference oracle referenced in the package: {used}"
    # each name is defined once, where the tests import it from
    assert sorted((f, n) for f, n, _ in defined) == sorted(
        (f, n) for n, f in FD_ORACLE.items()
    )


# every emitted byte leaves through the CLI's one report writer
WRITER_MODULE = "cli.py"
WRITE_CALLS = {"write_text", "write_bytes", "open"}


def _report_writes(tree: ast.AST):
    """(what, line) for every file or stdout write and every to_json* method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("to_json"):
            yield f"def {node.name}", node.lineno
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in WRITE_CALLS:
                yield f.id, node.lineno
            elif isinstance(f, ast.Attribute) and f.attr in WRITE_CALLS:
                yield f.attr, node.lineno
            elif (
                isinstance(f, ast.Attribute)
                and f.attr == "write"
                and isinstance(f.value, ast.Attribute)
                and f.value.attr == "stdout"
            ):
                yield "sys.stdout.write", node.lineno


def test_reports_leave_through_one_writer():
    found = [
        (path.name, what, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != WRITER_MODULE
        for what, line in _report_writes(ast.parse(path.read_text()))
    ]
    assert not found, f"report writes outside {WRITER_MODULE}: {found}"
    # the rule sees the writer it protects
    writer = ast.parse((SRC / WRITER_MODULE).read_text())
    assert {what for what, _ in _report_writes(writer)} == {"write_text", "sys.stdout.write"}


# jets are closed form: sympy is the tests' oracle, never the package's
def _sympy_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "sympy":
                yield name, node.lineno


def test_package_does_not_import_sympy():
    found = [
        (path.name, name, line)
        for path in sorted(SRC.glob("*.py"))
        for name, line in _sympy_imports(ast.parse(path.read_text()))
    ]
    assert not found, f"sympy imported in the package: {found}"
    # the rule sees an import it forbids
    assert list(_sympy_imports(ast.parse("import sympy as sp\nfrom sympy.abc import x")))


def test_importing_the_package_loads_no_sympy():
    code = "import sys, curvlab, curvlab.cli; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "False"


# jets are packed end to end: no module packs a full-axis jet, and a field
# jet is expanded to full derivative axes in one place only
PACKERS = {"_pack", "_pack_jet"}
EXPANDER = "_expand"
EXPANSION_SITE = "_TensorValuedField.jet"


def _named_uses(tree: ast.AST, names: set):
    """(name, enclosing qualified name, line, is_definition) for every
    definition of, or reference to, one of the names."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if child.name in names:
                    yield child.name, ".".join(scope), child.lineno, True
                inner = scope + [child.name]
            elif isinstance(child, ast.Name) and child.id in names:
                yield child.id, ".".join(scope), child.lineno, isinstance(child.ctx, ast.Store)
            elif isinstance(child, ast.Attribute) and child.attr in names:
                yield child.attr, ".".join(scope), child.lineno, False
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    if alias.name in names:
                        yield alias.name, ".".join(scope), child.lineno, False
            yield from walk(child, inner)

    yield from walk(tree, [])


def test_jets_are_packed_end_to_end():
    packers, expansions = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        packers += [(path.name, *use) for use in _named_uses(tree, PACKERS)]
        expansions += [
            (path.name, scope, line)
            for _, scope, line, is_def in _named_uses(tree, {EXPANDER})
            if not is_def
        ]
    assert not packers, f"a full-axis jet is packed in the package: {packers}"
    assert expansions and all(
        (f, scope) == ("fields.py", EXPANSION_SITE) for f, scope, _ in expansions
    ), f"a jet is expanded outside {EXPANSION_SITE}: {expansions}"
    # the rule sees what it forbids
    code = "def _pack(T, r): pass\nclass A:\n    def f(self): _pack_jet(x)"
    found = [(n, s, d) for n, s, _, d in _named_uses(ast.parse(code), PACKERS)]
    assert found == [("_pack", "", True), ("_pack_jet", "A.f", False)]


# the gradient's ten terms are named in three places only: where each is
# written (_gradient_terms), the table of each energy's coefficients
# (_GRADIENT_ROWS) and the one term the identity suites replace, per node
# block of their pass (_suite_sides.block)
TERM_NAMES = {name for rows in _GRADIENT_ROWS.values() for _, name in rows}


def _string_sites(tree: ast.AST, match):
    """(enclosing name, line) for every string constant in code that ``match``
    accepts; docstrings are not code, and a module-level assignment encloses
    its value under its target's name."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
        and ast.get_docstring(node, clean=False) is not None
    }

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Assign) and not scope:
                inner = [t.id for t in child.targets if isinstance(t, ast.Name)][:1]
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if match(child.value) and id(child) not in docstrings:
                    yield ".".join(scope), child.lineno
            yield from walk(child, inner)

    yield from walk(tree, [])


def _term_name_sites(tree: ast.AST):
    """(enclosing name, line) for every string constant that names a gradient term."""
    return _string_sites(tree, TERM_NAMES.__contains__)


def test_gradient_terms_are_named_in_three_places():
    sites = Counter(
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in _term_name_sites(ast.parse(path.read_text()))
    )
    assert len(TERM_NAMES) == 10
    assert sites == {
        ("variations.py", "_gradient_terms"): 10,
        ("variations.py", "_GRADIENT_ROWS"): sum(len(rows) for rows in _GRADIENT_ROWS.values()),
        # the suites' replaced Lap R g, one place for the seeded and direct routes
        ("variations.py", "_suite_primes"): 1,
    }, sites
    # the rule sees the names it confines
    code = (
        "ROWS = ('scalar_ricci',)\n"
        "def _suite_sides():\n    t['ricci_square'] = 0\n    t['ricci_riemann'] = 1\n"
        "class A:\n    def suite(self):\n        return {'riemann_product': 0, 'other': 1}\n"
    )
    found = [scope for scope, _ in _term_name_sites(ast.parse(code))]
    assert found == ["ROWS", "_suite_sides", "_suite_sides", "A.suite"]


# the theorem citations are written in one place, the clause table: the
# verdict rule and the atlas only pass them on
CITATION = "Thm 1."


def _citation_sites(tree: ast.AST):
    return _string_sites(tree, lambda s: CITATION in s)


def test_theorems_are_cited_in_the_clause_table_only():
    sites = Counter(
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in _citation_sites(ast.parse(path.read_text()))
    )
    assert set(sites) == {("atlas.py", "clause")}, sites
    # the rule sees a citation outside the table, and passes docstrings over
    code = (
        '"""Thm 1.1 in a docstring."""\n'
        'def clause():\n    """Thm 1.2."""\n    return "Thm 1.3"\n'
        'def classify(q):\n    return f"Thm 1.{q}" if q else "boundary of Thm 1.4"\n'
    )
    found = [scope for scope, _ in _citation_sites(ast.parse(code))]
    assert found == ["clause", "classify", "classify"]


# a whole-grid pass runs once per distinct node of the coordinates its
# fields read: node_blocks is called by the two distinct-node helpers and by
# the Hessian blocks, whose one caller, the ingredients' jet route, takes
# distinct nodes or seeded rows, and by the seeded rows (representative, jet
# entry) of the jet pairing and the conformal suite, not on the grid
BLOCK_SITES = {
    "node_blocks": {
        ("tensors.py", "distinct_blocks"), ("tensors.py", "representative_blocks.read"),
        ("tensors.py", "covariant_hessian_blocks"),
        # the second site is the import
        ("variations.py", "_seeded_blocks"), ("variations.py", ""),
    },
    # the second site is the import
    "covariant_hessian_blocks": {("variations.py", "_ingredients"), ("variations.py", "")},
}


def _use_sites(name: str) -> set:
    """(file, enclosing name) of every reference to ``name`` in the package."""
    return {
        (path.name, scope)
        for path in sorted(SRC.glob("*.py"))
        for _, scope, _, is_def in _named_uses(ast.parse(path.read_text()), {name})
        if not is_def
    }


def test_whole_grid_blocks_run_on_distinct_nodes():
    for name, sites in BLOCK_SITES.items():
        assert _use_sites(name) == sites, name
    assert ("variations.py", "gradient_ingredients") in _use_sites("distinct_nodes")
    # the rule sees a reduction that streams the grid past the helper
    code = "from .tensors import node_blocks\ndef reduce(f, X):\n    return node_blocks(f, X)\n"
    found = {scope for _, scope, _, d in _named_uses(ast.parse(code), {"node_blocks"}) if not d}
    assert found == {"", "reduce"}


# every scalar-times-tensor jet goes through jet_scale: no jet_einsum spec
# in the package names an operand by the batch index alone
SCALAR_PRODUCT = "jet_einsum"


def _scalar_operand_calls(tree: ast.AST):
    """(line, spec) for every jet_einsum call whose spec has an operand that
    is the batch index alone, or that is neither a string nor an f-string (so
    that it cannot be read); an f-string's fields count as no letters."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if getattr(f, "id", getattr(f, "attr", None)) != SCALAR_PRODUCT:
            continue
        spec = node.args[0] if node.args else None
        if isinstance(spec, ast.Constant) and isinstance(spec.value, str):
            text = spec.value
        elif isinstance(spec, ast.JoinedStr):
            text = "".join(v.value for v in spec.values if isinstance(v, ast.Constant))
        else:
            yield node.lineno, ast.unparse(spec) if spec else ""
            continue
        if any(len(sub.strip()) <= 1 for sub in text.split("->")[0].split(",")):
            yield node.lineno, text


def test_scalar_products_go_through_jet_scale():
    found = [
        (path.name, line, spec)
        for path in sorted(SRC.glob("*.py"))
        for line, spec in _scalar_operand_calls(ast.parse(path.read_text()))
    ]
    assert not found, f"a scalar operand in jet_einsum, not jet_scale: {found}"
    # the rule sees a scalar operand, in a string or an f-string, and a spec
    # it cannot read, and passes tensor products over
    code = (
        'jet_einsum("a,aij->aij", f, g)\n'
        'tensors.jet_einsum(f"aij,a->a{c}", g, f)\n'
        "jet_einsum(spec, f, g)\n"
        'jet_einsum("aij,ajk->aik", g, g)\n'
        'jet_einsum(f"apm{c},a{s}p->a{c}m", G, T)\n'
    )
    assert [line for line, _ in _scalar_operand_calls(ast.parse(code))] == [1, 2, 3]


# every top-level name of the package serves a report, the library's API or
# the benchmark: each is reached, on the syntax trees, from the CLI's entry
# points, from a name listed here with its reason, or from a name the
# benchmark under perfbench/ reads (tests/perfbench_names.py)
CLI_ROOTS = {"cli.run", "cli.main"}
ENTRY = "library entry point"
POINTWISE = "pointwise API"
UNREACHED = {
    "atlas.p1": ENTRY,
    "atlas.p2": ENTRY,
    "charts.to_unit_volume": ENTRY,
    "functionals.evaluate": ENTRY,
    "fields.random_torus_metric": POINTWISE,
    "tensors.covariant_derivative": POINTWISE,
    "tensors.lichnerowicz": POINTWISE,
    "variations.curvature_variations": POINTWISE,
    "variations.gradient_tensor": POINTWISE,
    "functionals.decomposition_residual": "reserved for ROADMAP item 1",
    "functionals.scaling_check": "reserved for ROADMAP item 1",
    "fields.CovectorField": "reserved for ROADMAP item 2",
    "tensors.delta_star": "reserved for ROADMAP item 2",
    "tensors.divergence": "reserved for ROADMAP item 2",
    "charts.milnor_coframe": "reserved for ROADMAP item 3",
    "charts.milnor_frame": "reserved for ROADMAP item 3",
    "variations.el_residual": "reserved for ROADMAP item 3",
    "variations.einstein_criticality_defect": "reserved for ROADMAP item 8",
}


def _top_level_names(sources: dict) -> dict:
    """{"module.name": (defining node, module, relative imports of the
    module)} for every top-level function, class and assigned name of the
    package's modules (``__init__`` and ``__main__`` only re-export and run)."""
    out = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        imports = {}  # local name -> "module.name", or "module" for a module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    imports[alias.asname or alias.name] = target
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                out[f"{module}.{name}"] = (node, module, imports)
    return out


def _references(key: str, names: dict):
    """The package names the definition of ``key`` refers to: a name of its
    own module, a name imported from a sibling, or an attribute read off an
    imported sibling module (``atlas_mod.classify``)."""
    node, module, imports = names[key]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield f"{module}.{sub.id}" if f"{module}.{sub.id}" in names else imports.get(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            yield f"{imports.get(sub.value.id)}.{sub.attr}"


def _reached(names: dict, roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in names and key not in seen:
            seen.add(key)
            todo.extend(_references(key, names))
    return seen


def _package_sources() -> dict:
    return {
        path.stem: path.read_text()
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    }


def _unserved(sources: dict) -> set:
    """Top-level names that neither the CLI, nor a listed name, nor the
    benchmark's reads reach."""
    names = _top_level_names(sources)
    bench = {f"{m}.{n}" for m, n in benchmark_reads()}
    return set(names) - _reached(names, CLI_ROOTS | set(UNREACHED) | bench)


def test_every_top_level_name_serves_a_report_the_api_or_the_benchmark():
    assert not _unserved(_package_sources())
    # each listed name exists and is not reached from the CLI: a name that
    # gets a CLI caller leaves the list
    names = _top_level_names(_package_sources())
    from_cli = _reached(names, CLI_ROOTS)
    assert [key for key in UNREACHED if key not in names or key in from_cli] == []
    # the rule sees a new top-level function that nothing calls
    sources = _package_sources()
    sources["variations"] += "\n\ndef orphan(x):\n    return gradient_tensor(x)\n"
    assert _unserved(sources) == {"variations.orphan"}


# ROADMAP aim 2: the volume measure, the curvature, the Christoffel symbols,
# the space-form test, the choice of representative nodes and the A1/B/Ric^2
# contractions are each computed in one place.  Per quantity, each site kind
# and name -> the definitions that may hold it (a name nested in one counts
# as in it): a call of the name, a reference to it, a read of the attribute,
# a subscript by the string, or an einsum spec equal to it up to renaming
# its indices.
AIM2 = {
    "volume measure": {
        ("call", "det"): {"tensors.volume_element"},
        # the positivity test: a positive det g is none (diag(-1, -1, 1))
        ("call", "cholesky"): {"tensors.volume_element"},
        # run where g is inverted, so every connection and bundle passes it
        ("call", "volume_element"): {"tensors.connection_arrays", "charts.sqrt_det_grid"},
        ("attribute", "weights"): {"charts.QuadratureGrid"},
    },
    "curvature": {
        ("call", "CurvatureBundle"): {"tensors._bundle_from_connection"},
        # and the seeded jets of the jet pairing, one unit entry of the
        # base's jet each, which no field hands out, and the ingredients'
        # jet route, which takes a field's jet or the conformal suite's
        # seeded rows
        ("call", "curvature_bundle"): {
            "tensors.curvature", "variations._numeric_pairing", "variations._ingredients",
        },
        ("call", "pair_ricci"): {"tensors.CurvatureBundle.Ric"},
        # the one jet route, kept for its measured speed at n >= 4
        ("call", "ricci_arrays"): {"variations._ingredients"},
    },
    "Christoffel symbols": {
        ("reference", "christoffel_combination"): {"tensors.connection_arrays"},
        ("reference", "_christoffel_reads"): {"tensors.connection_jet"},
    },
    "space-form test": {
        # per node, beside max|g|: the suites and the curvature check judge
        # those of every node at once (space_form_gate)
        ("call", "space_form_deviation"): {"tensors.space_form_parts"},
    },
    "representative nodes": {
        # whole-grid passes gather through distinct_blocks, or read what they
        # keep per representative through representative_blocks; the
        # ingredients keep their own dedupe for the benchmark's whole-grid call
        ("call", "distinct_nodes"): {
            "tensors.distinct_blocks", "tensors.representative_blocks",
            "variations.gradient_ingredients",
        },
        # and hand out no index to the representatives (ing["at"])
        ("key", "at"): set(),
    },
    "A1/B/Ric^2 contractions": {
        ("spec", "aiplk,ajplk->aij"): {"tensors.CurvatureBundle.A1"},
        ("spec", "apl,aipjl->aij"): {"tensors.CurvatureBundle.B"},
        ("spec", "aip,apq,aqj->aij"): {"tensors.CurvatureBundle.ric2"},
    },
}


def _canonical_spec(text: str) -> str | None:
    """An einsum spec with its indices renamed in order of first appearance
    (``"akl,alij->akij"`` -> ``"abc,acde->abde"``); None for another string."""
    if "->" not in text or not all(c.isalpha() or c in ",->." for c in text):
        return None
    names = {}
    return "".join(
        names.setdefault(c, chr(ord("a") + len(names))) if c.isalpha() else c for c in text
    )


def _hits(node: ast.AST, kind: str, name: str) -> bool:
    if kind == "call":
        f = getattr(node, "func", None)
        return isinstance(node, ast.Call) and getattr(f, "id", getattr(f, "attr", None)) == name
    if kind == "attribute":
        return isinstance(node, ast.Attribute) and node.attr == name
    if kind == "key":
        return isinstance(node, ast.Subscript) and getattr(node.slice, "value", None) == name
    if kind == "reference":
        return (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)
        )
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _canonical_spec(node.value) == _canonical_spec(name)
    )


def _aim2_sites(sources: dict, kind: str, name: str) -> set:
    """The qualified name, module first, of the definition enclosing each site."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif _hits(child, kind, name):
                yield scope
            yield from walk(child, inner)

    return {site for module, text in sources.items() for site in walk(ast.parse(text), module)}


def _aim2_violations(sources: dict, quantity: str) -> list:
    """(name, site) for each site of the quantity outside its definitions,
    and for each definition that holds no site (the rule lost sight of it)."""
    inside = lambda site, a: site == a or site.startswith(a + ".")
    out = []
    for (kind, name), allowed in AIM2[quantity].items():
        sites = _aim2_sites(sources, kind, name)
        out += [(name, s) for s in sorted(sites) if not any(inside(s, a) for a in allowed)]
        out += [
            (name, f"no site in {a}") for a in sorted(allowed)
            if not any(inside(s, a) for s in sites)
        ]
    return out


# a planted second copy of each quantity, which its rule must see
AIM2_PLANTED = {
    "volume measure": ("functionals", "def _mass(grid, sd):\n    return np.sum(grid.weights * sd)"),
    "curvature": ("variations", "def _ricci(M, ginv):\n    return pair_ricci(M, ginv)"),
    "Christoffel symbols": ("spectral", "from .tensors import christoffel_combination as _S"),
    "space-form test": ("atlas", "def _flat(b):\n    return space_form_deviation(b, 0.0) == 0"),
    # a hand-made gather of the representatives back to the grid
    "representative nodes": (
        "verify", "def _gather(X, reads, out):\n    return out[distinct_nodes(X, reads)[1]]"
    ),
    # A1 with its indices renamed
    "A1/B/Ric^2 contractions": (
        "verify", "def _a1(R, U):\n    return contract('axyzw,abyzw->axb', R, U)"
    ),
}


@pytest.mark.parametrize("quantity", list(AIM2))
def test_each_aim2_quantity_is_computed_in_one_place(quantity):
    assert _aim2_violations(_package_sources(), quantity) == []
    # the rule sees a planted second copy
    sources = _package_sources()
    module, code = AIM2_PLANTED[quantity]
    sources[module] += f"\n\n{code}\n"
    assert _aim2_violations(sources, quantity)
