"""The package's surface: the names the benchmark resolves, and no
definition that nothing reads."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

from ineqlab import functional, spectra
from ineqlab.lattice import make_lattice
from ineqlab.operators import build_laplacian

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ineqlab"

# definitions that nothing in the package or the benchmark reads, kept on
# purpose, by qualified name ("Class.method" for a method), each with its
# reason
UNREAD_ALLOWED = {
    "birman_schwinger_check": "the Birman-Schwinger second opinion on a count: acceptance "
                              "criterion 2 reads it, and certified counts are to call it",
}


def _load_layers():
    """perfbench/layers.py, loaded by path and left as it is (nothing installed)."""
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_benchmark_names_resolve():
    # the tracer binds each traced function by name, reads the iterations of
    # the Sobolev trace, and the count-sweep gate counts by Birman-Schwinger
    layers = _load_layers()
    for module, names in ((spectra, layers.SPECTRA_FUNCS), (functional, layers.FUNCTIONAL_FUNCS)):
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    T = build_laplacian(make_lattice(d=1, extents=12))
    result = functional.sobolev_constant(T, 6.0)
    assert len(result) == 2
    assert layers._iterations(result)["iterations"] == result[1].iterations > 0
    V = np.linspace(0.5, 3.0, T.n)
    assert spectra.birman_schwinger(T, V).count_above_one().n == spectra.count_below(T, V, 0.0).n


def _names(tree, defined, used, record):
    """Walk a module: append (qualified name, name) of each function, class
    and method to ``defined`` when ``record``, and (name, names of the
    enclosing definitions) of each name, attribute and identifier string
    read to ``used``."""
    stack = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if record:
                defined.append((".".join(stack + [node.name]), node.name))
            for d in node.decorator_list:
                visit(d)
            stack.append(node.name)
            for child in ast.iter_child_nodes(node):
                if child not in node.decorator_list:
                    visit(child)
            stack.pop()
            return
        if isinstance(node, ast.Name):
            used.append((node.id, set(stack)))
        elif isinstance(node, ast.Attribute):
            used.append((node.attr, set(stack)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.append((node.value, set(stack)))     # names resolved by getattr
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)


def test_every_definition_has_a_reader():
    """Each function, class and method of the package is read somewhere in
    the package (outside its own body and the ``__init__`` re-exports) or
    in perfbench/, or is on UNREAD_ALLOWED.  Names are matched by name
    alone, so an attribute of the same name elsewhere counts as a read."""
    defined, used = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            _names(ast.parse(path.read_text()), defined, used, record=True)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        _names(ast.parse(path.read_text()), defined, used, record=False)

    def read(name):
        return any(n == name and name not in enclosing for n, enclosing in used)

    unread = sorted(q for q, name in defined
                    if not (name.startswith("__") and name.endswith("__")) and not read(name))
    assert unread == sorted(UNREAD_ALLOWED), "unread definitions: move them into the tests, " \
        "delete them, or list them in UNREAD_ALLOWED with a reason"
