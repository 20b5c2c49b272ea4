"""Imports of the sympcap modules: each name is used, and `import sympcap` stays light."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sympcap"


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for path in modules for u in unused_imports(path)] == []


def test_import_leaves_scipy_stats_unloaded():
    # each of these takes 0.1 s or more to import; only ndtri (ball_points)
    # and expm (single random draws) still need scipy, so a plain `import sympcap`
    # must load none of them (EBK and the Williamson normal form need no
    # scipy)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    modules = ("scipy.linalg", "scipy.optimize", "scipy.special", "scipy.stats")
    code = f"import sys, sympcap; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_sampling_commands_leave_scipy_stats_unloaded():
    # the Halton draws are numpy's own: scipy.stats alone took ~0.5 s and
    # ~20 MB of every cold evolve and bottle-demo
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import contextlib, io, sys\n"
        "from sympcap import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['bottle-demo', '--radius', '1', '--neck', '0.5']) == 0\n"
        "    assert cli.run(['evolve', '--potential', 'quartic', 'coeff=0.25', '--times', '0.5',\n"
        "                    '--dt', '0.01', '--samples', '100']) == 0\n"
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_linear_algebra_commands_load_no_scipy():
    # the symplectic spectrum and the Williamson normal form are numpy's
    # eigh alone: scipy.linalg's schur cost a cold williamson about 0.3 s
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    matrix = '{"n": 2, "matrix": [2, 0.5, 0, 0, 0.5, 3, 0, 0, 0, 0, 1, 0.2, 0, 0, 0.2, 4]}'
    region = '{"type": "ellipsoid", "energy": 1, "matrix": %s}' % matrix
    code = (
        "import contextlib, io, sys\n"
        "from sympcap import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run(['williamson', '--matrix', {matrix!r}]) == 0\n"
        f"    assert cli.run(['capacity', '--region', {region!r}]) == 0\n"
        f"    assert cli.run(['quantize-quadratic', '--matrix', {matrix!r}, '--n', '1,0']) == 0\n"
        "    assert cli.run(['dos', '--ndim', '3', '--energy', '2']) == 0\n"
        f"    assert cli.run(['dos', '--matrix', {matrix!r}, '--energy', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_dos_loads_no_fractions():
    # g is one exact rational of Python ints: fractions (with decimal) would add
    # about 4 ms to every cold process
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import contextlib, io, sys\n"
        "import sympcap\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n"
        "from sympcap import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['dos', '--ndim', '200', '--energy', '100']) == 0\n"
        "    assert cli.run(['dos', '--matrix', '{\"n\": 1, \"matrix\": [1, 0, 0, 4]}',\n"
        "                    '--energy', '2']) == 0\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_ebk_commands_load_no_scipy():
    # every potential is inverted by its own closed form or by np.roots: EBK levels
    # need no root finder of scipy's
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import contextlib, io, sys\n"
        "from sympcap import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for kind in ('harmonic', 'morse', 'quartic', 'polynomial coeffs=[0,0.1,0.5,0,0.1]'):\n"
        "        assert cli.run(['quantize-1d', '--potential', *kind.split(), '--nmax', '3']) == 0\n"
        "    assert cli.run(['quantize-separable', '--potentials', '[{\"kind\": \"morse\"}]',\n"
        "                    '--n', '1']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_ensemble_loads_no_scipy():
    # a stack of draws is exponentiated by numpy's Pade 13: scipy.linalg's expm
    # cost a cold nonsqueeze-ensemble about 0.2 s
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    modules = ("scipy.linalg", "scipy.special", "scipy.stats")
    code = (
        "import contextlib, io, sys\n"
        "from sympcap import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['nonsqueeze-ensemble', '--n', '2', '--count', '1000']) == 0\n"
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def private_imports(path):
    """`line name` for each name beginning with an underscore that `path` imports
    from the sympcap package."""
    return [f"{node.lineno} {alias.name}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympcap"
            for alias in node.names if alias.name.startswith("_")]


def test_oracles_import_no_private_names():
    # an oracle that shares a library kernel (the well scan's crossing lookup and
    # bisection once) checks nothing of that kernel
    assert private_imports(pathlib.Path(__file__).with_name("oracles.py")) == []


def uncalled_public_functions(paths):
    """`module.name` or `module.Class.name` for each public top-level function, and
    each public method of a public class, that nothing in `paths` names outside its
    own definition: as a name, an attribute or a string (dispatch by name)."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    defined = []  # (label, name, definition node)
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((f"{path.stem}.{node.name}", node.name, node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined.append((f"{path.stem}.{node.name}.{item.name}", item.name, item))

    def references(node, skip):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        for child in ast.iter_child_nodes(node):
            yield from references(child, skip)

    return [label for label, name, node in defined
            if not any(name in references(tree, node) for tree in trees.values())]


def test_public_functions_have_a_caller():
    # a public function that only tests call is a second entry to a kernel the
    # package already runs; re-exports in __init__.py are imports, not calls
    assert uncalled_public_functions(sorted(SRC.glob("*.py"))) == []


def unread_private_names(paths):
    """`module.name` for each private name that a module of `paths` binds at its top
    level (a function, a class or an assignment) and that nothing in `paths` reads
    outside its own definition, as a name or as an attribute."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    defined = []  # (label, name, binding node)
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                names = []
            defined += [(f"{path.stem}.{name}", name, node) for name in names
                        if name.startswith("_") and not name.startswith("__")]

    def reads(node, skip):
        if node is skip:
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        for child in ast.iter_child_nodes(node):
            yield from reads(child, skip)

    return [label for label, name, node in defined
            if not any(name in reads(tree, node) for tree in trees.values())]


def test_private_names_are_read():
    # a private constant or helper that nothing reads is a leftover of a deleted path
    paths = sorted(SRC.glob("*.py"))
    assert unread_private_names(paths) == []


def test_unread_private_name_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("_USED = 1\n_UNUSED = 2\n\n\ndef _self_only():\n    return _self_only\n\n\n"
                      "def read():\n    return _USED\n")
    assert unread_private_names([module]) == ["module._UNUSED", "module._self_only"]
