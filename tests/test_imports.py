"""No linter ships with the project, so this is its unused-import,
unused-local and dead-helper check: every name a package module imports
must be read somewhere in it, every local a function assigns must be read
in it, every parameter of a function or lambda must be read in its body
unless ``UNREAD_PARAMETERS`` names it with its reason, and every private
module-level function, class or constant must be read somewhere in the
package outside its own definition or assignment, and so must every public
module-level function that ``CALLED_FROM_OUTSIDE`` does not name with its
reason.  It also pins the import graph: the package root loads no
submodule, the layer loads none of the modules it does not run on, and no
module reads another module's private name unless ``PRIVATE_IMPORTS``
names it with its reason.
And it keeps the records checked: nothing in the package makes or changes
one around its ``__post_init__`` except ``DiagonalSSM.__getitem__``, whose
rows view a checked stack."""
import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "interdomain"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    broken = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import xml.dom\n"
              "from a.b import c, d as e\n"
              "print(np.pi, e, xml)\n")
    assert unused_imports(broken) == ["os (line 2)", "c (line 5)"]
    found = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def loaded_after(statement: str) -> set[str]:
    """The ``interdomain`` modules a fresh interpreter holds after running
    ``statement`` with ``src/`` on its path."""
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {statement}; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'interdomain'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return set(done.stdout.split())


def test_package_root_loads_no_submodule():
    assert loaded_after("import interdomain") == {"interdomain"}


def test_layer_loads_only_what_it_runs_on():
    loaded = loaded_after("import interdomain.layer")
    assert "interdomain.layer" in loaded
    assert not loaded & {f"interdomain.{name}"
                         for name in ("accounting", "basis", "bench", "cli", "oracle")}


def private_imports(source: str) -> list[str]:
    """Every private name (one leading underscore) the module reads from
    another package module, as ``module._name (line n)``: imported by name
    from a relative or ``interdomain`` import, or read as an attribute of a
    package module it imported."""
    found, modules = [], {}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0]
                                                 == "interdomain"):
            package = node.module is None or node.module == "interdomain"
            for alias in node.names:
                if package:  # from . import module
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append((node.lineno, f"{node.module.split('.')[-1]}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("interdomain.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".")[-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


# Private names that other package modules read, each kept for its reason.
PRIVATE_IMPORTS = {
    "ssm._real": "the one real-array input check, which layer, basis and oracle share so "
                 "that a complex argument fails alike everywhere",
    "ssm._check_count": "the one count check, an integer at or above a floor and never a "
                        "bool, which the scans' chunk, prefill's chunk, a state's position "
                        "and ssm_basis's length share so that each fails alike",
}


def test_private_names_stay_in_their_module():
    broken = ("from . import bench, config as cfg\n"
              "from .ssm import _real, run_scan\n"
              "from interdomain.features import _silu_slope as slope\n"
              "from numpy import _private\n"
              "import interdomain.layer as lay\n"
              "print(bench._feature_ops, cfg.__name__, lay._DENSE, _real, run_scan, slope)\n")
    assert private_imports(broken) == [
        "ssm._real (line 2)", "features._silu_slope (line 3)", "bench._feature_ops (line 6)",
        "layer._DENSE (line 6)"]
    found = {f"{path.stem}: {line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in private_imports(path.read_text())}
    assert sorted(line for line in found
                  if line.split()[1] not in PRIVATE_IMPORTS) == []
    # an allowlisted name that no module reads from outside leaves the list
    assert sorted(PRIVATE_IMPORTS.keys() - {line.split()[1] for line in found}) == []


def _own_nodes(func):
    """The nodes of ``func``'s body outside any function, lambda or class
    nested in it, which have their own locals."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """Locals a function assigns and never reads, itself or in a closure.
    An augmented assignment reads its target, and names starting with _
    and names declared global or nonlocal are exempt."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        stored = {}
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        found += [f"{func.name}: {name} (line {line})" for name, line in stored.items()
                  if name not in read and not name.startswith("_")]
    return found


def test_no_unused_locals():
    broken = ("def f(a):\n"
              "    x = 1\n"
              "    y = 2\n"
              "    z = 0\n"
              "    z += 1\n"
              "    _tmp = 3\n"
              "    for i in range(3):\n"
              "        pass\n"
              "    def g():\n"
              "        unread = y\n"
              "        return a\n"
              "    global G\n"
              "    G = 4\n"
              "    w, v = 1, 2\n"
              "    return g, v\n")
    assert sorted(unused_locals(broken)) == [
        "f: i (line 7)", "f: w (line 14)", "f: x (line 2)", "g: unread (line 10)"]
    found = {path.name: unused_locals(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def unused_parameters(source: str) -> list[str]:
    """Parameters a function or lambda never reads, itself or in a
    closure, as ``function.parameter (line n)``.  An augmented assignment
    reads its target, and ``self`` and ``cls`` are exempt."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        read = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        read.update(node.target.id for node in ast.walk(func)
                    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name))
        args = func.args
        params = [arg for arg in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if arg is not None]
        name = getattr(func, "name", "<lambda>")
        found += [f"{name}.{arg.arg} (line {arg.lineno})" for arg in params
                  if arg.arg not in read and arg.arg not in ("self", "cls")]
    return found


# Parameters that no body reads, each kept for its reason, by module.function.parameter.
UNREAD_PARAMETERS = {
    "features._l2.scale": "_scaled_rows passes every norm callback the scale its rows were "
                          "divided by, and the l2 norm is homogeneous, so it needs none",
}


def test_no_unused_parameters():
    broken = ("def f(a, b, *args, c, d=1, **kw):\n"
              "    d += 1\n"
              "    return a\n"
              "class R:\n"
              "    def m(self, x):\n"
              "        return lambda y, z: z\n"
              "    @classmethod\n"
              "    def k(cls, q):\n"
              "        def inner():\n"
              "            return q\n"
              "        return inner\n")
    assert unused_parameters(broken) == [
        "f.b (line 1)", "f.args (line 1)", "f.c (line 1)", "f.kw (line 1)", "m.x (line 5)",
        "<lambda>.y (line 6)"]
    unread = [f"{path.stem}.{line.split()[0]}" for path in sorted(PACKAGE.glob("*.py"))
              for line in unused_parameters(path.read_text())]
    assert [name for name in unread if name not in UNREAD_PARAMETERS] == []
    # an allowlisted parameter that is now read, or gone, leaves the list
    assert sorted(UNREAD_PARAMETERS.keys() - set(unread)) == []


def _defined_names(statement) -> list[str]:
    """The names a module-level statement defines: a function's or class's
    name, or the plain names an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def unreferenced(sources: dict[str, str], defines) -> list[str]:
    """The names ``defines`` gives for each module-level statement of
    ``sources`` (file name -> source) that no module reads, as a name or an
    attribute, outside that statement."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for file, tree in trees.items():
        for statement in tree.body:
            own = {id(node) for node in ast.walk(statement)}
            for name in defines(statement):
                if not any(getattr(node, "id", getattr(node, "attr", None)) == name
                           and id(node) not in own for node in reads):
                    found.append(f"{file}: {name} (line {statement.lineno})")
    return found


def private_names(statement) -> list[str]:
    """Module-level functions, classes and constants named with one leading
    underscore."""
    return [name for name in _defined_names(statement)
            if name.startswith("_") and not name.startswith("__")]


def public_functions(statement) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            and not statement.name.startswith("_"):
        return [statement.name]
    return []


def test_no_dead_private_helpers():
    assert unreferenced({"m.py": "def _dead():\n    return _dead()\n"
                                 "class _Used:\n    pass\n"
                                 "x = _Used()\n"}, private_names) == ["m.py: _dead (line 1)"]
    # a name tuple left behind when its readers moved to another table
    assert unreferenced({"m.py": "_STALE = ('a', 'b')\n"
                                 "_READ: tuple = ('c',)\n"
                                 "_ALSO = _READ + ('d',)\n",
                         "n.py": "from m import _ALSO\nprint(_ALSO)\n"}, private_names) == \
        ["m.py: _STALE (line 1)"]
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources, private_names) == []


# Public functions that no package module calls, each kept for its reason.
CALLED_FROM_OUTSIDE = {
    "forward_trace": "the forward with every block's intermediates; the layer tests read "
                     "them, and ROADMAP's diagnostics record is to become its caller",
    "save_layer_params": "the parameter archive's writer, for callers of the package",
    "load_layer_params": "the parameter archive's reader, for callers of the package",
    "count_layer_params": "the acceptance gate checks it against accounting's closed form",
}


def test_no_public_function_without_a_caller():
    assert unreferenced({"m.py": "def dead():\n    return dead()\n"
                                 "def used():\n    pass\n"
                                 "def _private():\n    pass\n"
                                 "class Record:\n    pass\n",
                         "n.py": "import m\nm.used()\n"}, public_functions) == \
        ["m.py: dead (line 1)"]
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unread = unreferenced(sources, public_functions)
    assert [line for line in unread if line.split()[1] not in CALLED_FROM_OUTSIDE] == []
    # an allowlisted function that gained a caller leaves the list
    assert sorted(CALLED_FROM_OUTSIDE.keys() - {line.split()[1] for line in unread}) == []


# The one construction that skips a record's checks, and where it may be.
UNCHECKED_CONSTRUCTION = ("DiagonalSSM", "__getitem__")
_DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def unchecked_constructions(source: str) -> list[str]:
    """Every ``object.__new__`` and every write through an instance's
    ``__dict__`` outside ``DiagonalSSM.__getitem__``, and every
    ``object.__setattr__`` outside a ``__post_init__``: the ways of making
    or changing a record without running its checks."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = (node.name, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = (owner[0], node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "object":
            if node.attr == "__new__" and owner != UNCHECKED_CONSTRUCTION:
                found.append(f"object.__new__ (line {node.lineno})")
            if node.attr == "__setattr__" and owner[1] != "__post_init__":
                found.append(f"object.__setattr__ (line {node.lineno})")
        elif owner != UNCHECKED_CONSTRUCTION:
            target = None
            if isinstance(node, ast.Attribute) and node.attr in _DICT_WRITES:
                target = node.value
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                target = node
            if isinstance(target, ast.Attribute) and target.attr == "__dict__":
                found.append(f"a write through __dict__ (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), (None, None))
    return found


def test_records_are_made_only_through_their_checks():
    broken = ("class R:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "    def renamed(self):\n"
              "        object.__setattr__(self, 'x', 2)\n"
              "def sneak(r):\n"
              "    s = object.__new__(R)\n"
              "    s.__dict__.update(x=3)\n"
              "    s.__dict__['x'] = 4\n"
              "    s.__dict__ = {}\n"
              "    return s.__dict__.get('x')\n"
              "class DiagonalSSM:\n"
              "    def __getitem__(self, g):\n"
              "        row = object.__new__(DiagonalSSM)\n"
              "        row.__dict__.update(x=g)\n"
              "        return row\n")
    assert unchecked_constructions(broken) == [
        "object.__setattr__ (line 5)", "object.__new__ (line 7)",
        "a write through __dict__ (line 8)", "a write through __dict__ (line 9)",
        "a write through __dict__ (line 10)"]
    found = {path.name: unchecked_constructions(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
