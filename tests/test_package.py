"""Package hygiene: the package docstring, the install entry points and
the benchmark's per-layer trace targets name only things that exist,
every library exception has a raise site in the package, no module
imports inside a function or imports a name it never uses, importing
every module leaves ``dataclasses`` and ``inspect`` unloaded (their
import and code generation cost every set-up milliseconds), every
private helper and every public function, class and method has a use,
every defaulted parameter of a public function is passed somewhere, no
division can yield a float and no float constant is written."""

import ast
import collections
import importlib
import importlib.util
import inspect
import pathlib
import re
import subprocess
import sys

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest installs tomli
    import tomli as tomllib

import galbim
from galbim import errors

SRC = pathlib.Path(galbim.__file__).parent
PYPROJECT = SRC.parent.parent / "pyproject.toml"
LAYERTRACE = SRC.parent.parent / "perfbench" / "layertrace.py"
# the code that may call into the package: the library, tests, benchmark
CALLERS = [SRC.parent.parent / d for d in ("src", "tests", "perfbench")]


def test_documented_modules_import():
    names = re.findall(r"``(\w+)``", galbim.__doc__)
    assert names
    for name in names:
        importlib.import_module("galbim." + name)


def test_entry_points_import():
    config = tomllib.loads(PYPROJECT.read_text())
    scripts = config["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert hasattr(importlib.import_module(module), attr), target


def test_layertrace_targets_resolve():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = []
    for fns in layertrace.TARGETS.values():
        for target in fns.values():
            importlib.import_module("galbim." + target.partition(":")[0])
            try:
                assert callable(layertrace._resolve(target)), target
            except KeyError:
                missing.append(target)
    assert missing == []


def test_modules_leave_dataclasses_and_inspect_unloaded():
    # -S: no site, so no .pth file of the host imports anything first
    names = sorted("galbim." + p.stem for p in SRC.glob("*.py")
                   if p.stem != "__init__")
    probe = ("import importlib, sys\n"
             "sys.path.insert(0, %r)\n"
             "for name in %r:\n"
             "    importlib.import_module(name)\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
             % (str(SRC.parent), names))
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _vars_keys(tree):
    """The keys written through ``vars(...)``: ``vars(x)[key] = ...``
    and ``vars(x).setdefault(key, ...)``, with ``vars(x).update`` as
    the key ``update(...)``."""
    def through_vars(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "vars")

    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and through_vars(node.value)):
            keys.add(ast.unparse(node.slice).strip("'\""))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and through_vars(node.func.value)):
            if node.func.attr == "setdefault":
                keys.add(ast.unparse(node.args[0]).strip("'\""))
            elif node.func.attr == "update":
                keys.add("update(...)")
    return keys


def test_per_field_memos_are_listed():
    from galbim import towers

    listed = re.search(r"Per-field memos.*?(?:\n\n|$)", towers.__doc__,
                       re.S).group(0)
    written = set().union(*(_vars_keys(ast.parse(path.read_text()))
                            for path in sorted(SRC.glob("*.py"))))
    assert written == set(re.findall(r"``(_\w+)``", listed))


def test_vars_key_guard_sees_writes():
    tree = ast.parse(
        "vars(f).setdefault('_a', {})\n"
        "x = vars(g)['_b'] = 1\n"
        "vars(h).update(c=1)\n"
        "vars(k).get('_d')\n"
        "y = vars(k)['_e']\n"
        "d = {}\nd['_f'] = 1\nd.setdefault('_g', 1)\n"
    )
    assert _vars_keys(tree) == {"_a", "_b", "update(...)"}


def test_every_error_is_raised():
    source = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    classes = [
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.GalbimError)
        and cls is not errors.GalbimError
    ]
    assert classes
    unraised = [
        name for name in classes
        if not re.search(r"raise\s+%s\b" % name, source)
    ]
    assert unraised == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a name listed in __all__ is re-exported, which counts as a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_unused_imports():
    unused = [
        "%s:%d %s" % (path.name, line, name)
        for path in sorted(SRC.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert unused == []


def test_unused_import_guard_sees_uses():
    tree = ast.parse(
        "import os.path\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "os.path.join(d)\n"
    )
    assert _unused_imports(tree) == [(2, "b")]


def _function_level_imports(tree):
    """The lines of the imports made inside a function body."""
    return sorted({
        node.lineno for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_no_function_level_imports():
    # every module states what it depends on at its top
    inner = [
        "%s:%d" % (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in _function_level_imports(ast.parse(path.read_text()))
    ]
    assert inner == []


def test_function_level_import_guard_sees_imports():
    tree = ast.parse(
        "import os\n"
        "def f():\n"
        "    from .a import b\n"
        "    def g():\n"
        "        import c\n"
        "class C:\n"
        "    import d\n"
        "    async def m(self):\n"
        "        import e\n"
    )
    assert _function_level_imports(tree) == [3, 5, 9]


def _unread(defining, reading, wanted):
    """Module-level functions and classes, and methods, of the
    ``defining`` trees whose name ``wanted`` accepts and that no name or
    attribute of the ``reading`` trees reads outside their own
    definition, as (module, line, name)."""
    def reads(node):
        return collections.Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    total = sum(map(reads, reading), collections.Counter())
    dead = []
    for module, tree in defining.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and wanted(d.name)
                        and total[d.name] == reads(d)[d.name]):
                    dead.append((module, d.lineno, d.name))
    return sorted(dead)


def _dead_helpers(trees):
    """The ``_name`` helpers (not dunders) that nothing reads."""
    return _unread(trees, trees.values(),
                   lambda name: name.startswith("_")
                   and not name.endswith("__"))


def _dead_public_names(defining, reading):
    """The public functions, classes and methods that nothing reads."""
    return _unread(defining, reading, lambda name: name[0] != "_")


def test_no_dead_private_helpers():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert _dead_helpers(trees) == []


def test_dead_helper_guard_sees_uses():
    trees = {
        "a.py": ast.parse(
            "def _used(): pass\n"
            "def _recursive(): _recursive()\n"
            "class _C:\n"
            "    def _m(self): pass\n"
            "    def _n(self): self._m()\n"
            "    def __init__(self): pass\n"
        ),
        "b.py": ast.parse("from a import _used\n_used()\n"),
    }
    assert _dead_helpers(trees) == [
        ("a.py", 2, "_recursive"), ("a.py", 3, "_C"), ("a.py", 5, "_n"),
    ]


def test_no_dead_public_names():
    defining = {path.name: ast.parse(path.read_text())
                for path in sorted(SRC.glob("*.py"))}
    reading = [ast.parse(path.read_text())
               for root in CALLERS for path in sorted(root.rglob("*.py"))]
    assert _dead_public_names(defining, reading) == []


def test_dead_public_name_guard_sees_uses():
    defining = {
        "a.py": ast.parse(
            "def used(): pass\n"
            "def recursive(): recursive()\n"
            "class C:\n"
            "    def m(self): pass\n"
            "    def n(self): self.m()\n"
            "    def _private(self): pass\n"
            "    def __init__(self): pass\n"
            "class Unread:\n"
            "    def method(self): pass\n"
        ),
    }
    reading = [defining["a.py"],
               ast.parse("from a import used, C\nused()\nC().n()\n")]
    assert _dead_public_names(defining, reading) == [
        ("a.py", 2, "recursive"), ("a.py", 8, "Unread"),
        ("a.py", 9, "method"),
    ]


def _unpassed_parameters(defining, calling):
    """Defaulted parameters of the public functions and methods of
    public classes in the ``defining`` trees that no call in the
    ``calling`` trees passes, as (module, line, function, parameter).
    Calls match by function name and pass only what they spell out:
    the positions before any ``*args`` and the explicit keywords, so a
    call that forwards ``*args`` or ``**kw`` passes nothing more."""
    passed = collections.defaultdict(set)
    for tree in calling:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            got = passed[name]
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    break
                got.add(i)
            got.update(k.arg for k in call.keywords if k.arg)

    def defaults(fn, method):
        args = fn.args
        positional = args.posonlyargs + args.args
        bound = method and not any(
            getattr(d, "id", None) == "staticmethod"
            for d in fn.decorator_list)
        for i in range(len(positional) - len(args.defaults),
                       len(positional)):
            yield positional[i].arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield arg.arg, None

    unpassed = []
    for module, tree in defining.items():
        functions = [(node, False) for node in tree.body]
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and \
                    not node.name.startswith("_"):
                functions += [(d, True) for d in node.body]
        for fn, method in functions:
            if not isinstance(fn, ast.FunctionDef) or \
                    fn.name.startswith("_"):
                continue
            got = passed[fn.name]
            for arg, position in defaults(fn, method):
                if arg not in got and (
                        position is None or position not in got):
                    unpassed.append((module, fn.lineno, fn.name, arg))
    return sorted(unpassed)


def test_no_unpassed_parameters():
    defining = {path.name: ast.parse(path.read_text())
                for path in sorted(SRC.glob("*.py"))}
    calling = [ast.parse(path.read_text())
               for root in CALLERS for path in sorted(root.rglob("*.py"))]
    assert _unpassed_parameters(defining, calling) == []


def test_unpassed_parameter_guard_sees_uses():
    defining = {
        "a.py": ast.parse(
            "def f(x, by_place=1, by_name=2, unused=3, *, kw=4): pass\n"
            "def g(x=1): pass\n"
            "def h(x=1): pass\n"
            "def _private(x=1): pass\n"
            "class C:\n"
            "    def m(self, x=1, y=2): pass\n"
            "    @staticmethod\n"
            "    def s(x=1, y=2): pass\n"
        ),
    }
    calling = [
        ast.parse("f(0, 1, by_name=2)\ng(*xs)\nh(**kw)\n"),
        ast.parse("C().m(1)\nC.s(1)\n"),
    ]
    assert _unpassed_parameters(defining, calling) == [
        ("a.py", 1, "f", "kw"), ("a.py", 1, "f", "unused"),
        ("a.py", 2, "g", "x"), ("a.py", 3, "h", "x"),
        ("a.py", 6, "m", "y"), ("a.py", 8, "s", "y"),
    ]


# A quotient the library may write: a field's one() (or a name bound to
# it) over anything, exact over Q because QQ.one() is Fraction(1); a
# matrix quotient; residues of F_p.  Any other numerator needs a divisor
# that its function makes a Fraction (``b = Fraction(b)``): Q's elements
# are ints as well as Fractions, and int / int is a float.
_EXACT_QUOTIENT = re.compile(
    r"((\w+\.)*one\(\)|(self\.)?one|Matrix\.identity\(.*\)"
    r"|self\._residue\(.*\)) / "
)


def _bare_divisions(tree):
    """(line, source) of each division in ``tree`` that is neither an
    allowed quotient nor by a divisor made a Fraction in its function."""
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}

    def fraction_names(node):
        while node in parent and not isinstance(node, ast.FunctionDef):
            node = parent[node]
        return {t.id for a in ast.walk(node) if isinstance(a, ast.Assign)
                and getattr(a.value, "func", None) is not None
                and getattr(a.value.func, "id", None) == "Fraction"
                for t in a.targets if isinstance(t, ast.Name)}

    bare = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            bare.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            source = ast.unparse(node)
            if not (_EXACT_QUOTIENT.match(source)
                    or getattr(node.right, "id", None)
                    in fraction_names(node)):
                bare.append((node.lineno, source))
    return sorted(bare)


def test_no_bare_divisions():
    bare = [
        "%s:%d %s" % (path.name, line, source)
        for path in sorted(SRC.glob("*.py"))
        for line, source in _bare_divisions(ast.parse(path.read_text()))
    ]
    assert bare == []


def test_bare_division_guard_sees_divisions():
    tree = ast.parse(
        "def f(F, a, b, M):\n"
        "    x = F.one() / b + one / a + self.one / a\n"
        "    y = Matrix.identity(F, 2) / M\n"
        "    return a / b\n"
        "def g(a, b):\n"
        "    if b.__class__ is int:\n"
        "        b = Fraction(b)\n"
        "    return a / b, b / a\n"
        "def h(a, b):\n"
        "    a /= b\n"
        "    return a * (F.zero() / b)\n"
        "c = 1 / 2\n"
    )
    assert _bare_divisions(tree) == [
        (4, "a / b"), (8, "b / a"), (10, "a /= b"),
        (11, "F.zero() / b"), (12, "1 / 2"),
    ]


def _float_constants(tree):
    """(line, source) of each float or complex literal in ``tree``."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, (float, complex)))


def test_no_float_constants():
    found = [
        "%s:%d %s" % (path.name, line, source)
        for path in sorted(SRC.glob("*.py"))
        for line, source in _float_constants(ast.parse(path.read_text()))
    ]
    assert found == []


def test_float_constant_guard_sees_floats():
    tree = ast.parse(
        "def f(p):\n"
        "    q = int(p**0.5) + 1\n"
        "    return q * 2, 1e3, 2j, '0.5', 10**6\n"
    )
    assert _float_constants(tree) == [(2, "0.5"), (3, "1000.0"), (3, "2j")]
