"""Static checks that stand in for a linter: no unused import, no dead
private helper, no unread parameter, no chunked `json.dump` write, no
randomness but a seeded `np.random.default_rng`, no whole-number test but
`traj_core._whole` and no positional `out` to `minimum`/`maximum` in the
package modules.  Standard-library `ast` only."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trajeval"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _reads(node) -> Counter:
    """How often each bare name is read, or each attribute looked up, under node."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
    return reads


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (other than `from __future__`) that are never read."""
    used = _reads(tree)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return [name for name in bound if name not in used]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, defining node) of each private module-level function, class or
    constant, and of each private method or field of a module-level class."""
    found = []

    def scan(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            found.extend((name, node) for name in names if _private(name))

    scan(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scan(node.body)
    return found


def dead_privates(name: str, trees: dict[str, ast.Module]) -> list[str]:
    """Private definitions of module `name` that nothing in the package reads
    (or imports) outside the definition itself."""
    elsewhere = set()
    for other, tree in trees.items():
        if other != name:
            elsewhere |= set(_reads(tree)) | {a.name for node in ast.walk(tree)
                                              if isinstance(node, ast.ImportFrom)
                                              for a in node.names}
    here = _reads(trees[name])
    return [private for private, node in private_definitions(trees[name])
            if here[private] == _reads(node)[private] and private not in elsewhere]


def unread_parameters(tree: ast.Module) -> list[str]:
    """`line:function:parameter` for each parameter that a function or lambda
    never reads.  Dunder methods, whose signatures the language fixes, are exempt."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
        found += [f"{node.lineno}:{name}:{p}" for p in params if p not in read]
    return found


def json_dump_calls(tree: ast.Module) -> list[int]:
    """Lines that call `json.dump` or import `dump` from `json`: it encodes in
    pure-Python chunks, where `json.dumps` takes the C one-shot encoder."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "dump" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "json"
                  or isinstance(node, ast.ImportFrom) and node.module == "json"
                  and any(a.name == "dump" for a in node.names))


def is_integer_lookups(tree: ast.Module) -> list[str]:
    """`line:name` of each `.is_integer` lookup, by the module-level function
    or class that holds it (`<module>` for one outside any)."""
    return [f"{node.lineno}:{getattr(top, 'name', '<module>')}" for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "is_integer"]


def positional_extrema(tree: ast.Module) -> list[str]:
    """`line:name` of each `minimum` or `maximum` call with three or more
    positional arguments, called by attribute (`np.minimum`) or through a
    name bound to one (`minimum = np.minimum`, `from numpy import maximum`):
    numpy deprecates a positional `out` for them."""
    extrema = {"minimum", "maximum"}
    bound = set(extrema)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names if a.name in extrema}
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                bound |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                          and isinstance(v, ast.Attribute) and v.attr in extrema}
    return [f"{node.lineno}:{ast.unparse(node.func)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and len(node.args) >= 3
            and (isinstance(node.func, ast.Attribute) and node.func.attr in extrema
                 or isinstance(node.func, ast.Name) and node.func.id in bound)]


# the numpy random names a module may use: each generator is built from its own seed
SEEDED_RANDOM = {"default_rng", "SeedSequence"}


def _unseeded(dotted: str) -> bool:
    """True for the `random` module and anything in it, for `numpy.random` bound
    whole (its uses are then out of sight) and for its names but `SEEDED_RANDOM`."""
    parts = dotted.split(".")
    if parts[0] == "random":
        return True
    return parts[0] in ("np", "numpy") and parts[1:2] == ["random"] \
        and (len(parts) == 2 or parts[2] not in SEEDED_RANDOM)


def unseeded_randomness(tree: ast.Module) -> list[str]:
    """`line:name` of each import or `np.random.<name>` lookup that `_unseeded` refuses."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                and isinstance(node.value.value, ast.Name):
            found.append((node.lineno, f"{node.value.value.id}.{node.value.attr}.{node.attr}"))
    return [f"{line}:{name}" for line, name in sorted(found) if _unseeded(name)]


@pytest.fixture(scope="module")
def trees():
    return {p.name: ast.parse(p.read_text(), filename=p.name) for p in SRC.glob("*.py")}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module, trees):
    assert unused_imports(trees[module]) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read_outside_its_definition(module, trees):
    assert dead_privates(module, trees) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module, trees):
    assert unread_parameters(trees[module]) == []


def test_the_parameter_check_catches_planted_unread_parameters():
    planted = ast.parse("class C:\n"
                        "    def __setattr__(self, name, value):\n        raise name\n"
                        "    @classmethod\n    def make(cls, a, *rest, b=1, **kw):\n"
                        "        return [a, kw, lambda c, d: c]\n"
                        "def outer(e, f):\n    def inner(g):\n        return e\n"
                        "    f = 2\n    return inner\n")
    assert sorted(unread_parameters(planted)) == ["5:make:b", "5:make:cls", "5:make:rest",
                                                  "6:<lambda>:d", "7:outer:f", "8:inner:g"]


def test_no_module_writes_with_json_dump(trees):
    assert {name: json_dump_calls(tree) for name, tree in trees.items()
            if json_dump_calls(tree)} == {}


def test_the_checks_catch_a_planted_import_and_helper():
    planted = ast.parse("from __future__ import annotations\nimport os\nimport math\n"
                        "def _dead():\n    return _dead()\n"
                        "class _Kept:\n    def _gone(self):\n        return math.pi\n"
                        "X = _Kept()\n")
    assert unused_imports(planted) == ["os"]
    assert dead_privates("m.py", {"m.py": planted}) == ["_dead", "_gone"]


def test_the_json_dump_check_catches_a_planted_write():
    planted = ast.parse("import json\nfrom json import dump as d\n"
                        "def save(obj, fh):\n    json.dump(obj, fh)\n"
                        "    fh.write(json.dumps(obj))\n")
    assert json_dump_calls(planted) == [2, 4]


def test_randomness_comes_from_a_seeded_default_rng(trees):
    """Every generator is `np.random.default_rng(seed)` or one built from a
    `SeedSequence`, so no module touches a global random state."""
    assert {name: unseeded_randomness(tree) for name, tree in trees.items()
            if unseeded_randomness(tree)} == {}


def test_the_randomness_check_catches_planted_generators():
    planted = ast.parse("import random\nimport numpy as np\nimport numpy.random as npr\n"
                        "from numpy import random as r\n"
                        "from numpy.random import PCG64, default_rng\nfrom random import shuffle\n"
                        "g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1)))\n"
                        "x = numpy.random.rand(3) + np.random.default_rng(0).random()\n"
                        "np.random.seed(0)\n")
    assert unseeded_randomness(planted) == [
        "1:random", "3:numpy.random", "4:numpy.random", "5:numpy.random.PCG64",
        "6:random.shuffle", "7:np.random.Generator", "7:np.random.PCG64", "8:numpy.random.rand",
        "9:np.random.seed"]


def test_only_traj_core_whole_tests_for_a_whole_number(trees):
    """One whole-number rule: every count, width, canvas side, seed and
    dilation bound is judged by `traj_core._whole`, in one wording."""
    assert {name: [site.split(":")[1] for site in is_integer_lookups(tree)]
            for name, tree in trees.items() if is_integer_lookups(tree)} == \
        {"traj_core.py": ["_whole"]}


def test_the_whole_number_check_catches_planted_tests():
    planted = ast.parse("def f(v):\n    return float(v).is_integer()\n"
                        "class C:\n    def g(self, v):\n        return map(float.is_integer, v)\n"
                        "OK = (2.0).is_integer()\n")
    assert is_integer_lookups(planted) == ["2:f", "5:C", "6:<module>"]


def test_no_minimum_or_maximum_takes_a_positional_out(trees):
    """numpy 2.4 warns on a positional third argument to minimum and maximum,
    which the suite turns into a failure only on the path that runs it."""
    assert {name: positional_extrema(tree) for name, tree in trees.items()
            if positional_extrema(tree)} == {}


def test_the_extrema_check_catches_planted_calls():
    planted = ast.parse("import numpy as np\nfrom numpy import maximum as mx\n"
                        "minimum, add = np.minimum, np.add\nlo = np.maximum\n"
                        "np.minimum(a, b, out=c)\nnp.minimum(a, b, c)\nminimum(a, b, c)\n"
                        "lo(a, b, c)\nmx(a, b, c)\nadd(a, b, c)\nmin(a, b, c)\n"
                        "numpy.maximum(a, b, c, where=d)\nminimum(a, b)\n")
    assert positional_extrema(planted) == ["6:np.minimum", "7:minimum", "8:lo", "9:mx",
                                           "12:numpy.maximum"]
