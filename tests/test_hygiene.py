"""Every name a module imports is read somewhere in that module, every
parameter of a source function is read in that function's body, and the
source's defaulted parameters stay at a pinned count."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "momentspot").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) for each imported name that is never read; `__all__` entries count as read."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_honours_all():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nprint(np.zeros(1))\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


def unused_parameters(source):
    """(line, function, name) for each parameter its function's body never reads.

    `self`, `cls` and `_`-prefixed names are exempt; a read inside a nested
    function or lambda counts, defaults and decorators do not.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(p.lineno, getattr(node, "name", "<lambda>"), p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_parameters():
    source = ("class A:\n"
              "    def m(self, x, _y, flags=None):\n"
              "        return lambda z, w: z + x\n"
              "def f(a, *rest, b=1, **kw):\n"
              "    def g(c):\n"
              "        return a + c\n"
              "    return g(kw)\n"
              "def h(cls, d=f(0)):\n"
              "    return cls\n")
    assert unused_parameters(source) == [(2, "m", "flags"), (3, "<lambda>", "w"),
                                         (4, "f", "b"), (4, "f", "rest"), (8, "h", "d")]


# a parameter's .data and .grad are views into its model's weight and grad
# arenas; rebinding either silently stops the optimizer, the clipping and the
# checkpoints from seeing that parameter
WRITERS = {
    "data": {("autodiff.py", "__init__"), ("autodiff.py", "_node")},
    "grad": {("autodiff.py", "__init__"), ("autodiff.py", "_node"),
             ("autodiff.py", "_accumulate"), ("model.py", "new")},
}


def attribute_assignments(source, module, attr):
    """(line, function) for each assignment to an `attr` attribute outside WRITERS[attr]."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            targets = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            stack = list(targets)
            while stack:
                target = stack.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    stack.extend(target.elts)
                elif isinstance(target, ast.Starred):
                    stack.append(target.value)
                elif isinstance(target, ast.Attribute) and target.attr == attr \
                        and (module, function) not in WRITERS[attr]:
                    found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_data_rebinding(path):
    assert attribute_assignments(path.read_text(encoding="utf-8"), path.name, "data") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_grad_rebinding(path):
    assert attribute_assignments(path.read_text(encoding="utf-8"), path.name, "grad") == []


def test_checker_flags_data_rebinding():
    source = ("def __init__(self, x):\n"
              "    self.data = x\n"
              "def step(p, w):\n"
              "    p.tensor.data = w\n"
              "    p.tensor.data[...] = w\n"
              "    a, p.data = 1, w\n"
              "    p.data += 1\n"
              "x.data: int = 0\n")
    assert attribute_assignments(source, "autodiff.py", "data") == [
        (4, "step"), (6, "step"), (7, "step"), (8, "<module>")]
    assert attribute_assignments(source, "model.py", "data") == [
        (2, "__init__"), (4, "step"), (6, "step"), (7, "step"), (8, "<module>")]


def test_checker_flags_grad_rebinding():
    source = ("def _accumulate(t, g):\n"
              "    t.grad += g\n"
              "def new(self, t, view):\n"
              "    t.grad = view\n"
              "def clip_gradients(params, scale):\n"
              "    for p in params.values():\n"
              "        p.tensor.grad = p.tensor.grad * scale\n"
              "        p.tensor.grad[...] *= scale\n"
              "    params.grad_arena *= scale\n")
    assert attribute_assignments(source, "autodiff.py", "grad") == [
        (4, "new"), (7, "clip_gradients")]
    assert attribute_assignments(source, "model.py", "grad") == [
        (2, "_accumulate"), (7, "clip_gradients")]


# every op with a hand-written backward is gradient-checked by some test
GRAD_CHECKERS = {"grad_check", "check_op"}


def backward_ops(source):
    """Top-level functions that call _node(...) with a backward closure defined inside them."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        closures = {n.name for n in ast.walk(fn) if isinstance(n, ast.FunctionDef) and n is not fn}
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                    and call.func.id == "_node" and len(call.args) == 3 \
                    and isinstance(call.args[2], ast.Name) and call.args[2].id in closures:
                found.append(fn.name)
                break
    return found


def grad_checked_names(source):
    """Names referenced in a test function that also calls grad_check or check_op."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("test")):
            continue
        refs = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        refs |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        if refs & GRAD_CHECKERS:
            names |= refs
    return names


def test_every_backward_op_is_grad_checked():
    checked = set().union(*(grad_checked_names(p.read_text(encoding="utf-8"))
                            for p in sorted((ROOT / "tests").glob("test_*.py"))))
    ops = [(p.name, name) for p in PACKAGE for name in backward_ops(p.read_text(encoding="utf-8"))]
    assert len(ops) > 30
    assert [op for op in ops if op[1] not in checked] == []


def test_checker_finds_unchecked_backward_ops():
    source = ("def op(t):\n"
              "    def backward(g):\n"
              "        _accumulate(t, g)\n"
              "    return _node(t.data, (t,), backward)\n"
              "def leaf(x):\n"
              "    return _node(x, (), None)\n"
              "def wrapper(t):\n"
              "    return op(t)\n"
              "class Store:\n"
              "    def new(self, t):\n"
              "        def backward(g):\n"
              "            pass\n"
              "        return _node(t, (), backward)\n")
    assert backward_ops(source) == ["op"]
    tests = ("def test_value():\n"
             "    assert op(x).item() == 1\n"
             "def helper():\n"
             "    grad_check(lambda a: ad.wrapper(a), [x])\n"
             "class TestOp:\n"
             "    def test_grad(self):\n"
             "        check_op(lambda a: ad.sub(a, a), [x])\n")
    checked = grad_checked_names(tests)
    assert "sub" in checked and "check_op" in checked
    assert "op" not in checked and "wrapper" not in checked


def defaulted_parameters(source):
    """How many parameters, positional or keyword-only, of the functions and lambdas in source have a default."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


# The knob budget: every defaulted parameter is a setting a caller may pass or
# forget. A change that adds one raises this pin and says why in CHANGES.md; a
# change that removes one lowers it (it went 100 -> 80 -> 71 -> 70 -> 68).
DEFAULTED_PARAMETERS = 68


def test_defaulted_parameter_count():
    assert sum(defaulted_parameters(p.read_text(encoding="utf-8")) for p in PACKAGE) \
        == DEFAULTED_PARAMETERS


def test_checker_counts_positional_and_keyword_only_defaults():
    source = ("def f(a, b=1, *rest, c, d=2, **kw):\n"
              "    return lambda x, y=3: x\n"
              "class A:\n"
              "    def m(self, e=None):\n"
              "        pass\n")
    assert defaulted_parameters(source) == 4
