"""Every option of the package is in use: no defaulted parameter is left at its default,
and no config key goes unread.

An option that only ever takes its default is a constant in disguise.  The
scan parses ``src/``, ``tools/`` and ``perfbench/`` and lists each defaulted
parameter of a ``def`` in ``src/`` that no call sets, by keyword or by
position, matching calls to defs by name.  An argument that forwards the
caller's own unset defaulted parameter (``f(x, tol)`` inside a def whose
``tol`` no call sets) does not set it.  Tests and demos are not callers.

A config key that the package reads only by a computed name
(``getattr(cfg, name)``) is as hard to follow, so a second scan lists each
``RunConfig`` field that no module of ``src/`` reads as an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "tools", "perfbench")


def _defs(tree):
    """(def, bound) for every def in the tree; bound when it is a method, whose
    first parameter a call on an instance does not pass."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(getattr(d, "id", "") == "staticmethod" for d in child.decorator_list)
                out.append((child, in_class and not static))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _defaulted(fn, bound):
    """(name, position or None for keyword-only) of each defaulted parameter of fn."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(pos) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _calls(tree):
    """(callee name, call, innermost enclosing def or None) of every call by name."""
    enclosing = {}
    for fn, _ in _defs(tree):  # outer defs come first, so inner ones win
        for node in ast.walk(fn):
            enclosing[id(node)] = fn
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            if name:
                out.append((name, node, enclosing.get(id(node))))
    return out


def unset_defaults(defining: dict, calling: dict) -> list[str]:
    """"module:def(param)" for each defaulted parameter of the defining sources that no
    call of the calling sources sets; both map a module name to its source."""
    params = {}  # (module, def name, def line, param) -> position
    for module, source in defining.items():
        for fn, bound in _defs(ast.parse(source)):
            for name, position in _defaulted(fn, bound):
                params[(module, fn.name, fn.lineno, name)] = position
    calls = [
        (module, *call) for module, source in calling.items() for call in _calls(ast.parse(source))
    ]

    def sets(value, module, fn, unset):
        # a bare name forwarding the caller's own unset default sets nothing
        if fn is None or not isinstance(value, ast.Name):
            return True
        return (module, fn.name, fn.lineno, value.id) not in unset

    def is_set(key, unset):
        _, def_name, _, name = key
        position = params[key]
        for module, callee, call, fn in calls:
            if callee != def_name:
                continue
            for kw in call.keywords:
                if kw.arg is None or (kw.arg == name and sets(kw.value, module, fn, unset)):
                    return True
            if position is not None:
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred) and i <= position:
                        return True
                    if i == position and sets(arg, module, fn, unset):
                        return True
        return False

    unset = set(params)
    while True:  # a forwarded default counts as set once its source is; to the fixed point
        still = {key for key in unset if not is_set(key, unset)}
        if still == unset:
            return sorted(f"{m}:{d}({p})" for m, d, _, p in unset)
        unset = still


def _sources(*dirs):
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for d in dirs
        for path in sorted((ROOT / d).rglob("*.py"))
    }


def test_every_default_of_the_package_is_set_by_some_caller():
    assert unset_defaults(_sources("src"), _sources(*CALLERS)) == []


def test_the_scan_finds_an_unset_default():
    source = """
def solve(a, tol=1e-8, sweeps=60, *, floor=0.0):
    return a

def front(a, tol=1e-8):
    return solve(a, tol, floor=1.0)

class Fields:
    def read(self, pts, order=0):
        return pts

def caller(fields):
    fields.read(1, 2)
    return front(0)
"""

    def scan(src):
        return unset_defaults({"m": src}, {"m": src})

    # floor is set by keyword and order by position on a bound method; front
    # forwards its unset tol, which sets nothing
    assert scan(source) == ["m:front(tol)", "m:solve(sweeps)", "m:solve(tol)"]
    assert scan(source.replace("front(0)", "front(0, 1e-6)")) == ["m:solve(sweeps)"]
    assert "m:read(order)" in scan(source.replace("read(1, 2)", "read(1)"))
    assert scan(source.replace("front(0)", "front(0, *args)")) == ["m:solve(sweeps)"]


def unread_fields(sources: dict[str, str], class_name: str = "RunConfig") -> list[str]:
    """Each annotated field of the class class_name that no source reads as an
    attribute (x.field); sources maps a module name to its source."""
    trees = [ast.parse(source) for source in sources.values()]
    fields = [
        node.target.id
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == class_name
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in fields if name not in read]


def test_every_config_key_is_read():
    assert unread_fields(_sources("src")) == []


def test_the_scan_finds_an_unread_key():
    source = """
class RunConfig:
    n: int = 4
    tol: float = 1e-8
    seed: int = 0

def check(cfg, res):
    res.add(cfg.n)
    return getattr(cfg, "tol")

def store(cfg):
    cfg.seed = 1
"""
    # tol is read by a computed name and seed is only written
    assert unread_fields({"m": source}) == ["tol", "seed"]
    assert unread_fields({"m": source.replace("cfg.seed = 1", "return cfg.seed")}) == ["tol"]
