"""Rules over the package source as a whole."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "clarklab"
# the code that runs the package other than its unit tests
CALLERS = [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _uses(node, skip=()):
    """Identifiers that a node names, as variables or attributes, not
    descending into the nodes in ``skip``."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(c for c in ast.iter_child_nodes(n) if c not in skip)
    return out


def _definitions(tree):
    """(label, name, identifiers it names) for every top-level function and
    class and every method; a class's own uses leave its methods out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, _uses(node)
        elif isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            yield node.name, node.name, _uses(node, skip=methods)
            for m in methods:
                yield f"{node.name}.{m.name}", m.name, _uses(m)


def test_every_public_name_is_reached_outside_unit_tests():
    # a definition is reached when code that runs names it: module-level
    # code, the callers above, a dunder method, or a reached definition
    named = set()
    for path in CALLERS:
        named |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tops = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        named |= _uses(tree, skip=tops)
        defs += [(f"{path.stem}.{label}", name, uses)
                 for label, name, uses in _definitions(tree)]

    reached = set()
    grew = True
    while grew:
        grew = False
        for label, name, uses in defs:
            if label not in reached and (name in named or name.startswith("__")):
                reached.add(label)
                named |= uses
                grew = True
    unreached = [label for label, name, _ in defs
                 if not name.startswith("_") and label not in reached]
    assert not unreached, "named only by unit tests: " + ", ".join(unreached)


def _namers(*names):
    """For each identifier, the labels of the package's functions, classes
    and methods that name it, and of each module whose module-level code does."""
    users = {name: [] for name in names}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tops = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        found = [(path.stem, _uses(tree, skip=tops))]
        found += [(f"{path.stem}.{label}", uses) for label, _, uses in _definitions(tree)]
        for name, where in users.items():
            where += [label for label, uses in found if name in uses]
    return users


def test_one_routine_measures_nearest_distances_and_one_shoots_the_ode():
    # each job has one implementation: cdist and solve_ivp are each named by
    # exactly one function of the package, and by no module-level code
    assert _namers("cdist", "solve_ivp") == {"cdist": ["topology.nearest_distances"],
                                             "solve_ivp": ["bvp.shoot"]}


def _imports(stem, module):
    """Whether the package module ``stem`` imports anything from the package
    module ``module``, at any depth of its code (a lazy import counts)."""
    imported = []
    for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return any(module in m.split(".") for m in imported)


def test_only_the_enumeration_builds_the_branch_table():
    # the 2 * 3^n branch rows are built for the enumeration alone; the oracle
    # reads the product structure, so models needs no distance routine
    assert _namers("_branch_rows") == {"_branch_rows": ["models.enumerate_critical_set"]}
    assert not _imports("models", "topology")


def test_one_closed_form_measures_the_distance_to_the_zero_segment():
    # the oracle and the scan share one segment distance, so the scan samples
    # no segment cloud and solvers needs no distance routine
    assert _namers("segment_distance") == {"segment_distance": [
        "models.CriticalSetOracle.distance", "solvers.accumulation_scan"]}
    assert not _imports("solvers", "topology")


def test_models_imports_nothing_from_solvers():
    # the module graph runs one way: solvers runs flows on the models, and the
    # checks that run flows on the coordinate model live in solvers
    assert _imports("solvers", "models")
    assert not _imports("models", "solvers")


def test_scipy_loads_only_where_it_is_used(tmp_path):
    # the coordinate model's experiments run on numpy alone: importing every
    # module loads no scipy, and neither do scan, enumerate and minimax; the
    # Riesz solve, topology and the BVP load it on first use
    script = f"""
import sys
from clarklab import (spaces, functionals, models, solvers, deformation, topology,
                      minimax, bvp, cli)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not loaded(), loaded()
for argv in (["scan", "--n", "2"], ["enumerate", "--n", "2"],
             ["minimax", "--n", "2", "--jmax", "2"]):
    assert cli.main([*argv, "--out", {str(tmp_path)!r} + "/" + argv[0]]) == 0
    assert not loaded(), (argv[0], loaded())
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


def test_the_package_root_binds_only_its_version():
    # each name has one import path, its module's: the root holds its
    # docstring and __version__, which the CLI writes into the manifest
    body = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    assert isinstance(body[0].value.value, str)
    assert [ast.unparse(target) for target in body[1].targets] == ["__version__"]


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in ast.unparse(d) for d in node.decorator_list)


def _settable_values(tree):
    """Every parameter default and every dataclass field default: the
    values a caller may set without being asked to."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_values_do_not_grow():
    # a value the code can work out from its inputs is computed, not asked
    # for; the ceiling is the count the package has reached, and only falls
    total = sum(_settable_values(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.glob("*.py")))
    assert total <= 5


def _defaults(tree):
    """(callee, position, name) for every parameter default and dataclass
    field default: the name a call spells the callee with (the class for
    __init__ and for fields), the argument's position in that call (None
    for a keyword-only one) and its keyword."""
    owner = {m: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for m in c.body}
    for node in ast.walk(tree):
        if _is_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            yield from ((node.name, i, s.target.id)
                        for i, s in enumerate(fields) if s.value is not None)
        elif isinstance(node, ast.FunctionDef):
            cls = owner.get(node)
            bound = cls is not None and "staticmethod" not in map(ast.unparse,
                                                                  node.decorator_list)
            callee = cls.name if cls is not None and node.name == "__init__" else node.name
            params = (node.args.posonlyargs + node.args.args)[bound:]
            first = len(params) - len(node.args.defaults)
            yield from ((callee, first + i, a.arg) for i, a in enumerate(params[first:]))
            yield from ((callee, None, a.arg)
                        for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d)


def _omits(call, position, name):
    """Whether a call leaves the argument at ``position`` or ``name`` out."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return False
    return ((position is None or len(call.args) <= position)
            and name not in {k.arg for k in call.keywords})


def _calls(paths):
    """Callee name -> every call in ``paths`` that spells the callee so."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _defaults_where(calls, keep):
    """'module: callee(name)' for every default under the package for which
    ``keep(omits)`` holds, ``omits`` being whether each call leaves it out."""
    return [f"{path.stem}: {callee}({name})"
            for path in sorted(SRC.glob("*.py"))
            for callee, position, name in _defaults(ast.parse(path.read_text(encoding="utf-8")))
            if keep([_omits(c, position, name) for c in calls.get(callee, [])])]


def test_every_default_is_omitted_outside_unit_tests():
    # a default earns its place when code that runs relies on it: some call
    # in the package, the benchmark or the acceptance criteria names the
    # callee and leaves that argument out; otherwise the value is required
    unused = _defaults_where(_calls([*sorted(SRC.glob("*.py")), *CALLERS]),
                             lambda omits: not any(omits))
    assert not unused, "every caller sets: " + ", ".join(unused)


def test_every_default_is_set_by_some_caller():
    # a default that no call anywhere, unit tests included, ever sets is a
    # constant dressed as a parameter: it belongs in the body
    fixed = _defaults_where(_calls([*sorted(SRC.glob("*.py")), *CALLERS,
                                    *sorted((ROOT / "tests").glob("test_*.py"))]), all)
    assert not fixed, "no caller sets: " + ", ".join(fixed)


def test_only_the_cli_shapes_json():
    # what results.json and manifest.json hold is decided in one module: no
    # other module imports json or serializes its own reports
    shapers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            else:
                continue
            if any(name.split(".")[0] == "json" or name.startswith("to_json")
                   for name in names):
                shapers.append(path.stem)
    assert set(shapers) == {"cli"}
