"""Package structure: the intra-package import graph has no cycle, the
package's __init__ is its docstring and version, every bundled input
is data/<kind>/<name>.ini and goes into a wheel, every import of a
package name names the module that defines it, every function, class
and method is used inside the package, the settings types check
themselves once, when they are made, one place binds an airframe, one
helper starts child processes and one function sends from them, one
place integrates the control loops, the lateral law is chosen only where
a controller is bound, the run loop is one closed-loop step, the
per-step code uses no numpy, calls no builtin min or max and assigns no
attribute outside the gust model, and the benchmark tracer's hooks name
what the package defines.

Every import counts, wherever it sits: at module level, inside a
function, or under ``if TYPE_CHECKING:``. A helper that only its own
tests call is dead code.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import pytest

import levelwing
from conftest import SETTINGS_TYPES
from levelwing import errors
from levelwing.dynamics import Airframe, make_airframe
from levelwing.guidance import _plan_segments

PACKAGE = "levelwing"
SRC = Path(levelwing.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _imported_modules(node: ast.AST, modules: set[str]) -> set[str]:
    """Package modules named by one import statement."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base = node.module or ""
        elif node.level == 1:
            base = f"{PACKAGE}.{node.module}" if node.module else PACKAGE
        else:
            return set()  # above the package
        # "from . import x" and "from .pkg import mod" name modules too.
        names = [base] + [f"{base}.{alias.name}" for alias in node.names]
    else:
        return set()
    found = set()
    for name in names:
        parts = name.split(".")
        if parts[0] == PACKAGE and len(parts) > 1 and parts[1] in modules:
            found.add(parts[1])
    return found


def import_graph() -> dict[str, set[str]]:
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {}
    for stem in sorted(modules):
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        deps = set()
        for node in ast.walk(tree):
            deps |= _imported_modules(node, modules)
        graph[stem] = deps - {stem}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path of module names, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for dep in sorted(graph[node]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


def test_graph_sees_nested_and_type_checking_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .control import ControlCommand\n"
        "def f():\n"
        "    from levelwing.guidance import PathManager\n"
        "    import levelwing.metrics\n"
        "    from . import errors\n"
    )
    modules = {"control", "guidance", "metrics", "errors"}
    found = set()
    for node in ast.walk(tree):
        found |= _imported_modules(node, modules)
    assert found == modules


def test_find_cycle_reports_a_closed_path():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == \
        ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert "scenario" in graph and "dynamics" in graph["scenario"]
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_the_package_is_its_docstring_and_version():
    # levelwing/__init__.py imports nothing, so a name has one import
    # path, the module that defines it, and importing one module loads
    # only what that module needs.
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    docstring, version = tree.body
    assert ast.get_docstring(tree) and isinstance(docstring, ast.Expr)
    assert ast.unparse(version) == f"__version__ = {levelwing.__version__!r}"


def test_each_bundled_input_is_in_the_directory_of_its_kind_and_packaged():
    # resolve_input_path looks for a bundled name in data/<kind>/ only, so
    # a file elsewhere under data/ is never found; a file that no
    # package-data glob matches is left out of a wheel.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    packaged = {path for pattern in globs[PACKAGE]
                for path in SRC.glob(pattern)}
    files = [path for path in (SRC / "data").rglob("*") if path.is_file()]
    layout = [path.relative_to(SRC / "data").parts for path in files]
    assert all(len(parts) == 2 and parts[1].endswith(".ini")
               for parts in layout), layout
    assert {kind for kind, _ in layout} == {"aircraft", "plans", "scenarios"}
    assert set(files) <= packaged, sorted(set(files) - packaged)

def module_names(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level, by a def, a class or
    an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)}
    return names


def misplaced_imports(tree: ast.AST, defined: dict[str, set[str]]) -> \
        list[str]:
    """Names that a from-import takes from a package module that does not
    define them (defined maps each module to its module_names), as
    module.name. From the package itself only modules can be taken."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or ""
        elif node.level == 0 and (node.module or "").split(".")[0] == PACKAGE:
            module = node.module.partition(".")[2]
        else:
            continue
        names = defined.get(module, set()) if module else defined
        found += [f"{module or PACKAGE}.{alias.name}" for alias in node.names
                  if alias.name not in names]
    return sorted(found)


def test_misplaced_imports_names_what_the_module_does_not_define():
    defined = {"dynamics": {"ControlCommand", "trim"}, "control": {"step"}}
    tree = ast.parse("from levelwing.control import ControlCommand, step\n"
                     "from levelwing import control, wrap_pi\n"
                     "def f():\n"
                     "    from levelwing.dynamics import ControlCommand\n"
                     "from .dynamics import trim, air_data\n"
                     "from . import dynamics\n"
                     "from levelwingx import pi\nfrom numpy import pi\n")
    assert misplaced_imports(tree, defined) == [
        "control.ControlCommand", "dynamics.air_data", "levelwing.wrap_pi"]


def test_each_import_names_the_module_that_defines_the_name():
    defined = {path.stem: module_names(ast.parse(path.read_text()))
               for path in SRC.glob("*.py") if path.stem != "__init__"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = {"README.md": "".join(
        re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S))}
    assert "from levelwing.control import make_gain_schedule" in \
        sources["README.md"]
    for folder in (SRC, ROOT / "tests", ROOT / "tools", ROOT / "perfbench"):
        sources |= {f"{folder.name}/{path.name}": path.read_text()
                    for path in folder.glob("*.py")}
    found = {name: misplaced_imports(ast.parse(text), defined)
             for name, text in sources.items()}
    assert {name: names for name, names in found.items() if names} == {}


def definitions(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, name, node) of each module-level function and
    class and of each non-dunder method of those classes."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name, item)
                      for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("__")]
    return found


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Definitions that no module uses outside the definition itself.
    Uses are names and attribute names; imports are not uses."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    uses: dict[str, list[tuple[str, int]]] = {}
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((stem, node.lineno))
    missing = []
    for stem, tree in sorted(trees.items()):
        for qualified, name, node in definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if all(where == stem and line in inside
                   for where, line in uses.get(name, [])):
                missing.append(f"{stem}.{qualified}")
    return missing


def test_unreferenced_finds_helpers_only_their_own_body_uses():
    sources = {
        "a": "def used():\n    pass\n"
             "def recursive(n):\n    return recursive(n - 1)\n"
             "class Box:\n    def size(self):\n        return 1\n"
             "    def __len__(self):\n        return 1\n",
        "b": "from .a import recursive\nused()\nBox()\n",
    }
    assert unreferenced(sources) == ["a.recursive", "a.Box.size"]


def test_every_definition_is_used_inside_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert unreferenced(sources) == []


def function_tree(func) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]


def literal_comparisons(tree: ast.AST, owner: str) -> list[int]:
    """Lines where owner.<field> alone is compared with a number literal,
    the hand-written form of a bound that belongs on the field."""
    def number(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and type(node.value) in (int, float))

    def field(node):
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == owner)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(map(field, [node.left, *node.comparators]))
                  and any(map(number, [node.left, *node.comparators])))


def test_literal_comparisons_finds_single_field_bounds():
    tree = ast.parse("def f(self):\n"
                     "    if self.x <= 0.0: pass\n"
                     "    if 0 < self.y <= 1.5: pass\n"
                     "    if self.z < -1: pass\n"
                     "    if self.a * self.b - self.c <= 0.0: pass\n"
                     "    if self.lam not in (1, -1): pass\n"
                     "    if plan.r < 0.0 or w[2] != self.agl: pass\n")
    assert literal_comparisons(tree, "self") == [2, 3, 4]
    assert literal_comparisons(tree, "plan") == [7]


def test_settings_are_frozen_and_checked_when_made():
    for cls in SETTINGS_TYPES:
        assert dataclasses.is_dataclass(cls), cls
        assert cls.__dataclass_params__.frozen, cls
        assert "__post_init__" in vars(cls), cls
        # Kind, finiteness and each single-field bound are checked first,
        # by the one check, from the annotations and the field bounds.
        tree = function_tree(cls.__post_init__)
        assert ast.unparse(tree.body[0]) == "check_fields(self)", cls
        assert literal_comparisons(tree, "self") == [], cls
    assert literal_comparisons(function_tree(_plan_segments), "plan") == []
    assert not hasattr(errors, "require_finite")
    assert not [path.name for path in SRC.glob("*.py")
                if "require_finite" in path.read_text()]


def validate_uses(tree: ast.Module) -> list[int]:
    """Lines that define a validate function or call a .validate()."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "validate"
                  or isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "validate")


def test_validate_uses_finds_definitions_and_calls():
    tree = ast.parse("def validate():\n    pass\n"
                     "class A:\n    def validate(self):\n        pass\n"
                     "cfg.plan.validate()\nvalidate_all(x)\n")
    assert validate_uses(tree) == [1, 4, 6]


def test_no_validate_left_in_the_package():
    # A settings value is checked when it is made, so nothing re-checks it.
    found = {path.name: validate_uses(ast.parse(path.read_text()))
             for path in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def enclosing(sources: dict[str, str], hit) -> set[str]:
    """The innermost definition (see definitions) around each node that
    hit accepts, as stem.qualified, or the module stem at module level."""
    found = set()
    for stem, text in sources.items():
        tree = ast.parse(text)
        scopes = definitions(tree)
        for node in ast.walk(tree):
            if hit(node):
                inside = [qualified for qualified, _, scope in scopes
                          if scope.lineno <= node.lineno <= scope.end_lineno]
                found.add(f"{stem}.{inside[-1]}" if inside else stem)
    return found


def callers(sources: dict[str, str], name: str) -> set[str]:
    """Where a function called name, plain or as an attribute, is called."""
    def hit(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name)
                else getattr(func, "attr", None)) == name
    return enclosing(sources, hit)


def definers(sources: dict[str, str], name: str) -> set[str]:
    """Where a function called name is defined, nested ones included."""
    return enclosing(sources, lambda node: isinstance(node, ast.FunctionDef)
                     and node.name == name)


def test_callers_and_definers_name_the_innermost_definition():
    sources = {
        "a": "def bind():\n    def rates():\n        pass\n"
             "    return terms(1)\n"
             "class Box:\n    def size(self):\n        return m.terms(2)\n"
             "terms(3)\n",
        "b": "def rates():\n    return bind()\n",
    }
    assert callers(sources, "terms") == {"a.bind", "a.Box.size", "a"}
    assert callers(sources, "bind") == {"b.rates"}
    assert definers(sources, "rates") == {"a.bind", "b.rates"}


def test_one_place_binds_the_airframe():
    # make_airframe alone computes the inertia terms and defines the
    # kernel's functions, once per run or CLI command. So trim and the
    # gain schedule build no kernel of their own: they read the one they
    # are handed. The kernel has one call convention, plain floats: the
    # airframe is its parameters, inertia terms, force buildup and stage,
    # and the stage takes no forces from outside.
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert callers(sources, "gamma_terms") == {"dynamics.make_airframe"}
    assert Airframe._fields == ("params", "gammas", "loads", "stage")
    assert callers(sources, "make_airframe") == {
        "scenario.run_scenario", "cli._cmd_gains", "cli._cmd_trim"}
    # The force buildup and the equations of motion are written once: one
    # loads and one stage, both in make_airframe, and the stage alone of
    # its functions rotates the body velocity, as air_data does outside.
    assert definers(sources, "loads") == {"dynamics.make_airframe"}
    assert definers(sources, "stage") == {"dynamics.make_airframe"}
    assert callers(sources, "body_to_ned") == {"dynamics.air_data",
                                               "dynamics.make_airframe"}
    bind = function_tree(make_airframe)
    inner = [node for node in ast.walk(bind)
             if isinstance(node, ast.FunctionDef) and node is not bind]
    names = [node.name for node in inner]
    assert names.count("loads") == names.count("stage") == 1
    stage = inner[names.index("stage")]
    assert ast.unparse(stage.args) == (
        "u, v, w, phi, theta, psi, p, q, r, delta_a, delta_e, delta_r, "
        "delta_t, wind_n, wind_e, wind_d")

    def calls(tree, name):
        return sum(isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == name
                   for node in ast.walk(tree))

    assert calls(bind, "body_to_ned") == calls(stage, "body_to_ned") == 1
    # The pitch is checked in the stage and at the end of a step only.
    assert callers(sources, "_check_pitch") == {"dynamics.make_airframe",
                                                "dynamics.integrate_step"}
    assert calls(bind, "_check_pitch") == calls(stage, "_check_pitch") == 1


def test_one_child_protocol():
    # Every child process is started, and its pipe made, by _in_child,
    # and one child-side function sends: a second hand-written protocol
    # would bring its own messages, lifecycle and errors.
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert callers(sources, "Process") == {"scenario._in_child"}
    assert callers(sources, "Pipe") == {"scenario._in_child"}
    assert callers(sources, "send") == {"scenario._call_and_send"}


def test_one_place_integrates_the_control_loops():
    # The four integrating loops share one saturating PI, and it alone
    # updates an integrator: no other control function holds an
    # augmented assignment.
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert callers(sources, "_saturating_pi") == {
        "control.ratc_step", "control.aotc_step",
        "control.longitudinal_holds"}
    control = {"control": sources["control"]}
    assert enclosing(control, lambda node: isinstance(node, ast.AugAssign)) \
        == {"control._saturating_pi"}


def mode_comparisons(sources: dict[str, str]) -> set[str]:
    """Where a comparison names a lateral law, "aotc" or "ratc" (see
    enclosing)."""
    def hit(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(n, ast.Constant) and n.value in ("aotc", "ratc")
            for side in (node.left, *node.comparators)
            for n in ast.walk(side))
    return enclosing(sources, hit)


def test_mode_comparisons_find_names_inside_tuples():
    sources = {"a": "class C:\n    def __init__(self, m):\n"
                    "        self.ok = m in ('aotc', 'ratc')\n"
                    "    def step(self):\n        return self.m == 'ratc'\n"
                    "def f(m):\n    return g('ratc') if m else 'aotc'\n"}
    assert mode_comparisons(sources) == {"a.C", "a.C.step"}


def test_the_law_is_chosen_once_when_bound():
    # The law is checked where a schedule and a controller are made; no
    # settings value holds one, and no step and no run loop asks again.
    # (The controller's __init__ reports as its class.)
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert mode_comparisons(sources) == {
        "control.make_gain_schedule", "scenario.FlightController"}
    assert sum(text.count("controller mode must be aotc or ratc")
               for text in sources.values()) == 1


# The per-step code, by module: a function or Class.method, "*" for every
# function of the module, or "function:for" for the body of the
# function's first for loop. A step works on floats and named tuples.
STEP_CODE = {
    "angles": ["*"],
    "dynamics": ["air_data", "_airspeed_angles", "body_to_ned",
                 "integrate_step", "clamp_command", "_check_pitch",
                 "make_airframe", "GustModel.step"],
    "guidance": ["PathManager.step", "line_error", "orbit_error",
                 "course_command_line", "course_command_orbit", "slew_limit"],
    "control": ["*"],
    "metrics": ["beta_estimate"],
    "scenario": ["FlightController.step", "closed_loop_step",
                 "run_scenario:for"],
}


def step_code(tree: ast.Module, spec: str) -> list[ast.AST]:
    """The nodes that spec names in a module (see STEP_CODE)."""
    if spec == "*":
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)]
    path, _, part = spec.partition(":")
    found = {qualified: node for qualified, _, node in definitions(tree)}
    assert path in found, f"no {path} to check"
    node = found[path]
    if part == "for":
        node = next(n for n in ast.walk(node) if isinstance(n, ast.For))
    return [node]


def numpy_lines(nodes: list[ast.AST]) -> list[int]:
    """Lines inside nodes that name np or numpy."""
    return sorted({n.lineno for node in nodes for n in ast.walk(node)
                   if isinstance(n, ast.Name) and n.id in ("np", "numpy")})


def test_numpy_lines_finds_uses_in_the_named_code():
    tree = ast.parse("import numpy as np\n"
                     "def pure(x):\n    return x + 1.0\n"
                     "def mixed(x):\n    return np.sqrt(x)\n"
                     "class Box:\n    def step(self):\n"
                     "        return numpy.zeros(3)\n"
                     "def run(n):\n    buf = np.zeros(n)\n"
                     "    for k in range(n):\n        buf[k] = k\n"
                     "    return np.mean(buf)\n")
    assert numpy_lines(step_code(tree, "pure")) == []
    assert numpy_lines(step_code(tree, "mixed")) == [5]
    assert numpy_lines(step_code(tree, "Box.step")) == [8]
    assert numpy_lines(step_code(tree, "run:for")) == []
    assert numpy_lines(step_code(tree, "run")) == [10, 13]
    assert numpy_lines(step_code(tree, "*")) == [5, 8, 10, 13]


def step_code_findings(lines_in) -> dict[str, list[int]]:
    """The lines that lines_in finds in each entry of STEP_CODE, for the
    entries where it finds any."""
    found = {}
    for stem, specs in STEP_CODE.items():
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        for spec in specs:
            lines = lines_in(step_code(tree, spec))
            if lines:
                found[f"{stem}.{spec}"] = lines
    return found


def test_no_numpy_inside_a_step():
    assert step_code_findings(numpy_lines) == {}


def min_max_lines(nodes: list[ast.AST]) -> list[int]:
    """Lines inside nodes that call the builtin min or max by name."""
    return sorted({n.lineno for node in nodes for n in ast.walk(node)
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id in ("min", "max")})


def test_min_max_lines_finds_calls_in_the_named_code():
    tree = ast.parse("import numpy as np\n"
                     "def clamped(x):\n    return max(0.0, min(1.0, x))\n"
                     "def floored(x):\n    return x if x > 0.0 else 0.0\n"
                     "class Box:\n    def step(self, xs):\n"
                     "        return np.max(xs) + self.max(xs)\n"
                     "def run(xs):\n    top = max(xs)\n"
                     "    for x in xs:\n        top = min(top, x)\n"
                     "    return top\n")
    assert min_max_lines(step_code(tree, "clamped")) == [3]
    assert min_max_lines(step_code(tree, "floored")) == []
    assert min_max_lines(step_code(tree, "Box.step")) == []
    assert min_max_lines(step_code(tree, "run:for")) == [12]
    assert min_max_lines(step_code(tree, "*")) == [3, 10, 12]


def test_no_builtin_min_or_max_inside_a_step():
    # max(lo, min(hi, x)) costs several times an angles.clamp call, which
    # gives the same float, so a step clamps with the helper.
    assert step_code_findings(min_max_lines) == {}


def attribute_store_lines(nodes: list[ast.AST]) -> list[int]:
    """Lines inside nodes that assign an attribute: by assignment,
    augmented or not, or by a setattr or __setattr__ call."""
    return sorted({n.lineno for node in nodes for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Store)
                   or isinstance(n, ast.Call)
                   and (getattr(n.func, "id", None) == "setattr"
                        or getattr(n.func, "attr", None) == "__setattr__")})


def test_attribute_store_lines_finds_assignments_in_the_named_code():
    tree = ast.parse("def pure(box):\n    return box.size + 1\n"
                     "class Box:\n    def step(self, x):\n"
                     "        self.last = x\n        self.count += 1\n"
                     "        self.a, b = x\n"
                     "        setattr(self, 'c', x)\n"
                     "def run(box, xs):\n    box.ready = True\n"
                     "    for x in xs:\n        box.items[0] = x\n"
                     "        object.__setattr__(box, 'x', x)\n")
    assert attribute_store_lines(step_code(tree, "pure")) == []
    assert attribute_store_lines(step_code(tree, "Box.step")) == [5, 6, 7, 8]
    assert attribute_store_lines(step_code(tree, "run:for")) == [13]
    assert attribute_store_lines(step_code(tree, "run")) == [10, 13]


def test_no_attribute_assignment_inside_a_step():
    # A step's memory is what it takes and returns. The gust model alone
    # keeps state between steps, because it owns the random stream.
    assert set(step_code_findings(attribute_store_lines)) == {
        "dynamics.GustModel.step"}


def test_the_run_loop_is_gust_step_store_integrate():
    # run_scenario's loop wires nothing itself: it draws the gust, calls
    # closed_loop_step once, stores the row and integrates.
    tree = ast.parse((SRC / "scenario.py").read_text(encoding="utf-8"))
    (loop,) = step_code(tree, "run_scenario:for")
    calls = sorted((n.lineno, n.col_offset, n.func) for n in ast.walk(loop)
                   if isinstance(n, ast.Call))
    names = [getattr(func, "id", None) or func.attr for *_, func in calls]
    assert names == ["range", "len", "_store_rows", "step", "Environment",
                     "closed_loop_step", "append", "integrate_step"]


def tracer_hooks(path: Path) -> list[tuple[str, str, str]]:
    """The tracer's HOOKS table, read from its source without importing
    it: (hook name, module, attribute path) per hook."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names: dict[str, object] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                names[target.id] = node.value

    def value(node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return value(names[node.id])
        return ast.literal_eval(node)

    return [tuple(value(item) for item in entry.elts)
            for entry in names["HOOKS"].elts]


def unresolved_hooks(hooks) -> set[str]:
    """Hooks whose attribute path does not name a callable."""
    missing = set()
    for name, module, attr_path in hooks:
        owner = importlib.import_module(module)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add(name)
    return missing


# Hooks the benchmark still wraps although the loop no longer calls them
# there: the clamp moved into integrate_step, PathManager.step returns the
# lateral error, gain synthesis is one schedule built per controller, and
# combined_yaw_coeffs is deleted: the schedule folds the two yaw terms its
# heading plant needs. Any other renamed function would silently read 0 in
# its layer.
STALE_HOOKS = {
    "control.clamp_command",
    "guidance.lateral_error",
    "control.combined_yaw_coeffs",
    "control.ratc_gain_synthesis",
    "control.roll_gain_synthesis",
    "control.aotc_gain_synthesis",
    "control.lon_gain_synthesis",
}


def test_tracer_hooks_resolve():
    hooks = tracer_hooks(TRACER)
    assert ("dynamics.integrate_step", "levelwing.scenario",
            "integrate_step") in hooks
    assert unresolved_hooks(hooks) == STALE_HOOKS
