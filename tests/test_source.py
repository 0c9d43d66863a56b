import ast
import importlib
import subprocess
import sys
import types
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

import pytest

from conftest import src_env

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hecke5"


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants the results
    # depend on must be explicit raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_bench_span_targets_resolve():
    # the benchmark's `spans.sites` skips a traced function the library no
    # longer defines, so a refactor could drop per-layer metrics unnoticed;
    # bench/spans.py is executed from its source, so nothing is written there
    path = PACKAGE.parents[1] / "bench" / "spans.py"
    spans = types.ModuleType("bench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    # the library as bench/worker.py loads it: one attribute per layer
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"hecke5.{m}") for m in spans.LAYERS})
    missing = [
        name
        for name, module, attribute, _ in spans.TARGETS
        if spans.resolve(lib, module, attribute) is None
    ]
    assert spans.TARGETS and missing == []


@pytest.mark.parametrize(
    "module,loaded",
    [("hecke5", ["hecke5"]), ("hecke5.golden", ["hecke5", "hecke5.golden"])],
)
def test_importing_a_module_loads_only_what_it_imports(module, loaded):
    # the package re-exports nothing, so `import hecke5` loads no
    # submodule, and golden, the bottom layer, imports no other module
    code = f"import sys, {module}; print(*sorted(n for n in sys.modules if n.partition('.')[0] == 'hecke5'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == loaded


def test_runtime_imports_only_the_standard_library():
    # the package has no runtime dependencies: every import is relative
    # (within hecke5) or names a standard-library module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_one_integer_grammar():
    # every number read from outside goes through golden.parse_int: the
    # builtin int is called, or handed to a caller such as argparse's
    # `type=`, only inside it, and str.isdigit (true for any script's
    # digits and for superscripts) nowhere
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parse_int = {
            id(node)
            for f in tree.body
            if path.name == "golden.py" and getattr(f, "name", None) == "parse_int"
            for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "isdigit":
                found.append(f"{path.name}:{node.lineno} .isdigit()")
            if id(node) in parse_int or getattr(func, "id", None) in ("isinstance", "issubclass"):
                continue
            values = [func, *node.args, *(k.value for k in node.keywords)]
            if any(isinstance(v, ast.Name) and v.id == "int" for v in values):
                found.append(f"{path.name}:{node.lineno} int")
    assert found == []


def test_one_square_and_multiply():
    # golden.power is the one hand-written exponentiation; a modular power
    # or inverse of an integer goes to the builtin pow, so no bit is ever
    # shifted out of an exponent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift)
    ]
    assert found == []


def test_no_process_wide_cache():
    # a cache on a module-level function outlives every level it saw; a
    # level keeps its own factorization (IdealHNF.factors).  The one
    # exception, cli._parser, caches the argument parser and no result
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parser = {
            id(node)
            for f in tree.body
            if path.name == "cli.py" and getattr(f, "name", None) == "_parser"
            for decorator in f.decorator_list
            for node in ast.walk(decorator)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif id(node) not in parser:
                names = [getattr(node, "attr", None) or getattr(node, "id", None)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in ("cache", "lru_cache")]
    assert found == []


def test_no_float_arithmetic():
    # every answer stays exact: no float literal, no true division and no
    # float(...) call anywhere in the package; the one estimate, the guess
    # of golden.unit_log, is an integer that exact sign tests correct
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno} /")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                found.append(f"{path.name}:{node.lineno} float()")
    assert found == []


def test_one_root_of_five():
    # golden decides sqrt5 in one place: math.isqrt is called in golden.py
    # only inside _floor_sqrt5, the exact floor(y*sqrt5) that the sign and
    # the pseudo-division's rounding both read
    path = PACKAGE / "golden.py"
    tree = ast.parse(path.read_text(), str(path))
    helper = {
        id(node)
        for f in tree.body
        if getattr(f, "name", None) == "_floor_sqrt5"
        for node in ast.walk(f)
    }
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in helper
        and "isqrt" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert helper and found == []


def test_one_reduction():
    # a residue is reduced by IdealHNF.reduce_pair; only the products that
    # run on every edge of a walk inline that reduction, fused with the
    # product: `_residue_ops`' mul, dot and matmul, and quotient._line_form.
    # So a floor division by d1 appears only in those five functions
    allowed = {
        ("ideals.py", "IdealHNF", "reduce_pair"),
        ("ideals.py", "_residue_ops", "mul"),
        ("ideals.py", "_residue_ops", "dot"),
        ("ideals.py", "_residue_ops", "matmul"),
        ("quotient.py", "_line_form", None),
    }
    seen, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        for f in tree.body:
            for g in [f, *getattr(f, "body", [])]:
                scope = (path.name, getattr(f, "name", None), None if g is f else getattr(g, "name", None))
                if scope in allowed:
                    seen.add(scope)
                    inside.update(id(node) for node in ast.walk(g))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
                divisor = node.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.FloorDiv):
                divisor = node.value
            else:
                continue
            if "d1" in (getattr(divisor, "id", None), getattr(divisor, "attr", None)) and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno}")
    assert seen == allowed and found == []


def test_main_reads_every_input():
    # cli.main reads each command's inputs from its COMMANDS row and picks
    # every exit code, so a handler takes the values it is given, reads no
    # raw input and returns (payload, text), never an exit code
    readers = {"parse_element", "parse_matrix", "parse_int", "_level_ideal"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    found = []
    for f in handlers:
        for node in ast.walk(f):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in readers:
                    found.append(f"{f.name}:{node.lineno} calls {name}")
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple) and len(node.value.elts) == 3:
                found.append(f"{f.name}:{node.lineno} returns three values")
    assert handlers and found == []


def test_value_classes_are_generated_dataclasses():
    # a class's equality, hash, repr and immutability come from
    # @dataclass, never by hand; a slotted value class (GoldenInt, Mat2)
    # is @dataclass(frozen=True, init=False) and writes only its fast
    # __init__ (and __reduce__).  No dataclass passes `slots`: on
    # CPython 3.11 (and 3.10, 3.12) slots=True builds a second class,
    # whose generated frozen __setattr__ then raises TypeError, not
    # AttributeError, for a new attribute
    by_hand = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"}
    slotted_decorator = "dataclass(frozen=True, init=False)"
    seen, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bound = {stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
                bound.update(
                    t.id
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    for t in stmt.targets
                    if isinstance(t, ast.Name)
                )
                found += [f"{path.name}:{node.lineno} {node.name}.{name}" for name in sorted(bound & by_hand)]
                if "__slots__" in bound:
                    seen.add(node.name)
                    if slotted_decorator not in map(ast.unparse, node.decorator_list):
                        found.append(f"{path.name}:{node.lineno} {node.name} not @{slotted_decorator}")
            elif isinstance(node, ast.Call) and "dataclass" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                if any(k.arg == "slots" for k in node.keywords):
                    found.append(f"{path.name}:{node.lineno} slots=")
    assert seen == {"GoldenInt", "Mat2"} and found == []


def test_one_pseudo_euclidean_loop():
    # the lambda-continued fraction and the gcd run one loop,
    # golden.pseudo_euclid, over divmod_pseudo; the one other call of
    # divmod_pseudo is the `divmod` command's single division
    allowed = {("golden.py", "pseudo_euclid"), ("cli.py", "cmd_divmod")}
    seen, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        for f in tree.body:
            if (path.name, getattr(f, "name", None)) in allowed:
                seen.add((path.name, f.name))
                inside.update(id(node) for node in ast.walk(f))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "divmod_pseudo" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and id(node) not in inside
        ]
    assert seen == allowed and found == []


def test_ideal_arithmetic_on_integers():
    # the ideal arithmetic that factoring runs reads the HNF integers:
    # none of these functions builds a GoldenInt, asks for a basis of
    # GoldenInts or copies a dataclass with `replace`
    functions = {
        ("IdealHNF", "__post_init__"),
        ("IdealHNF", "contains"),
        ("ideal_mul",),
        ("ideal_divides",),
        ("factor_ideal",),
    }
    forbidden = {"GoldenInt", "basis", "replace"}
    tree = ast.parse((PACKAGE / "ideals.py").read_text())
    seen, found = set(), []
    for f in tree.body:
        for g in [f, *getattr(f, "body", [])]:
            name = getattr(f, "name", None)
            scope = (name,) if g is f else (name, getattr(g, "name", None))
            if scope not in functions:
                continue
            seen.add(scope)
            found += [
                f"{'.'.join(scope)}:{node.lineno} {called}"
                for node in ast.walk(g)
                if isinstance(node, ast.Call)
                and (called := getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in forbidden
            ]
    assert seen == functions and found == []


def test_the_packed_form_stays_in_the_closure():
    # a residue matrix is its Key at every interface; the packed int is
    # the closure's storage, so `_pack` and `_unpack` are named (read,
    # written or imported) only in their own definitions, in
    # `semigroup_closure`, which stores packed elements, and in
    # `coset_words`, which decodes them
    packed = {"_pack", "_unpack"}
    allowed = packed | {"semigroup_closure", "coset_words"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {
            id(node)
            for f in tree.body
            if path.name == "quotient.py" and getattr(f, "name", None) in allowed
            for node in ast.walk(f)
        }
        for node in ast.walk(tree):
            names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            names += [getattr(node, "id", None), getattr(node, "attr", None)]
            if id(node) not in inside:
                found += [f"{path.name}:{node.lineno} {name}" for name in names if name in packed]
    assert found == []


def _references(tree: ast.AST) -> Counter[str]:
    # how often a tree reads or writes each name, as a variable or an
    # attribute; imports, strings and docstrings do not count
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _definitions(tree: ast.Module) -> Iterator[tuple[ast.stmt, list[str]]]:
    # each module-level function, class or assignment with the names it
    # binds, and each public method of a module-level class
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield node, [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield method, [method.name]


def test_every_name_has_a_caller():
    # a module-level function, class or constant of the package, and a
    # public method of one of its classes, is used by the package outside
    # its own definition, by a script or by the benchmark, so a name that
    # only tests read has no place in the package (`__init__.py` holds
    # only dunder names).  bench/ is read from its source (span targets as
    # test_bench_span_targets_resolve reads them), so nothing is written
    # there
    root = PACKAGE.parents[1]
    outside: Counter[str] = Counter()
    for path in sorted((root / "scripts").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        outside += _references(ast.parse(path.read_text(), str(path)))
    path = root / "bench" / "spans.py"
    spans = types.ModuleType("bench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    outside.update(part for _, _, attribute, _ in spans.TARGETS for part in attribute.split("."))

    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    inside = sum((_references(tree) for tree in trees.values()), Counter())
    found = []
    for filename, tree in trees.items():
        for node, names in _definitions(tree):
            own = _references(node)
            found += [
                f"{filename}:{node.lineno} {name}"
                for name in names
                if not (name.startswith("__") and name.endswith("__"))
                and inside[name] == own[name]
                and not outside[name]
            ]
    assert found == []


def test_every_import_is_read():
    # every name a package module or a script imports is read in that
    # module, so a deletion leaves no import behind (`__future__` aside)
    root = PACKAGE.parents[1]
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((root / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert found == []
