"""Source-level checks on the package itself."""

import ast
from pathlib import Path

import gdclab
from gdclab import errors, rans

PACKAGE = Path(gdclab.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so validation written as an
    # assert would silently vanish; the package raises its own errors
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_no_validate_methods():
    # a config or spec checks itself in __post_init__, so any object that
    # exists is valid and no caller has a validate() to forget
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "validate"]
    assert not found, f"validate functions in the package: {found}"


def _imported_packages(path):
    """The top-level names of every module that ``path`` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    return {m.split(".")[0] for m in imported}


def test_lane_coder_imports_only_numpy_and_errors():
    # the coder steps symbols on the 2^16 grid and nothing else: tables,
    # nets and containers stay out of it
    imported = _imported_packages(PACKAGE / "rans.py")
    assert imported <= {"__future__", "numpy", "errors"}, imported


def test_no_module_imports_scipy():
    # the run time needs numpy alone: the coder tables and the rate model
    # use the package's own erf, so every host builds the same tables
    found = [p.name for p in sorted(PACKAGE.glob("*.py")) if "scipy" in _imported_packages(p)]
    assert not found, found


def test_range_coder_has_one_entry_per_direction():
    # every symbol goes through the lane steps that real payloads use: one
    # encode function, one decoder with one method, and the lane rule
    public = sorted(n for n, v in vars(rans).items() if not n.startswith("_")
                    and callable(v) and getattr(v, "__module__", None) == rans.__name__)
    assert public == ["Decoder", "encode", "lane_count"]
    assert sorted(n for n in vars(rans.Decoder) if not n.startswith("_")) == ["decode"]


def test_every_error_is_a_package_error():
    # one except clause catches whatever the package raises, and each error
    # keeps a builtin base for callers that catch ValueError and the like
    classes = [v for v in vars(errors).values()
               if isinstance(v, type) and v.__module__ == errors.__name__]
    base = getattr(errors, "GdclabError", None)
    assert base is not None
    for cls in classes:
        assert issubclass(cls, base), cls.__name__
        assert cls is base or any(b is not base for b in cls.__bases__), cls.__name__


def test_build_cdfs_has_one_caller():
    # coder tables come from one table set per payload; no coding path
    # builds tables per element
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callers += [fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                            and getattr(node.func, "id", getattr(node.func, "attr", None))
                            == "build_cdfs"]
    assert callers == ["_table_set"], callers


# (function, parameter) pairs whose default no library, benchmark or gate
# call overrides, each kept for a reason
DEFAULTS_WITHOUT_CALLER = {
    # the in-process CLI entry point: tests pass argv, the console script none
    ("main", "argv"),
}


def _defaulted_params(fn, is_method):
    """(name, positional index at a call site or None) of each parameter
    of ``fn`` that has a default."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i - is_method) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls(paths):
    """callee name -> list of (positional count, has *args, keyword names)."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            star = any(isinstance(a, ast.Starred) for a in node.args)
            found.setdefault(name, []).append(
                (len(node.args), star, {k.arg for k in node.keywords}))
    return found


def test_every_default_has_a_caller():
    # a defaulted parameter that no call sets is a constant in disguise;
    # calls match by name, and a class call counts for its __init__
    root = Path(__file__).resolve().parents[1]
    calls = _calls([*sorted((root / "src").rglob("*.py")),
                    *sorted((root / "bench").rglob("*.py")),
                    root / "tests" / "test_acceptance.py"])
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = methods.get(id(fn))
            is_method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            name = cls.name if cls is not None and fn.name == "__init__" else fn.name
            for param, index in _defaulted_params(fn, is_method):
                passed = any(param in kw or None in kw
                             or (index is not None and (npos > index or star))
                             for npos, star, kw in calls.get(name, ()))
                if not passed and (fn.name, param) not in DEFAULTS_WITHOUT_CALLER:
                    unset.append(f"{path.name}:{fn.lineno} {fn.name}({param})")
    assert not unset, f"defaults no call sets: {unset}"


def test_one_convolution_kernel():
    # every pass of every convolution reads its input through one column
    # builder; the transposed pass has no kernel of its own
    tree = ast.parse((PACKAGE / "layers.py").read_text(encoding="utf-8"))
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    windowing = sorted(fn.name for fn in functions for node in ast.walk(fn)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", getattr(node.func, "attr", None))
                       in ("sliding_window_view", "as_strided"))
    assert windowing == ["_columns"], windowing
    assert "_scatter" not in {fn.name for fn in functions}


# Public names that nothing outside the tests calls, each kept for a reason
UNCALLED_PUBLIC_NAMES = {
    # the central-difference reference that gate 2 and the layer tests
    # compare every VJP against; exported as public API
    "grad_check",
    # gate 4's parameter ledger
    "param_count",
}


def _public_definitions(tree):
    """(name, first line, last line) of each public top-level function and
    class and of each public method of a top-level class."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(f.name, f.lineno, f.end_lineno) for f in node.body
                     if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return defs


def test_every_public_name_has_a_caller():
    # library code that only tests call is a second API to keep working:
    # each public name is read by the package outside its own definition
    # and outside the bodies of UNCALLED_PUBLIC_NAMES, or by the benchmark
    # or the tools (imports and __all__ do not count)
    root = Path(__file__).resolve().parents[1]
    definitions = {path.resolve(): _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
                   for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}
    for path in [*sorted((root / "src").rglob("*.py")), *sorted((root / "bench").rglob("*.py")),
                 *sorted((root / "tools").rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path.resolve(), node.lineno))

    def inside(use, name):
        return any(use[0] == path and first <= use[1] <= last
                   for path, defs in definitions.items() for n, first, last in defs
                   if n == name or n in UNCALLED_PUBLIC_NAMES)

    uncalled = [f"{path.name}:{first} {name}"
                for path, defs in definitions.items() for name, first, _ in defs
                if name not in UNCALLED_PUBLIC_NAMES
                and all(inside(use, name) for use in uses.get(name, ()))]
    assert not uncalled, f"public names only tests call: {uncalled}"
