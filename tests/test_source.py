"""Rules on the library source itself."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import omegalab


def _library_trees():
    src = Path(omegalab.__file__).parent
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in sorted(src.glob("*.py"))]


def _library_nodes(matches):
    return [f"{name}:{node.lineno}" for name, tree in _library_trees()
            for node in ast.walk(tree) if matches(node)]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and a check must survive it
    found = _library_nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, found


def test_library_never_reads_debug():
    # __debug__ is the other thing python -O changes; with neither it nor
    # assert in the library, -O cannot change what the library does
    found = _library_nodes(lambda node: isinstance(node, ast.Name) and node.id == "__debug__")
    assert not found, found


def test_library_has_no_unused_imports():
    # every imported name is read somewhere in its module; the package's
    # __init__ imports only to export
    found = []
    for name, tree in _library_trees():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                found += [f"{name}:{node.lineno} {alias.asname or alias.name}" for alias in node.names
                          if (alias.asname or alias.name.split(".")[0]) not in read]
    assert not found, found


def test_json_text_is_written_only_in_reports():
    # reports.emit_json decides every report's bytes, so no other module
    # calls json.dump or json.dumps
    def writes_json(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")
    found = [hit for hit in _library_nodes(writes_json) if not hit.startswith("reports.py:")]
    assert not found, found


def test_prefix_free_refusal_is_written_only_in_machines():
    # machines.check_prefix_free is the one refusal of a machine that is not
    # prefix-free, so no other module holds its text (docstrings aside)
    found = []
    for name, tree in _library_trees():
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                      and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
                  and ("prefix-free machine" in node.value or "self-delimiting machine" in node.value)]
    assert found and all(hit.startswith("machines.py:") for hit in found), found


def test_csv_text_is_written_only_in_reports():
    # reports.emit_csv writes every CSV from a table's own columns, so no
    # other module imports csv
    def imports_csv(node):
        return ((isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "csv" for alias in node.names))
                or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csv"))
    found = _library_nodes(imports_csv)
    assert found and all(hit.startswith("reports.py:") for hit in found), found


def _reads(tree):
    """How often each name is read in tree, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def test_library_has_no_unread_private_names():
    # every module-level _name (function, class or constant) is read somewhere
    # in the library outside its own definition, by name or as a module
    # attribute: a helper that a change replaced does not live on for tests,
    # or for its own recursion, alone
    trees = _library_trees()
    read = sum(map(_reads, (tree for _, tree in trees)), Counter())
    found = []
    for name, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{name}:{node.lineno} {n}" for n in names
                      if n.startswith("_") and not n.startswith("__") and read[n] == _reads(node)[n]]
    assert not found, found


def _names_read_by_commands():
    """Every name read, bare or as an attribute, in the library, the benchmark
    or the acceptance criteria."""
    root = Path(omegalab.__file__).parent.parent.parent
    paths = [*(root / "src" / "omegalab").glob("*.py"), *(root / "bench").glob("*.py"),
             root / "tests" / "test_acceptance.py"]
    return {node.id if isinstance(node, ast.Name) else node.attr
            for path in paths for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_library_function_has_a_caller():
    # a public module-level function is read by name somewhere in the library,
    # the benchmark or the acceptance criteria; one that only tests call is
    # reached by no command and goes
    read = _names_read_by_commands()
    found = [f"{name}:{node.lineno} {node.name}" for name, tree in _library_trees() for node in tree.body
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in read]
    assert not found, found


def test_every_public_library_class_member_has_a_reader():
    # the same rule for the public methods and properties of library classes;
    # a method that overrides its base class's (cli._Parser.error) is called
    # by the base class, not by name
    read = _names_read_by_commands()
    found = []
    for name, tree in _library_trees():
        module = importlib.import_module(f"omegalab.{name[:-3]}") if name != "__init__.py" else omegalab
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            bases = getattr(module, cls.name).__mro__[1:]
            found += [f"{name}:{node.lineno} {cls.name}.{node.name}" for node in cls.body
                      if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                      and node.name not in read and not any(hasattr(b, node.name) for b in bases)]
    assert not found, found


def _loaded_at_cli_start(modules):
    """The named modules that a fresh `from omegalab import cli` has loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(omegalab.__file__).parent.parent), os.environ.get("PYTHONPATH")])))
    code = f"import sys; from omegalab import cli; print(sorted({set(modules)!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_no_function_imports_a_module_loaded_at_cli_start():
    # an import inside a function defers only a module that the CLI has not
    # loaded at start (fractions, csv, hierarchy); for any
    # other module it saves nothing and costs a lookup on every call
    sites = set()
    for name, tree in _library_trees():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Import):
                    sites |= {(f"{name}:{node.lineno}", alias.name) for alias in node.names}
                elif isinstance(node, ast.ImportFrom):  # `from . import progs` imports omegalab.progs
                    package = "omegalab." if node.level else ""
                    sites |= ({(f"{name}:{node.lineno}", package + node.module)} if node.module else
                              {(f"{name}:{node.lineno}", package + alias.name) for alias in node.names})
    loaded = ast.literal_eval(_loaded_at_cli_start({module for _, module in sites}))
    found = sorted(f"{site} {module}" for site, module in sites if module in loaded)
    assert not found, found


def test_cli_start_does_not_import_fractions():
    # only `normality` needs fractions; every other command starts without it
    assert _loaded_at_cli_start({"fractions"}) == "[]\n"


def test_no_library_module_imports_multiprocessing():
    # a sweep runs in one process
    found = _library_nodes(lambda node: (isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "multiprocessing" for alias in node.names)) or (
        isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "multiprocessing"))
    assert not found, found


def test_cli_start_imports_neither_dataclasses_nor_csv_nor_hierarchy():
    # record types are NamedTuples, only --csv needs csv and only `fgh`
    # needs hierarchy; dataclasses would bring inspect along
    assert _loaded_at_cli_start({"dataclasses", "inspect", "csv", "omegalab.hierarchy"}) == "[]\n"


def test_no_library_module_imports_dataclasses():
    found = _library_nodes(lambda node: (isinstance(node, ast.Import) and any(
        alias.name == "dataclasses" for alias in node.names)) or (
        isinstance(node, ast.ImportFrom) and node.module == "dataclasses"))
    assert not found, found


def test_step_loop_keeps_its_counters_in_plain_locals():
    # a nested function that reads steps, ppos or apos turns each into a
    # closure cell, and every `steps += 1` of the step loop then goes through it
    from omegalab import vm

    assert vm.eval_expr.__code__.co_cellvars == ()
    assert vm._run.__code__.co_cellvars == ()  # the loop itself, which resume enters too


def test_cli_reads_argparse_through_its_public_names_only():
    # a private argparse name (_actions, _SubParsersAction, ...) may change
    # with any Python release; cli completes its namespace itself instead
    import argparse

    from omegalab.cli import build_parser

    parser = build_parser()
    objects = [argparse, parser, *parser._actions, *parser._subparsers._group_actions[0].choices.values()]
    objects += [value for value in vars(argparse).values() if isinstance(value, type)]
    private = {name for obj in objects for name in dir(obj) if name.startswith("_") and not name.startswith("__")}
    tree = dict(_library_trees())["cli.py"]
    found = [f"cli.py:{node.lineno} {node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, found


def _private_complexity_names(path):
    """The private omegalab.complexity names a module reads: imported from it,
    read as its attribute, or named to monkeypatch.setattr on it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "omegalab.complexity":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "complexity":
            names.add(node.attr)
        elif isinstance(node, ast.Call) and node.args and getattr(node.args[0], "id", None) == "complexity":
            names |= {arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_tests_name_only_the_pinned_sweep_internals():
    # the internals a test reads must move with the code that replaces them;
    # a test rewritten against tests/spec.py takes its names off this set in
    # the same change
    read = set().union(*map(_private_complexity_names, Path(__file__).parent.glob("*.py")))
    assert read == {"_ALPHABETS", "_C2Entries", "_CONSTANTS", "_RUN", "_SLOTS", "_build", "_cons", "_count",
                    "_count_forms", "_counted_records", "_exprs_exact", "_least", "_split_constants", "_store",
                    "_sweep", "_with_counted"}, sorted(read)


def test_the_spec_names_no_sweep_internal():
    # a fault in the evaluator, the machines or the sweep has nothing in the
    # spec to share: it names no complexity internal, and from omegalab it
    # imports only sexpr and bits
    path = Path(__file__).parent / "spec.py"
    assert _private_complexity_names(path) == set()
    spec = ast.parse(path.read_text())
    imported = {alias.name for node in ast.walk(spec) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(spec) if isinstance(node, ast.ImportFrom)}
    assert {name for name in imported if name.split(".")[0] == "omegalab"} == {"omegalab.bits", "omegalab.sexpr"}
