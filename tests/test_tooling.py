"""Repository checks: the orbit table stays behind orbits.py, only group.py
builds N-bit maps, no module sorts or binary-searches for an index, each
engine width has one owner, only slices.permutations builds the subspace
keys and only enumeration asks for the permutations, only
orbits._check_cap raises MemoryCapError and each kernel's figure is
written once, beside the kernel, for every figure that runs it, the
spin's figure and batch size live in spin.py alone, no
module names 8192, numpy's default ufunc buffer size, so that no figure
is fitted to it, no subscript adds an axis with None or np.newaxis, so
that no kernel hands numpy a broadcast operand to buffer, the refdata
tables are read only inside report.load_reference, so each expected
value has one stored record, no string literal spells a table's CSV
header, so each field list lives only in its record class, every raise
in report.py and cli.py builds a class that cli.main maps to an exit
code, every definition in src/ but a module hook is read by other code
in src/ or by benchmark/, the package and the CLI load numpy only when a
command runs, so importing either, help and usage errors load no numpy,
classify imports neither numpy.ma nor json nor decimal, the public names
and each submodule resolve from a bare import of the package, the
README's Library example runs, the benchmark's layer pass still runs
against the package, the benchmark's self-check passes, no test module
but conftest.py starts tracemalloc or collects garbage, so every traced
figure goes through conftest.traced_peak and no per-call collection
comes back, and only the console entry freezes the collector's objects,
while nothing in src/ disables the collector.

benchmark/layers.py calls compile_mode_action.cache_clear, reads
CodeMap.terms, passes enumerate_orbits(cell_width=2) and, for the large
flavor, merges and summarizes with the large atlas; this runs it on the
smallest format and on 3x2x2x2 large so a change to that API shows up
here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_layer_pass(tmp_path, fmt, flavor):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "layers.py"), "--format", fmt,
         "--flavor", flavor, "--seed", "1", "--snapshot", str(tmp_path / "t.snap"),
         "--pass", "time"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_orbit_table_stays_in_orbits():
    # outside orbits.py, orbit ids are read through OrbitAtlas.orbit_id
    for name in ("ranks.py", "report.py", "cli.py"):
        assert "assignment" not in (ROOT / "src" / "f2orbits" / name).read_text(), name


def modules():
    return {path.name: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "f2orbits").glob("*.py"))}


def test_slices_builds_no_code_map():
    # the slice maps come from the images of the M basis slices and the
    # merge permutes the canonicals' bits, so no module but group.py,
    # which keeps them for benchmark/layers.py, compiles a map over all
    # N bits of a code
    forbidden = {"CodeMap", "compile_composite", "compile_mode_action",
                 "compile_generators", "transpose_program"}
    for name, tree in modules().items():
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert imported & forbidden == set(), name
    assert "transpose_program" not in (ROOT / "src" / "f2orbits" / "group.py").read_text()


def test_one_span_lookup():
    # slices.span_index numbers a span from its reduced basis, so no
    # module sorts or binary-searches for an index
    for path in sorted((ROOT / "src" / "f2orbits").glob("*.py")):
        text = path.read_text()
        assert "searchsorted" not in text and "argsort" not in text, path.name


def calls(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def function(tree, name):
    (node,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_only_enumeration_builds_the_keys():
    # the keys of every subspace are built once, by slices.permutations,
    # and only an enumeration asks for the permutations; everything else
    # unranks the subspaces it reads (itertools.permutations, which
    # lists mode permutations in group.py, is not the slices function)
    trees = modules()

    def count(tree, name):
        return len([call for call in calls(tree, name)
                    if getattr(call.func, "value", None) is None
                    or getattr(call.func.value, "id", None) != "itertools"])

    for name, (module, caller) in (("subspace_keys", ("slices.py", "permutations")),
                                   ("permutations", ("orbits.py", "enumerate_orbits"))):
        found = {module: count(tree, name) for module, tree in trees.items()}
        assert {module: n for module, n in found.items() if n} == {module: 1}, name
        assert count(function(trees[module], caller), name) == 1, name


def test_one_memory_rule():
    # every cap check hands its figure to orbits._check_cap, the only code
    # that constructs MemoryCapError; the bytes of each kernel are written
    # once, beside it, and every figure that runs the kernel calls them:
    # slices.span_index_bytes from the permutation build's figure and the
    # ranking's, slices.permutations_bytes and spin.spin_bytes from the
    # enumeration's, and slices.spanning_codes_bytes and
    # slices.unrank_bytes from the listing's, so orbits.py spells out no
    # buffer of slices.py (OrbitAtlas.orbit_id_bytes, a second copy of
    # span_index's bytes, is gone) and the batch size is known by spin.py
    # alone
    trees = modules()
    found = {module: len(calls(tree, "MemoryCapError")) for module, tree in trees.items()}
    assert {module: n for module, n in found.items() if n} == {"orbits.py": 1}
    assert len(calls(function(trees["orbits.py"], "_check_cap"), "MemoryCapError")) == 1
    for module, caller, kernels in (
            ("slices.py", "permutations_bytes", ("span_index_bytes",)),
            ("ranks.py", "rank_bytes", ("span_index_bytes",)),
            ("orbits.py", "required_bytes", ("permutations_bytes", "spin_bytes")),
            ("orbits.py", "member_bytes", ("spanning_codes_bytes", "unrank_bytes"))):
        for kernel in kernels:
            assert len(calls(function(trees[module], caller), kernel)) == 1, (caller, kernel)
    imported = {alias.name for node in ast.walk(trees["orbits.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"INDEX", "max_dim", "span_index_bytes"} == set()
    for path in sorted((ROOT / "src" / "f2orbits").glob("*.py")):
        assert "orbit_id_bytes" not in path.read_text(), path.name
        if path.name != "spin.py":
            assert "BATCH_MAX" not in path.read_text(), path.name


def test_one_owner_per_width():
    """np.uint32, np.uint16 and "<u2" (or another string spelling of
    those dtypes) appear in src/ only where the three widths are decided:
    slices.CODE (codes, keys, slices, slice maps), slices.INDEX (subspace
    indices, permutations, the spin's queue) and spin.CELL (orbit ids);
    every other site takes its dtype from an owner or from the codes it
    receives.  The exceptions use other literals: CodeMap's tables are
    intp, sizes and unrank's internals int64, and ranks uint8.  A cast of
    a real atlas to wider codes cannot show a literal left in
    ranks._orbit_adjacency, as its XOR truncates back to the same ids, so
    this check guards that site."""
    spellings = {"uint32", "uint16", "u4", "u2", "<u4", "<u2", "=u4", "=u2"}
    found = []
    for module, tree in modules().items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                owner = node.targets[0].id
            else:
                owner = getattr(node, "name", node.lineno)
            found += [f"{module}:{owner}" for part in ast.walk(node)
                      if (isinstance(part, ast.Attribute) and part.attr in ("uint32", "uint16")
                          and getattr(part.value, "id", None) == "np")
                      or (isinstance(part, ast.Constant) and part.value in spellings)]
    assert sorted(found) == ["slices.py:CODE", "slices.py:INDEX", "spin.py:CELL"]


def test_no_figure_counts_numpy_buffers():
    # a figure counts the arrays a kernel asks for; numpy's ufunc buffers,
    # 8192 items by default, follow np.setbufsize, so no module names
    # that size
    for path in sorted((ROOT / "src" / "f2orbits").glob("*.py")):
        assert "8192" not in path.read_text(), path.name


def test_no_subscript_adds_an_axis():
    # a broadcast operand makes numpy buffer it, in memory that follows
    # np.setbufsize and that no figure counts, so every kernel works a
    # line at a time with a scalar operand and no subscript adds an axis
    found = [f"{module}:{node.lineno}" for module, tree in modules().items()
             for node in ast.walk(tree) if isinstance(node, ast.Subscript)
             for part in ast.walk(node.slice)
             if (isinstance(part, ast.Constant) and part.value is None)
             or (isinstance(part, ast.Attribute) and part.attr == "newaxis")]
    assert found == []


def tracer_calls(path):
    # tracemalloc.start and gc.collect, named in a call or an import
    names = {("tracemalloc", "start"), ("gc", "collect")}
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute)
                and (getattr(node.value, "id", None), node.attr) in names)
            or (isinstance(node, ast.ImportFrom)
                and any((node.module, alias.name) in names for alias in node.names))]


def test_one_tracer_for_the_tests():
    # conftest.traced_peak keeps the collector off while it traces and
    # forces no collection, which costs tens of milliseconds per call
    # with the session's atlases alive; no other test module traces or
    # collects on its own
    tests = ROOT / "tests"
    assert tracer_calls(tests / "conftest.py")
    assert [found for path in sorted(tests.glob("*.py")) if path.name != "conftest.py"
            for found in tracer_calls(path)] == []


def test_only_the_console_entry_freezes():
    # cli.console_entry freezes every live object once main returns, so
    # the forced collection at exit passes them by; main and the engine,
    # which tests and library callers run in-process, leave the collector
    # as they found it, and nothing disables it: that saved about 3 ms a
    # run more but raised a classify's peak RSS by about 0.3 MB
    trees = modules()
    entry = {id(node) for node in ast.walk(function(trees["cli.py"], "console_entry"))}
    found = [(name, node.attr, id(node) in entry) for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gc"
             and node.attr in ("freeze", "disable")]
    assert found == [("cli.py", "freeze", True)]
    assert [name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "gc"] == []


def test_one_reader_for_refdata():
    # the refdata tables are the one record of every expected value:
    # every call in src/ of report's file readers, _records and _refdata,
    # sits inside load_reference, so no helper keeps a copy of its own
    trees = modules()
    readers = ("_records", "_refdata")
    found = sorted((module, call.lineno) for module, tree in trees.items()
                   for name in readers for call in calls(tree, name))
    inside = sorted(("report.py", call.lineno) for name in readers
                    for call in calls(function(trees["report.py"], "load_reference"), name))
    assert found and found == inside


def test_one_owner_per_field_list():
    # a table's field list lives only in its record class: no string
    # literal in src/ spells either CSV header, which emit joins from the
    # record's _fields
    from f2orbits.ranks import DistributionRow
    from f2orbits.report import ClassificationRow
    headers = [",".join(record.__annotations__)
               for record in (ClassificationRow, DistributionRow)]
    found = [f"{module}:{node.lineno}" for module, tree in modules().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(header in node.value for header in headers)]
    assert found == []


def test_every_raise_has_an_exit_code():
    # every raise in report.py and cli.py builds a class, or a subclass of
    # one, that an except clause of cli.main maps to an exit code, so no
    # failure of a command ends in a traceback
    # main imports the engine's classes after parsing, so each is found
    # in the module main imports it from
    import builtins
    from importlib import import_module

    import f2orbits.cli as cli
    import f2orbits.report as report
    trees = modules()
    main = function(trees["cli.py"], "main")
    home = {alias.name: import_module("." + node.module, "f2orbits")
            for node in ast.walk(main) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    caught = [node.type for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    mapped = tuple(getattr(home[name.id], name.id) if name.id in home
                   else getattr(builtins, name.id)
                   for node in caught for name in getattr(node, "elts", [node]))
    assert {cls.__name__ for cls in mapped} >= {"ValueError", "NoReferenceError",
                                                 "MemoryCapError"}
    for name, module in (("report.py", report), ("cli.py", cli)):
        raised = [node.exc.func.id for node in ast.walk(trees[name])
                  if isinstance(node, ast.Raise)]
        assert raised, name
        unmapped = [cls for cls in raised
                    if not issubclass(getattr(module, cls, None)
                                      or getattr(builtins, cls), mapped)]
        assert unmapped == [], name


def test_classify_does_not_import_numpy_ma():
    # numpy and the engine cost about 80 ms a start, so the package, the
    # CLI module, help and usage errors load neither; a plain np.unique
    # calls np.ma.is_masked, and importing numpy.ma costs every run tens
    # of milliseconds and most of a megabyte; json (only --emit json needs
    # it) and decimal stay off the path as well
    code = ("import sys\n"
            "def absent(step, *names):\n"
            "    for name in names:\n"
            "        assert name not in sys.modules, f'{step} imported {name}'\n"
            "import f2orbits\n"
            "absent('import f2orbits', 'numpy')\n"
            "import f2orbits.cli\n"
            "absent('import f2orbits.cli', 'numpy')\n"
            "from f2orbits.cli import main\n"
            "for argv, status in ((['--help'], 0), (['classify', '--help'], 0),\n"
            "                     (['classify', '--format', '2x2x2', '--emit', 'yaml'], 2)):\n"
            "    try:\n"
            "        main(argv)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == status, (argv, exc.code)\n"
            "    else:\n"
            "        raise AssertionError(f'{argv} did not exit')\n"
            "    absent(argv, 'numpy')\n"
            "assert main(['classify', '--format', '3x2x2x2', '--flavor', 'large']) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "absent('classify', 'numpy.ma', 'json', 'decimal')\n")
    fresh_interpreter(code)


def fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# the interpreter reads a module's __getattr__ and __dir__ (PEP 562)
MODULE_HOOKS = ("__getattr__", "__dir__")


def definitions(tree):
    """(name, node, reads that name it) for every top-level function and
    class of a module but the module hooks, and every method of its
    classes but the dunders: a method is read only as an attribute, a
    top-level name either way."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in MODULE_HOOKS:
            yield node.name, node, (node.name, "." + node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item, ("." + item.name,)


def reads(node, enclosing=()):
    """(name, definitions around it) for every name a tree reads, and
    (.attribute, definitions around it) for every attribute."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing += (node,)
    if isinstance(node, ast.Name):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute):
        yield "." + node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from reads(child, enclosing)


def test_every_definition_has_a_consumer():
    # src/ keeps only what a command or the benchmark runs: every
    # definition is read from outside itself, by src/ or by benchmark/;
    # the test oracles live in tests/, and imports and __all__ do not
    # count as reads
    trees = modules()
    readers = {}
    for tree in trees.values():
        for name, enclosing in reads(tree):
            readers.setdefault(name, []).append(enclosing)
    benchmark = {name for path in sorted((ROOT / "benchmark").glob("*.py"))
                 for name, _ in reads(ast.parse(path.read_text()))}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name, node, keys in definitions(tree)
              if not benchmark.intersection(keys)
              and all(node in enclosing for key in keys for enclosing in readers.get(key, []))]
    assert unused == []
    import f2orbits
    assert {"transpose", "brute_force_rank", "seed_rank_one"} & set(f2orbits.__all__) == set()


def test_public_names_resolve():
    # from a bare import of the package: the README's f2orbits.slices.CODE,
    # f2orbits.slices.unrank and f2orbits.spin.CELL, every submodule as an
    # attribute (each dropped from the package first, so the module hook,
    # not an earlier import, resolves it), every public name, a
    # from-import of a submodule, and AttributeError for an unknown name
    submodules = [path.stem for path in sorted((ROOT / "src" / "f2orbits").glob("*.py"))
                  if path.stem != "__init__"]
    code = ("import types\n"
            "import f2orbits\n"
            "assert f2orbits.slices.CODE and f2orbits.slices.unrank and f2orbits.spin.CELL\n"
            f"for name in {submodules!r}:\n"
            "    vars(f2orbits).pop(name, None)\n"
            "    module = getattr(f2orbits, name)\n"
            "    assert isinstance(module, types.ModuleType), name\n"
            "    assert module.__name__ == 'f2orbits.' + name, name\n"
            "missing = [name for name in f2orbits.__all__ if not hasattr(f2orbits, name)]\n"
            "assert missing == [], missing\n"
            "from f2orbits import spin\n"
            "assert spin is f2orbits.spin\n"
            "try:\n"
            "    f2orbits.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('f2orbits.no_such_name resolved')\n")
    fresh_interpreter(code)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    code = library[library.index("```python\n") + 10:library.index("```\n", 10)]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["rows"] and namespace["rows_l"]


def test_benchmark_layer_pass(tmp_path):
    out = run_layer_pass(tmp_path, "2x2x2", "small")
    assert out["problems"] == []
    assert out["cell_bytes"] == 2
    assert out["counts"]["orbits.orbits"] == 7
    # the benchmark compiles generator_set: two elements of GL(2,2) x GL(2,2)
    assert out["counts"]["group.generators"] == 2


def test_benchmark_layer_pass_large(tmp_path):
    # the large flavor goes through merge_large_orbits(...).orbit_count and
    # summarize(..., flavor="large", large=...)
    out = run_layer_pass(tmp_path, "3x2x2x2", "large")
    assert out["problems"] == []
    assert out["counts"]["orbits.large_orbits"] == 212
    # a snapshot is the header, 2 bytes per subspace and the CRC, so
    # orbits.snapshot_mb follows the format
    assert out["snapshot_bytes"] == 10 + 2 * 108_206 + 4


def test_benchmark_selfcheck_passes():
    # the benchmark's own check of its reference comparison and result schema
    done = subprocess.run([sys.executable, str(ROOT / "benchmark" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
