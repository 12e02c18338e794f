"""Static checks on the package source and the tests."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

from test_bench_names import load_tracer

from chevelem.rootdata import FORM_SIGN

SRC = Path(__file__).resolve().parents[1] / "src" / "chevelem"
TESTS = Path(__file__).resolve().parent


def unused_parameters(tree):
    """(function, parameter) pairs whose parameter the body never reads.

    self, cls and _-prefixed names are exempt; reads in nested functions
    count, defaults and decorators do not."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for p in params:
            name = p.arg
            if name in ("self", "cls") or name.startswith("_"):
                continue
            if name not in read:
                out.append((node.name, name))
    return out


def test_no_unused_parameters():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s: %s(%s)" % (path.name, f, p) for f, p in unused_parameters(tree)]
    assert not found, "parameters never read: " + ", ".join(found)


def unused_imports(tree):
    """Names bound by module-level imports that the module never reads.

    A read is any loaded name anywhere in the module, so uses inside
    functions and annotations count; from __future__ imports are exempt."""
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append(name)
    return out


def test_no_unused_imports():
    # __init__.py imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s/%s: %s" % (path.parent.name, path.name, name) for name in unused_imports(tree)]
    assert not found, "imports never read: " + ", ".join(found)


STDLIB = frozenset(sys.stdlib_module_names)


def test_library_is_silent():
    # the JSON trace is the one observability channel: no module logs,
    # and only the command line writes to stdout or stderr
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Import):
                modules = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom):
                modules = [n.module or ""]
            else:
                modules = []
            if "logging" in {m.split(".")[0] for m in modules}:
                found.append("%s: imports logging" % path.name)
            writes = (isinstance(n, ast.Name) and n.id == "print") or (
                isinstance(n, ast.Attribute) and n.attr in ("stdout", "stderr")
            )
            if writes and path.name != "cli.py":
                found.append("%s: writes output" % path.name)
    assert found == [], found


def test_runtime_is_standard_library_only():
    # pyproject.toml declares no runtime dependency, and the package
    # imports nothing but itself and the standard library
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M), "pyproject.toml lists dependencies"
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            found += ["%s: %s" % (path.name, t) for t in sorted(top - STDLIB - {"chevelem"})]
    assert not found, "imports outside the standard library: " + ", ".join(found)


SHARED = {"errors", "exactring", "rootdata", "words"}

# errors < exactring < rootdata < words < {localglobal, factorize, fileio} < cli
PACKAGE_IMPORTS = {
    "errors": set(),
    "exactring": {"errors"},
    "rootdata": {"errors", "exactring"},
    "words": {"errors", "exactring", "rootdata"},
    "localglobal": SHARED,
    "factorize": SHARED,
    "fileio": SHARED,
    "cli": {"errors", "exactring", "factorize", "fileio", "rootdata", "words"},
    "__main__": {"cli"},
}


def package_modules(node):
    """The chevelem modules an import statement names; none for others."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chevelem."):
        return [node.module.split(".")[1]]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("chevelem.")]
    return []


def test_imports_point_down_one_order():
    # each layer imports only layers below it, at module level, so no
    # module dodges a cycle with an import inside a function; __init__.py
    # re-exports every layer and is exempt
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {m for node in tree.body for m in package_modules(node)}
        allowed = PACKAGE_IMPORTS[path.stem]
        found += ["%s imports %s" % (path.name, m) for m in sorted(top - allowed)]
        found += ["%s does not import %s" % (path.name, m) for m in sorted(allowed - top)]
        found += [
            "%s imports %s inside %s" % (path.name, m, f.name)
            for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(f)
            for m in package_modules(node)
        ]
    assert found == [], found


def test_every_mutant_applies_once():
    # tools/mutants.py refuses to run when a check it mutates has moved or
    # been reworded; this finds that drift without running a mutant
    root = SRC.parents[1]
    spec = importlib.util.spec_from_file_location("mutants", root / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    found = [
        "%s: %r occurs %d times" % (path, old, count)
        for path, old, _ in tool.MUTANTS
        for count in [(root / path).read_text(encoding="utf-8").count(old)]
        if count != 1
    ]
    assert tool.MUTANTS and found == [], found


def functions_with_line(predicate):
    """'file: function' for each line of src/ that predicate accepts, named
    by the innermost def around it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        funcs = [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), 1):
            if predicate(line):
                inner = [f for f in funcs if f.lineno <= lineno <= f.end_lineno]
                name = max(inner, key=lambda f: f.lineno).name if inner else "<module>"
                found.append("%s: %s" % (path.name, name))
    return found


def test_exponents_summed_only_by_the_adder():
    # packed keys multiply by integer +; a tuple adder anywhere would mean
    # a second monomial format beside the packed one
    found = functions_with_line(lambda line: "tuple(map(add" in line)
    assert found == [], found


def test_structure_constants_read_only_through_rootdata():
    # commutator_expand turns the constants into letters; a module that
    # read them itself would rebuild those letters by hand.  commutes reads
    # only the cone
    found = functions_with_line(
        lambda line: "structure_constants(" in line and "def structure_constants(" not in line
    )
    assert found == [
        "rootdata.py: commutator_expand",
        "rootdata.py: opposite_decomposition",
    ], found


INVERSE_LETTERS = re.compile(r"\((\w+), -(\w+)\) for \1, \2 in reversed\(")


def test_letter_lists_inverted_only_by_invert_letters():
    # a word's inverse reverses its letters and negates each argument;
    # rootdata.invert_letters does that once for words, commutators and
    # the greedy's recorded moves
    found = functions_with_line(lambda line: INVERSE_LETTERS.search(line))
    assert found == ["rootdata.py: invert_letters"], found


def test_letters_multiplied_onto_a_matrix_only_by_rmul_letters():
    # a letter list times a matrix on the right is GroupMatrix.rmul_letters;
    # elem_unipotent is one letter onto the identity, and the relation
    # suite's torus check compares one move on each side
    found = functions_with_line(lambda line: ".rmul_unipotent(" in line)
    assert found == [
        "cli.py: run_relation_suite",
        "rootdata.py: rmul_letters",
        "rootdata.py: elem_unipotent",
    ], found


def test_substitute_called_only_for_maps_that_are_not_dilations():
    # x -> c*x and evaluation at zero go through the term map dilate; a
    # substitute call elsewhere would rebuild a dilation image by hand
    found = functions_with_line(lambda line: ".substitute(" in line)
    assert found == [
        "localglobal.py: dilation_factor",
        "localglobal.py: dilation_factor",
        "rootdata.py: substitute",
        "words.py: map_word",
    ], found


def test_variable_count_changed_only_by_substitute():
    # substitute widens the ring for its images and drops trailing
    # variables through nvars_out; a separate extend or shrink pass would
    # do that job a second time
    found = functions_with_line(lambda line: ".extend_vars(" in line or "shrink_vars" in line)
    assert found == ["exactring.py: substitute"], found


def test_greedy_lines_scored_by_one_kernel():
    # a candidate line is scored by exactring.size_change without being
    # built, so factorize neither builds lines with add_product nor sizes
    # whole entries anywhere but once per pass, in _size_grid
    def in_factorize(found):
        return [f for f in found if f.startswith("factorize.py: ")]

    assert in_factorize(functions_with_line(lambda line: "add_product" in line)) == []
    assert in_factorize(functions_with_line(lambda line: "weighted_size(" in line)) == [
        "factorize.py: _size_grid",
    ]
    assert in_factorize(functions_with_line(lambda line: "size_change(" in line)) == [
        "factorize.py: _move_delta",
    ]


def test_minors_expanded_only_by_minor():
    # det, inverse and membership share _minor's memoised table of minors;
    # a sum of products elsewhere in rootdata would expand a minor again
    found = functions_with_line(lambda line: "sum_of_products(" in line)
    assert [f for f in found if f.startswith("rootdata.py: ")] == [
        "rootdata.py: __mul__",
        "rootdata.py: _minor",
    ], found


def test_membership_checked_only_where_no_reduction_decides_it():
    # the Euclidean reduction is its own membership test and a verified
    # word proves membership, so the invariant (a determinant, exponential
    # in N for type A) is computed only on the stall matrix and on a
    # certificate's residual
    found = functions_with_line(
        lambda line: "membership_check(" in line and "def membership_check(" not in line
    )
    assert found == [
        "factorize.py: factor_polynomial",
        "words.py: check",
    ], found


def test_descent_refusals_raise_rather_than_return_none():
    # each refusal raises its named cause where it happens; a None passed up
    # the expansion would reach descend_word without one
    refusers = {"localglobal.py: " + name for name in ("_expand_good", "_flat_conj", "_opposite_rewrite")}
    found = functions_with_line(lambda line: re.fullmatch(r"\s*return( None)?\s*", line))
    assert refusers.isdisjoint(found), found


def test_only_rootdata_reads_the_unipotent_terms():
    # RootSystem derives its move table from unipotent_terms; every other
    # module applies or scores a letter through that table, so which
    # entries a letter changes is spelled out in rootdata alone (the grid
    # oracle under tests/ keeps its own model on purpose)
    found = functions_with_line(lambda line: "unipotent_terms" in line)
    assert found and all(f.startswith("rootdata.py: ") for f in found), found


def is_rank(node):
    return getattr(node, "id", None) == "rank" or getattr(node, "attr", None) == "rank"


def test_form_sign_read_only_through_eps():
    # the sign of coordinate i in the form J is RootSystem.eps(i); a
    # comparison of anything but a rank with a rank restates that rule,
    # unless it is one of the two rank gates
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for n in ast.walk(tree):
            if not isinstance(n, ast.Compare):
                continue
            operands = [n.left] + n.comparators
            if any(map(is_rank, operands)) and not all(map(is_rank, operands)):
                inner = [f for f in funcs if f.lineno <= n.lineno <= f.end_lineno]
                name = max(inner, key=lambda f: f.lineno).name if inner else "<module>"
                found.append("%s: %s" % (path.name, name))
    assert sorted(found) == [
        "rootdata.py: eps",
        "rootdata.py: model_size",
    ], found


def is_type_letter(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in FORM_SIGN


def test_type_letters_spelled_only_in_rootdata():
    # rootdata.FORM_SIGN is the one table that knows the types: outside
    # rootdata no module compares a type letter or lists the letters, so a
    # new type is one entry there (passing a letter, as to
    # build_root_system, compares nothing)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rootdata.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Compare):
                operands = [n.left] + n.comparators
            elif isinstance(n, (ast.Tuple, ast.List, ast.Set)):
                operands = n.elts
            elif isinstance(n, ast.Dict):
                operands = n.keys
            else:
                continue
            if any(map(is_type_letter, operands)):
                found.append("%s:%d" % (path.name, n.lineno))
    assert found == [], found


def test_base_kinds_spelled_only_in_exactring():
    # exactring's KIND_* constants name the base kinds: outside exactring
    # no module compares a .kind with a string literal (alone or in a
    # tuple, list or set), so a new or renamed kind is found by name
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exactring.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(n, ast.Compare):
                continue
            operands = [n.left] + n.comparators
            if not any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands):
                continue
            for o in operands:
                elts = o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o]
                if any(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elts):
                    found.append("%s:%d" % (path.name, n.lineno))
                    break
    assert found == [], found


def test_units_decided_only_by_base_ring():
    # BaseRing.is_unit and unit_inverse own which elements are units; a
    # second definition elsewhere would restate that rule for one ring
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            owner = getattr(scope, "name", type(scope).__name__)
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.FunctionDef) and node.name in ("is_unit", "unit_inverse"):
                    found.append("%s: %s.%s" % (path.name, owner, node.name))
    assert sorted(found) == [
        "exactring.py: BaseRing.is_unit",
        "exactring.py: BaseRing.unit_inverse",
    ], found


def reexported_names(tree):
    """Names __init__.py imports from the package's modules to re-export."""
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_read_outside_own_definition(tree):
    """Loaded names and attribute names a module reads, except reads inside
    the top-level def or class of the same name."""
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def test_every_reexport_has_a_user():
    # an export that only tests use is a helper to delete, not an API
    bench = SRC.parents[1] / "bench"
    read = set()
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        if path == SRC / "__init__.py":
            continue
        read |= names_read_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    exported = reexported_names(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")))
    unused = [name for name in exported if name not in read]
    assert exported and not unused, "re-exports with no user in src/ or bench/: " + ", ".join(unused)


def public_definitions(tree):
    """Names of a module's public top-level functions and classes, and of
    the public methods of its classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                "%s.%s" % (node.name, f.name)
                for f in node.body
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            ]
    return out


def test_every_public_name_has_a_reader_outside_tests():
    # a name that only tests read is a helper to delete, not an API; the
    # tracer's LAYERS read some names only as strings, and matrix_to_dict
    # stays as the writer of the matrix format `chevelem factor --in` reads
    bench = SRC.parents[1] / "bench"
    read = {name for _, path, *_ in load_tracer().LAYERS for name in path.split(".")}
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        read |= names_read_outside_own_definition(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        "%s: %s" % (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[-1] not in read
    ]
    assert unread == ["fileio.py: matrix_to_dict"], unread


GLEX_KEY = re.compile(r"sum\(([\w\[\]]+)\), \1\b")


def test_only_exactring_reads_exponent_keys():
    # the term-dict format has one owner: outside exactring, .terms is
    # read only as the opaque handle eval_word passes back to the kernel,
    # no module packs or unpacks a key, and with packed keys no module
    # builds a zero tuple, subtracts tuples or orders them by a key
    def outside(found):
        return [f for f in found if not f.startswith("exactring.py: ")]

    assert outside(functions_with_line(lambda line: re.search(r"\.terms\b", line))) == [
        "words.py: eval_word",
        "words.py: eval_word",
    ]
    packers = functions_with_line(lambda line: re.search(r"\b_(un)?pack\(", line))
    assert packers and outside(packers) == [], packers
    for pattern in ("(0,) *", "tuple(map(sub", "_glex"):
        assert functions_with_line(lambda line: pattern in line) == [], pattern
    assert functions_with_line(lambda line: GLEX_KEY.search(line)) == []
    for name in ("factorize.py", "rootdata.py", "localglobal.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "exactring"
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == [], "%s imports %s from exactring" % (name, ", ".join(private))


def defaulted_parameters(tree):
    """(function, parameter, position) for each defaulted parameter of the
    module's public top-level functions; keyword-only ones have no position."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out += [(node.name, p.arg, i) for i, p in enumerate(positional) if i >= first]
        out += [(node.name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
    return out


def passed_arguments(tree):
    """(callee name, keyword or position) for each argument a call passes;
    "*" stands for every position from a starred argument on, "**" for
    every keyword of a ** argument."""
    out = set()
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        for i, arg in enumerate(n.args):
            if isinstance(arg, ast.Starred):
                out.add((name, "*"))
                break
            out.add((name, i))
        out |= {(name, k.arg or "**") for k in n.keywords}
    return out


def test_every_default_parameter_has_a_caller():
    # a default that no call in src/, bench/ or tests/ overrides is a
    # constant in disguise, or an option nothing exercises
    bench = SRC.parents[1] / "bench"
    paths = sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")) + sorted(TESTS.glob("*.py"))
    passed = set()
    for path in paths:
        passed |= passed_arguments(ast.parse(path.read_text(encoding="utf-8")))
    unpassed = [
        "%s(%s)" % (func, param)
        for path in sorted(SRC.glob("*.py"))
        for func, param, pos in defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if not passed & {(func, param), (func, pos), (func, "*"), (func, "**")}
    ]
    assert not unpassed, "defaulted parameters no call passes: " + ", ".join(unpassed)
