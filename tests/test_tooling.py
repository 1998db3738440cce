"""Repository checks: layer boundaries of the package, and the benchmark's
self-test, which runs the package traced."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pvkit"


def _imported_names(module: str) -> set[str]:
    """Modules and names that src/pvkit/<module>.py imports, plus every
    attribute it reads, so `linalg.Matrix` counts as well."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ["analyzer", "reps", "invariants", "catalog"])
def test_pipeline_modules_do_not_use_matrix(module):
    assert "Matrix" not in _imported_names(module)


def test_analyzer_reads_no_second_derivative_and_no_determinant():
    """Regularity is one rank on first-order data."""
    names = _imported_names("analyzer")
    assert "det" not in names and "d2" not in names


def test_analyzer_takes_gradients_without_jets():
    """Each gradient is one closed form from the invariant's data, taken
    in a stack: `invariants.values_and_gradients`, never the stack of one."""
    names = _imported_names("analyzer")
    assert "jet_line" not in names and "Jet2" not in names
    assert "values_and_gradients" in names and "value_and_gradient" not in names


def test_analyzer_evaluates_invariants_and_reads_the_point_stream_in_one_place():
    """The analyzer evaluates an invariant only in `_first_orders`, which
    only `verify_relative_invariant` calls, so the character certificate
    and the Hessian take the gradients that check returned; no hidden cache
    keeps one (`_sketch_coefficients` is the only `lru_cache`), and one
    function opens the "point-sample" stream.  A run certifies one point:
    the sampler takes the rep and the seed alone, each invariant check
    reads the stream after the point it is given, from the seed, and
    `classify` handles no draws itself."""
    tree = ast.parse((SRC / "analyzer.py").read_text())
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]

    def callers(name: str) -> set[str]:
        return {fn.name for fn in functions if name in _called(fn)}

    assert callers("values_and_gradients") == {"_first_orders"}
    assert len([
        n for n in ast.walk(_function(tree, "_first_orders"))
        if isinstance(n, ast.Call) and getattr(n.func, "id", "") == "values_and_gradients"
    ]) == 1
    assert callers("_first_orders") == {"verify_relative_invariant"}
    cached = {
        fn.name for fn in functions
        for d in fn.decorator_list
        if "lru_cache" in {n.id for n in ast.walk(d) if isinstance(n, ast.Name)}
    }
    assert cached == {"_sketch_coefficients"}
    openers = {
        fn.name for fn in functions
        if any(isinstance(n, ast.Constant) and n.value == "point-sample" for n in ast.walk(fn))
    }
    assert openers == {"_draws"}

    def parameters(name: str) -> list[str]:
        args = _function(tree, name).args
        assert not (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg)
        return [a.arg for a in args.args]

    assert parameters("sample_certified_points") == ["rep", "seed"]
    assert parameters("_check_invariant") == ["rep", "f", "first", "seed"]
    assert not _called(_function(tree, "classify")) & {"_draws", "islice", "dropwhile"}


def test_analyzer_works_at_the_point_not_in_coefficient_space():
    """The character dimension and the derived check read the commutators
    at a certified point; no structure tensor, derived subalgebra or kernel
    is built in a run."""
    names = _imported_names("analyzer")
    for name in ("structure_tensor", "derived_subalgebra", "SpanSolver", "Subalgebra"):
        assert name not in names, name


def test_no_module_computes_an_exact_kernel():
    """The block-wise kernel is gone: isotropy dimensions are read by
    rank-nullity and g2 and e6 are written down, so no module of the
    package defines, imports or names `nullspace` or its block helpers."""
    gone = {"nullspace", "_column_blocks", "_column_relations"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {
            getattr(n, "name", None) or getattr(n, "id", None) for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.ClassDef, ast.Name))
        }
        assert not (named | _imported_names(path.stem)) & gone, path.name


def test_full_rank_mod_p_is_one_deterministic_elimination():
    """The mod-P certificate mixes no rows: `full_rank_mod_p` names no
    generator, stream or cache, linalg imports no `lru_cache`, and no code
    of linalg outside the `DetRng` class draws a random number."""
    tree = ast.parse((SRC / "linalg.py").read_text())
    drawing = {"DetRng", "for_stream", "randint", "randints", "random", "lru_cache"}

    def named(node: ast.AST) -> set[str]:
        return {
            getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    assert not named(_function(tree, "full_rank_mod_p")) & drawing
    assert "lru_cache" not in _imported_names("linalg")
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == "DetRng"):
            assert not named(node) & drawing, ast.unparse(node)[:80]


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def _called(node: ast.AST) -> set[str]:
    return {
        n.func.id for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def _rank_calls(node: ast.AST) -> list[ast.Call]:
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "rank"
    ]


def _kernel_verdict(expr: ast.expr) -> bool:
    """expr is the bare call `full_rank_mod_p(...)`, or an `and` of such
    verdicts."""
    if isinstance(expr, ast.BoolOp):
        return isinstance(expr.op, ast.And) and all(map(_kernel_verdict, expr.values))
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "full_rank_mod_p"
    )


def _exact_only_after_a_rejection(fn: ast.FunctionDef, exact: set[str]) -> ast.If:
    """fn calls the names in `exact` only after the mod-P kernel said no:
    the first top-level statement to call `full_rank_mod_p` is an `if` whose
    test is the kernel's verdict and whose body is one `return`, and every
    call in `exact` lies in the statements after it.  Returns that `if`."""
    at = next(k for k, node in enumerate(fn.body) if "full_rank_mod_p" in _called(node))
    gate = fn.body[at]
    assert isinstance(gate, ast.If) and not gate.orelse, ast.unparse(gate)
    assert _kernel_verdict(gate.test), ast.unparse(gate.test)
    assert len(gate.body) == 1 and isinstance(gate.body[0], ast.Return)
    for node in fn.body[: at + 1]:
        assert not _called(node) & exact, ast.unparse(node)
    assert any(_called(node) & exact for node in fn.body[at + 1 :])
    return gate


def test_regularity_reaches_exact_rank_only_after_the_modular_test():
    """hessian_regularity reaches exact rank only after the mod-P kernel
    said no: after an `if` on the kernel's verdict that returns, and after
    the zero-row check, an `if` that returns False.  character_space_dim
    builds the Gram matrix and takes its rank only after its certificate,
    two kernel verdicts joined by `and`, is rejected.  The sampler's draw
    loop certifies by the kernel alone, and its one exact rank comes after
    that loop, when no draw passed."""
    tree = ast.parse((SRC / "analyzer.py").read_text())
    regularity = _function(tree, "hessian_regularity")
    gate = _exact_only_after_a_rejection(regularity, {"rank"})
    at = regularity.body.index(gate)
    zero_row = next(n for n in regularity.body[at + 1 :] if isinstance(n, ast.If))
    assert not zero_row.orelse, ast.unparse(zero_row)
    assert ast.unparse(zero_row.body) == "return False"
    assert {"any", "all"} <= {n.attr for n in ast.walk(zero_row.test)
                              if isinstance(n, ast.Attribute)}
    after = regularity.body.index(zero_row) + 1
    assert not any(_rank_calls(n) for n in regularity.body[:after])
    assert len(_rank_calls(regularity)) == 1
    character = _function(tree, "character_space_dim")
    gate = _exact_only_after_a_rejection(character, {"rank", "_commutator_gram"})
    assert isinstance(gate.test, ast.BoolOp) and len(gate.test.values) == 2
    assert len(_rank_calls(character)) == 1
    sampler = _function(tree, "sample_certified_points")
    (loop,) = [n for n in sampler.body if isinstance(n, ast.For)]
    assert "full_rank_mod_p" in _called(loop) and not _rank_calls(loop)
    after = sampler.body[sampler.body.index(loop) + 1 :]
    assert len(_rank_calls(sampler)) == sum(len(_rank_calls(n)) for n in after) == 1
    owners = {
        fn.name for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and _rank_calls(fn)
    }
    assert owners == {
        "sample_certified_points", "character_space_dim", "hessian_regularity",
    }
    gram_callers = {
        fn.name for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and "_commutator_gram" in _called(fn)
    }
    assert gram_callers == {"character_space_dim"}


def test_products_with_the_generators_have_one_owner():
    """Every product with T in the analyzer is `MatrixRep.act`,
    `MatrixRep.pullback` or `MatrixRep.combine`, so only reps.py knows the
    layout of T's nonzeros: analyzer.py reads no `rep.T` and no `_entries`,
    calls no einsum and defines no `_act` or `_pullback`; the commutator
    sketch names no P (it reduces its exact products once, through
    `_mod_p`), and the invariance check forms no `act` of its own but
    takes the one `_first_orders` formed.  reps.py keeps no second,
    residue layout of T and does not know P."""
    tree = ast.parse((SRC / "analyzer.py").read_text())
    reads = [
        ast.unparse(n) for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and (
            n.attr == "_entries"
            or n.attr == "T" and isinstance(n.value, ast.Name) and n.value.id == "rep"
        )
    ]
    assert not reads, reads
    assert "einsum" not in _imported_names("analyzer")
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & {"_act", "_pullback"}
    sketch = _function(tree, "_commutator_sketch")
    assert not [n for n in ast.walk(sketch) if isinstance(n, ast.Name) and n.id == "P"]
    annihilates = _function(tree, "_annihilates_commutators")
    assert not [
        n for n in ast.walk(annihilates)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "act"
    ]
    tree = ast.parse((SRC / "reps.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "nonzero_layout" not in defined
    assert "P" not in _imported_names("reps")


def _guard_reads(node: ast.AST) -> int:
    return sum(
        isinstance(n, ast.Name) and n.id == "_GUARD" and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute) and n.attr == "_GUARD"
        for n in ast.walk(node)
    )


def test_one_overflow_rule_for_exact_integer_products():
    """`_GUARD` is read in one function of the package, `linalg._pair`, and
    no module imports it (reps pairs T's nonzeros with a vector through
    `_pair`).  The analyzer's products are `linalg._matmul`, so it does not
    import `_fit`, and its residues are `linalg._mod_p`, so it defines no
    `_mod_p`."""
    modules = sorted(SRC.glob("*.py"))
    total = sum(_guard_reads(ast.parse(path.read_text())) for path in modules)
    pair = _function(ast.parse((SRC / "linalg.py").read_text()), "_pair")
    assert total == _guard_reads(pair) > 0
    assert not [path.stem for path in modules if "_GUARD" in _imported_names(path.stem)]
    assert "_fit" not in _imported_names("analyzer")
    tree = ast.parse((SRC / "analyzer.py").read_text())
    assert "_mod_p" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_octonion_does_not_import_fractions():
    assert "fractions" not in _imported_names("octonion")


def test_octonion_defines_no_class():
    """The cubic is integer data, a list of monomials, not a symbolic ring."""
    tree = ast.parse((SRC / "octonion.py").read_text())
    assert not [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]


def test_catalog_restricts_invariants_by_the_summand_dims():
    """Every restriction reads its offset and total off the representation,
    so no builder spells out the coordinate layout of a direct sum."""
    tree = ast.parse((SRC / "catalog.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "restrict_to_summand"
    ]
    assert calls
    for call in calls:
        assert len(call.args) == 3 and not call.keywords, ast.unparse(call)
        assert ast.unparse(call.args[1]) == "rep.summand_dims", ast.unparse(call)


def test_catalog_declares_parameter_domains_as_data():
    """Parameter ranges are each entry's (lowest, step) domain: catalog.py
    defines none of the validator factories, and an entry has no
    `validate` field."""
    import dataclasses

    from pvkit.catalog import CatalogEntry

    tree = ast.parse((SRC / "catalog.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not defined & {"_ge", "_all", "_even", "_odd", "_no_params"}
    fields = {f.name for f in dataclasses.fields(CatalogEntry)}
    assert "domain" in fields and "validate" not in fields


def test_invariants_read_coordinates_through_grids_not_unpackers():
    tree = ast.parse((SRC / "invariants.py").read_text())
    defined = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert not [name for name in defined if name.endswith("_unpack")]


def test_package_defines_no_gradient_tape_or_ring_expansion():
    """Invariants are data with closed-form gradients; the tape and the
    memoized det and Pf expansions live on in tests/helpers.py only."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {
            n.name for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & {"TapeNode", "ring_det", "ring_pf"}, path.name


def test_package_takes_no_registered_point():
    """A run's points come from (build, seed) alone: no function in the
    package has a `hint` or `x_hint` parameter, and no dataclass such a
    field."""
    banned = {"hint", "x_hint"}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                params = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                assert not params & banned, (path.name, getattr(node, "name", "lambda"))
            elif isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list
            ):
                fields = {
                    n.target.id for n in node.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                }
                assert not fields & banned, (path.name, node.name)


def test_square_action_scatters_without_kron():
    """sym2 and alt2 add T's nonzeros into the output; the kron products of
    the whole M(n) action peaked at 14 times the T they returned."""
    fn = _function(ast.parse((SRC / "reps.py").read_text()), "_square_action")
    attrs = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert "kron" not in attrs and "kron" not in _called(fn)


def test_span_solver_picks_no_dtype_per_row_operation():
    """Rows stay in Python ints through the elimination: neither `_combine`
    nor `SpanSolver._reduced` or `insert` fits an array, casts one or asks
    numpy for a common dtype."""
    tree = ast.parse((SRC / "linalg.py").read_text())
    (solver,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SpanSolver"]
    methods = {n.name: n for n in solver.body if isinstance(n, ast.FunctionDef)}
    for fn in (_function(tree, "_combine"), methods["_reduced"], methods["insert"]):
        names = _called(fn) | {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
        assert not names & {"_fit", "result_type", "astype"}, fn.name


@pytest.mark.parametrize("module", ["catalog", "reps", "rootsystems", "grading"])
def test_pipeline_modules_use_no_fractions(module):
    names = _imported_names(module)
    assert "Q" not in names and "fractions" not in names


def test_pfaffian_needs_no_prime():
    """Pf comes from one exact skew elimination, not a sign read modulo P."""
    assert "P" not in _imported_names("invariants")
    tree = ast.parse((SRC / "invariants.py").read_text())
    assert "_next_prime" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def _floor_divides(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.FloorDiv) for n in ast.walk(node)
    )


def test_invariants_evaluate_by_one_stacked_elimination():
    """A det or Pf grid is eliminated in one place per kind, on a whole
    stack of points: the only loops of invariants.py that divide are the
    steps of `_det_adj` and `_pf`, which build no list comprehension, no
    comprehension divides (the per-point list elimination did), and
    `value_and_gradient` is the stack of one, which calls
    `values_and_gradients` and no elimination of its own."""
    tree = ast.parse((SRC / "invariants.py").read_text())
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    eliminations = [
        fn.name for fn in functions
        if any(isinstance(n, (ast.For, ast.While)) and _floor_divides(n) for n in ast.walk(fn))
    ]
    assert sorted(eliminations) == ["_det_adj", "_pf"]
    for name in eliminations:
        fn = _function(tree, name)
        assert not [n for n in ast.walk(fn) if isinstance(n, ast.ListComp)], name
    comprehensions = (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    assert not [n for n in ast.walk(tree) if isinstance(n, comprehensions) and _floor_divides(n)]
    single = _function(tree, "value_and_gradient")
    assert "values_and_gradients" in _called(single)
    assert not _called(single) & {"_det_adj", "_pf", "_pivot"}


def test_perfbench_selftest_passes():
    """The benchmark self-test, traced runs included, exits 0 (about 10 s)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_traced_run_gives_time_to_every_pipeline_stage():
    """perfbench's tracer attributes self time to each stage of one run, so
    the stage table keeps seeing the analyzer functions it wraps by name."""
    script = (
        "import json, sys\n"
        "sys.path[:0] = ['perfbench', 'src']\n"
        "from spans import SpanTable, Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "import pvkit\n"
        "pvkit.run('T2.2', {'n': 3})\n"
        "print(json.dumps(SpanTable(tracer.dump()).self_by_stage()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stages = json.loads(proc.stdout)
    for stage in ("certified point sampling", "character rank", "invariance jets",
                  "Hessian"):
        assert stages.get(stage, 0) > 0, (stage, stages)
