"""Rules on the package source itself, checked by parsing it."""

import ast
import re
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import ranklab

SOURCE = Path(ranklab.__file__).resolve().parent


def parsed_modules():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in modules]


def import_time_nodes(tree):
    """Every node that runs when the module is imported: function bodies
    are skipped, class bodies and compound statements are not."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def scoped_nodes(tree):
    """Every node with the dotted name of the classes and functions
    around it, "" at module level."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, scope = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def is_attribute(node, owner: str, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == owner
    )


def test_package_has_no_assert_statements():
    # invariants must raise explicitly: ``python -O`` strips assert
    found = []
    for path, tree in parsed_modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def relative_imports(tree):
    """The module of every ``from .x import ...`` in a module, at module
    and at function level; ``from . import x`` names each x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield from [node.module] if node.module else (alias.name for alias in node.names)


def test_the_package_imports_only_the_standard_library():
    # the package promises the standard library alone (README, and
    # ``dependencies = []`` in pyproject.toml): every absolute import, at
    # any level, names a top-level module of the running Python's stdlib
    found = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_the_package_imports_form_no_cycle():
    # a module imports only modules below it, also inside a function: a
    # cycle means a layer reaching back up into one that builds on it
    graph = {path.stem: set(relative_imports(tree)) for path, tree in parsed_modules()}
    assert graph["listdec"] and graph["rankmetric"]  # the rule has something to hold
    cycle = None
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        cycle = exc.args[1]
    assert cycle is None


# names a module imports only to re-export them, each commented where it
# is imported
REEXPORTS = {"harness.py": {"CurvePoint", "emit_barrier_curves", "content_hash"}}


def test_every_imported_name_is_read():
    # an import left behind when its last reader moved away is dead code:
    # every name a module imports, at any level, is read in that module
    found = []
    for path, tree in parsed_modules():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread = imported.keys() - read - REEXPORTS.get(path.name, set())
        found += [f"{path.name}:{imported[name]} {name}" for name in sorted(unread)]
    assert found == []
    # the re-exports are still imported, and still read by no code of their own
    harness = ast.parse((SOURCE / "harness.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(harness) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert REEXPORTS["harness.py"] <= names


def test_package_init_imports_no_submodule():
    # exports load on first use; an eager ``from .x import`` loads x
    # into every process that imports ranklab
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in import_time_nodes(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert found == []


def test_rank_vectors_skip_their_checks_only_in_the_unchecked_helpers():
    # object.__new__ and the slot setters build a RankVector without
    # __init__'s checks: only rankmetric's one unchecked helper may, and
    # __init__ itself stores the checked fields through the setters
    helpers = {"rankmetric.py:_trusted_batch"}
    setters = helpers | {"rankmetric.py:RankVector.__init__"}
    found = []
    for path, tree in parsed_modules():
        nodes = list(scoped_nodes(tree))
        # object.__setattr__ is left to the frozen records' own
        # __post_init__, called on self
        on_self = {
            id(node.func)
            for scope, node in nodes
            if isinstance(node, ast.Call)
            and scope.endswith(".__post_init__")
            and not scope.startswith("RankVector.")
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        }
        for scope, node in nodes:
            where = f"{path.name}:{scope}"
            if is_attribute(node, "object", "__new__") and where not in helpers:
                found.append(f"{where}:{node.lineno} object.__new__")
            if isinstance(node, ast.Attribute) and node.attr == "__set__" and where not in setters:
                found.append(f"{where}:{node.lineno} __set__")
            if is_attribute(node, "object", "__setattr__") and id(node) not in on_self:
                found.append(f"{where}:{node.lineno} object.__setattr__")
    assert found == []


def test_dataclasses_is_imported_only_to_raise_and_nothing_compiles_code():
    # the frozen records are plain classes: dataclasses is loaded only for
    # the error a frozen field raises, and no method is built from source
    imports = []
    found = []
    for path, tree in parsed_modules():
        for scope, node in scoped_nodes(tree):
            where = f"{path.name}:{scope}"
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                imports.append(where)
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name) and func.id in ("exec", "eval", "compile"):
                found.append(f"{where}:{node.lineno} {func.id}")
    assert imports == ["rankmetric.py:_frozen"]
    assert found == []


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
PRODUCTS = {"mul", "_mul_generic", "_poly_mul"}


def own_nodes(func):
    """The nodes of a function body, without those of functions nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def has_product(node) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult):
            return True
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PRODUCTS:
                return True
    return False


def fields_functions():
    tree = ast.parse((SOURCE / "fields.py").read_text(encoding="utf-8"))
    for scope, node in scoped_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (f"{scope}.{node.name}" if scope else node.name), node


def test_fields_has_one_product_remainder_and_power_loop():
    # a loop over coefficient products inside another loop is a schoolbook
    # product or a long division: only _poly_mul and _poly_mod hold one;
    # the halving step of square-and-multiply is only in _poly_powmod;
    # the shared untabulated product and power, the shared table readers
    # and the base level's product-table reader have no loop at all
    loop_free = {
        "_Residues._mul_generic", "_Residues._pow_generic",
        "_Residues.mul", "_Residues.inv", "_Residues.pow", "FieldCtx.mul",
    }
    found = []
    seen = set()
    for name, func in fields_functions():
        seen.add(name)
        loops = [node for node in own_nodes(func) if isinstance(node, LOOPS)]
        if name in loop_free and loops:
            found.append(f"{name}: loop")
        nested = any(
            inner is not outer and isinstance(inner, LOOPS) and has_product(inner)
            for outer in loops
            for inner in ast.walk(outer)
        )
        if nested and name not in ("_poly_mul", "_poly_mod"):
            found.append(f"{name}: nested product loop")
        for node in own_nodes(func):
            op = getattr(node, "op", None)
            if isinstance(op, ast.RShift) and name != "_poly_powmod":
                found.append(f"{name}:{node.lineno} >>")
    assert loop_free <= seen
    assert found == []


def test_fields_has_one_primitive_element_search_and_one_table_reader():
    # the search needs the prime factors of order - 1, so _log_tables as
    # its one searching user means one search; is_prime and
    # split_prime_power read the same factors instead of running trial
    # divisions of their own, and search for nothing; both levels take
    # their log/antilog pair from _log_tables through the one accessor
    # that reads the table limit, and only the shared mul, inv and pow
    # and the base level's product-table builder call that accessor; no
    # function reads either level's limit constant, which only sets
    # _table_limit
    expected = {
        "_prime_factors": {"_log_tables", "is_prime", "split_prime_power"},
        "_log_tables": {"_Residues._log_table"},
        "_table_limit": {"_Residues._log_table"},
        "_BASE_TABLE_LIMIT": set(),
        "_EXT_LOG_LIMIT": set(),
        "_log_table": {"_Residues.mul", "_Residues.inv", "_Residues.pow", "FieldCtx._build_tables"},
    }
    users = {name: set() for name in expected}
    for name, func in fields_functions():
        for node in own_nodes(func):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ref in users and isinstance(node, (ast.Name, ast.Attribute)):
                users[ref].add(name)
    assert users == expected
    # F_2 takes the same search: no branch of _log_tables picks a field by its order
    search = dict(fields_functions())["_log_tables"]
    assert not [
        node.lineno for node in own_nodes(search)
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "order"
        and all(isinstance(c, ast.Constant) for c in node.comparators)
    ]


def test_the_gv_curve_and_the_singleton_line_are_written_once():
    # the alpha bounds check delta and return the barrier at delta: no
    # arithmetic of their own
    tree = ast.parse((SOURCE / "bounds.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, curve in (("gv_alpha_lower", "gv_barrier"), ("alpha_exact", "singleton_barrier")):
        nodes = list(own_nodes(funcs[name]))
        assert not [node.lineno for node in nodes if isinstance(node, ast.BinOp)], name
        assert curve in {node.func.id for node in nodes if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_fields_writes_each_shared_job_of_both_levels_once():
    # FieldCtx and ExtCtx take these from their one base class, so a
    # second definition would be a second copy of the same job; mul is
    # not here, since the base level overrides it with its product table
    shared = (
        "check_element", "elements", "add", "sub", "neg",
        "_mul_generic", "_pow_generic", "_log_table", "inv", "pow", "__eq__", "__hash__",
    )
    defined = [name.rpartition(".")[2] for name, _ in fields_functions()]
    assert {name: defined.count(name) for name in shared} == dict.fromkeys(shared, 1)


def listdec_functions():
    """The module-level functions of listdec, each with the module-level
    functions and classes it names."""
    tree = ast.parse((SOURCE / "listdec.py").read_text(encoding="utf-8"))
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return {
        name: {node.id for node in ast.walk(func) if isinstance(node, ast.Name)} & set(defs)
        for name, func in defs.items()
    }


def test_one_helper_computes_dependency_keys_and_the_oracle_never_calls_it():
    # list_size_at is the unfiltered oracle the keys are checked against:
    # nothing it reaches may build a dependency key, and only _near, the one
    # candidate-side kernel, which indexes codewords by key, calls _keys
    defined = []
    for path, tree in parsed_modules():
        for scope, node in scoped_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_keys":
                defined.append(f"{path.name}:{scope}")
    assert defined == ["listdec.py:"]
    refs = listdec_functions()
    assert {name for name, used in refs.items() if "_keys" in used} == {"_near"}
    # every name list_size_at reaches through listdec, imported ones too:
    # it ranks each difference itself
    tree = ast.parse((SOURCE / "listdec.py").read_text(encoding="utf-8"))
    named = {
        node.name: {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    reached = set()
    stack = ["list_size_at"]
    while stack:
        name = stack.pop()
        if name not in reached:
            reached.add(name)
            stack.extend(named.get(name, ()))
    assert reached.isdisjoint({"_keys", "_key_count", "_Encoder", "_near"})
    assert "_rank_of_entries" in reached


def test_the_counters_and_the_fold_share_one_digit_step():
    # the fold is the dense add's ``span`` form, not a kernel of its own:
    # both move a bitset by a packed vector through one routine, so the
    # step is written once, the kernel holds no copy of it, and no other
    # function moves a bitset
    step = "low << d * place"
    source = (SOURCE / "listdec.py").read_text(encoding="utf-8")
    assert source.count(step) == 1
    tree = ast.parse(source)
    holders = [
        node.name for node in tree.body if isinstance(node, ast.FunctionDef) and step in ast.unparse(node)
    ]
    assert len(holders) == 1 and holders[0] != "_counters"
    refs = listdec_functions()
    assert "_fold" not in refs
    assert [name for name, names in refs.items() if holders[0] in names] == ["_counters"]
    # max_list_size runs the fold and the counters through that one kernel
    (sweep,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "max_list_size"]
    spans = [
        ast.unparse(node) for node in ast.walk(sweep)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_counters"
    ]
    assert spans == ["_counters(ctx, n, s, _fp_basis(code), span=True)", "_counters(ctx, n, s, _packed_words(code, cap))"]


def test_one_sparse_tally_and_one_exhaustive_answer():
    # the scatter and the coset tally are one kernel, _tally: no other
    # listdec code reads the ball's offsets or builds a tally (``_near``'s
    # pair tally aside), and the two kernels it replaced are gone;
    # max_list_size checks the double count of every exhaustive route in
    # one call
    tree = ast.parse((SOURCE / "listdec.py").read_text(encoding="utf-8"))
    tallies, offsets, checks, defined = set(), set(), [], set()
    for scope, node in scoped_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(f"{scope}.{node.name}" if scope else node.name)
        if isinstance(node, ast.Attribute) and node.attr in ("packed", "layout"):
            offsets.add(scope)
        called = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
        if called == "Counter":
            tallies.add(scope)
        if called == "_double_count":
            checks.append(scope)
    assert tallies == {"_tally", "_near"}
    assert offsets == {"_tally"}
    assert checks == ["max_list_size"]
    assert {"_tally", "_CosetKeys", "_counters", "_top", "_least"} <= defined
    assert not {"_scatter", "_fold", "_CosetKeys.ball"} & defined


def test_one_monte_carlo_answer():
    # max_list_size reads every Monte Carlo route's counts in one place:
    # one max over the counts, with no key to re-read a tally by, one
    # first-candidate read, and neither a union of a tally's keys with the
    # draws nor a search of the counts for their max
    tree = ast.parse((SOURCE / "listdec.py").read_text(encoding="utf-8"))
    (func,) = [node for node in tree.body if getattr(node, "name", None) == "max_list_size"]
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
    maxes = [node for node in calls if getattr(node.func, "id", None) == "max"]
    assert len(maxes) == 1 and not maxes[0].keywords
    assert [getattr(node.func, "id", None) for node in calls].count("next") == 1
    assert not [node for node in calls if getattr(node.func, "attr", None) in ("index", "keys")]
    assert not [node for node in ast.walk(func) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)]


def test_the_pair_scan_builds_no_list_of_pairs():
    # _near streams its (candidate, codeword) pairs into one tally: no
    # while loop and no slice of the pair iterators, one Counter of the
    # owners its tests pass
    tree = ast.parse((SOURCE / "listdec.py").read_text(encoding="utf-8"))
    (func,) = [node for node in tree.body if getattr(node, "name", None) == "_near"]
    assert not [node for node in ast.walk(func) if isinstance(node, ast.While)]
    assert "islice" not in {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
    (tally,) = [node for node in calls if getattr(node.func, "id", None) == "Counter"]
    (scan,) = tally.args
    assert ast.unparse(scan) == "compress(owners, hits)"


def test_codes_alone_knows_how_a_code_is_spanned():
    # codes builds every codeword and F_p basis: no other module takes a
    # Frobenius power (fields defines it), and listdec's kernels read the
    # packed words codes hands them instead of enumerating the code
    found = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            # a name, an attribute, or an imported alias
            ref = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if ref == "frobenius" and isinstance(node, ast.Attribute) and path.name not in ("codes.py", "fields.py"):
                found.append(f"{path.name}:{node.lineno} frobenius")
            if ref == "enumerate_codewords" and path.name == "listdec.py":
                found.append(f"{path.name}:{node.lineno} enumerate_codewords")
    assert found == []


BALL_PARTS = {"layout", "packed", "probes", "bits"}


def test_only_the_ball_memo_builds_the_ball():
    # the ball has one owner, rankmetric: enumerate_ball and every listdec
    # kernel read the radius-s ball through rankmetric._ball, which keeps
    # the most recently used ones under a size budget, and nothing else
    # may make the record, lay the ball out, pack it, or fill its offset
    # set or its bitset, but enumerate_ball, which reads the runs of a
    # ball too large to keep as they are laid out.  Only the one layout
    # builder, _ball_layout, walks the span tables with their factors;
    # the bitset reads the span tables of dimension s alone.
    # _packed is the one per-entry sum: the layout's entries are read by
    # _read for it alone, and the packed offsets, the odd-p offset set and
    # the odd-p tally, by center or by coset, all sum their reads through it
    builders = {
        "_ball_layout": {"rankmetric.py:_Ball.layout", "rankmetric.py:enumerate_ball"},
        "_ball_bits": {"rankmetric.py:_Ball.bits"},
        "_Ball": {"rankmetric.py:_BallMemo.__call__"},
        "_packed": {
            "rankmetric.py:_Ball.packed",
            "rankmetric.py:_Ball.probes",
            "listdec.py:_tally",
        },
        "_read": {"rankmetric.py:_packed"},
        "_span_tables": {"rankmetric.py:_ball_layout", "rankmetric.py:_ball_bits"},
        "_factor_columns": {"rankmetric.py:_ball_layout"},
    }
    # each part of the ball is a cached_property of _Ball, built on first
    # read and kept by the record itself, so no code writes one
    tree = ast.parse((SOURCE / "rankmetric.py").read_text(encoding="utf-8"))
    (ball,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Ball"]
    methods = {
        node.name: [ast.unparse(dec) for dec in node.decorator_list]
        for node in ball.body
        if isinstance(node, ast.FunctionDef)
    }
    assert methods == {"__init__": [], **{part: ["cached_property"] for part in BALL_PARTS}}
    writers = {part: set() for part in BALL_PARTS}
    # the bitset is built without the layout, and the dense add reads the
    # bitset alone
    layout_readers = {"_ball_layout", "_factor_columns", "_packed", "_read", "packed", "layout", "probes"}
    bitset_builders = {
        "rankmetric.py:_Ball.bits", "rankmetric.py:_ball_bits", "listdec.py:_counters",
    }
    found, readers, sums = [], {name: set() for name in builders}, set()
    for path, tree in parsed_modules():
        for scope, node in scoped_nodes(tree):
            where = f"{path.name}:{scope}"
            # no other sum of reads runs over zipped tables, but the one that
            # adds the base-q windows of a scaled value, which reads no ball entry
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "map" and ast.unparse(node.args[0]) == "sum":
                sums.add(where)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if node.attr in writers and where not in writers[node.attr]:
                    found.append(f"{where}:{node.lineno} {node.attr} written")
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            ref = node.id if isinstance(node, ast.Name) else node.attr
            if ref in builders:
                readers[ref].add(where)
            if ref in layout_readers and where in bitset_builders:
                found.append(f"{where}:{node.lineno} {ref} read by the bitset")
    assert found == []
    assert readers == builders
    assert sums == {"rankmetric.py:_packed", "rankmetric.py:_Encoder.scaled"}


MUTATORS = {"clear", "update", "setdefault", "pop", "popitem", "append", "extend", "add", "insert"}


def test_the_ball_memo_is_the_one_module_level_cache():
    # the ball memo is the one piece of state a list-count or a ball
    # enumeration leaves behind: in listdec and rankmetric no module-level
    # name is written by a function, no function memoizes its results,
    # and the one module-level object made by a call is rankmetric._ball,
    # a _BallMemo; the parts of each ball it keeps are cached on that record
    decorators, made = [], []
    for name in ("listdec.py", "rankmetric.py"):
        tree = ast.parse((SOURCE / name).read_text(encoding="utf-8"))
        module_names = {
            target.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        written = set()
        for scope, node in scoped_nodes(tree):
            if not scope:
                continue
            if isinstance(node, ast.Global):
                written.update(node.names)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                written.add(getattr(node.value, "id", None))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                written.add(getattr(node.func.value, "id", None))
        assert written & module_names == set(), name
        decorators += [
            (f"{name}:{scope}.{node.name}" if scope else f"{name}:{node.name}", ast.unparse(dec))
            for scope, node in scoped_nodes(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for dec in node.decorator_list
        ]
        made += [
            f"{name}:{ast.unparse(node)}"
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        ]
    assert sorted(dec for dec in decorators if "cache" in dec[1]) == sorted(
        (f"rankmetric.py:_Ball.{part}", "cached_property") for part in BALL_PARTS
    )
    assert made == ["rankmetric.py:_ball = _BallMemo()"]
    # the memo is called and emptied, nothing else; every method that
    # changes its table holds its one lock
    tree = ast.parse((SOURCE / "rankmetric.py").read_text(encoding="utf-8"))
    (memo,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_BallMemo"]
    methods = {node.name: node for node in memo.body if isinstance(node, ast.FunctionDef)}
    assert set(methods) == {"__init__", "__call__", "cache_clear"}
    assert "Lock()" in ast.unparse(methods["__init__"])
    for method in ("__call__", "cache_clear"):
        (body,) = methods[method].body[-1:]
        assert isinstance(body, ast.With) and ast.unparse(body.items[0]) == "self._lock", method
        assert all("_kept" not in ast.unparse(node) for node in methods[method].body[:-1]), method


def test_only_the_ball_reader_names_the_ball_slot():
    # a route is priced from its call alone, never from what an earlier
    # call left in the memo: no function reads the memo's state or what a
    # ball has built so far, and the route picker never reads the ball
    tree = ast.parse((SOURCE / "listdec.py").read_text(encoding="utf-8"))
    peeks = {"cache_info", "cache_clear", "cache_parameters", "__wrapped__", "__dict__", "vars"}
    found = [
        f"{scope}:{node.lineno}"
        for scope, node in scoped_nodes(tree)
        if (getattr(node, "id", None) or getattr(node, "attr", None)) in peeks
    ]
    assert found == []
    readers = {
        scope.split(".")[0]
        for scope, node in scoped_nodes(tree)
        if scope and isinstance(node, ast.Name) and node.id == "_ball"
    }
    assert "_route" not in readers
    # nor does enumerate_ball, or any other function of the package: only
    # _BallMemo names its table and total, _ball is only ever called (and
    # defined once), and only the _Record base, which _Ball does not
    # derive from, reads an instance's or a class's dict
    names, named, dicts, modules = [], [], [], parsed_modules()
    for path, tree in modules:
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for scope, node in scoped_nodes(tree):
            ref = getattr(node, "id", None) or getattr(node, "attr", None)
            where = f"{path.name}:{scope}"
            if ref in ("_kept", "_total") and not scope.startswith("_BallMemo."):
                names.append(f"{where}:{node.lineno}")
            if ref == "_ball" and id(node) not in called:
                named.append(f"{where}:{ast.unparse(node)}:{type(node.ctx).__name__}")
            if ref in ("vars", "__dict__"):
                dicts.append(where)
    assert names == []
    assert named == ["rankmetric.py::_ball:Store"]
    assert sorted(set(dicts)) == ["rankmetric.py:_Record.__init__", "rankmetric.py:_Record.__init_subclass__"]
    classes = [node for _, tree in modules for node in tree.body if isinstance(node, ast.ClassDef)]
    (ball,) = [node for node in classes if node.name == "_Ball"]
    assert ball.bases == []


def test_one_picker_reads_the_route_prices_and_one_call_asks_it():
    # every route choice is made in one place: only _route reads _PRICES
    # (the module level only defines it), and max_list_size is the one
    # caller of _route
    found, callers = [], []
    for path, tree in parsed_modules():
        for scope, node in scoped_nodes(tree):
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            ref = node.id if isinstance(node, ast.Name) else node.attr
            defined = scope == "" and isinstance(node.ctx, ast.Store)
            if ref == "_PRICES" and scope != "_route" and not defined:
                found.append(f"{path.name}:{scope}:{node.lineno}")
            if ref == "_route":
                callers.append(f"{path.name}:{scope}")
    assert found == []
    assert callers == ["listdec.py:max_list_size"]


def test_no_test_writes_the_route_prices():
    # a test forces a route at the one seam, by patching listdec._route, so
    # a refit of the prices cannot un-force it: no test module names
    # _PRICES, but the route oracles of helpers.py, which import it and
    # read its items
    found, reads = [], 0
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        oracle = path.name == "helpers.py"
        items = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "items"}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                named = node.name == "_PRICES" and not oracle
            elif isinstance(node, (ast.Name, ast.Attribute)):
                ref = node.id if isinstance(node, ast.Name) else node.attr
                named = ref == "_PRICES" and not (oracle and id(node) in items)
                reads += ref == "_PRICES" and not named
            elif isinstance(node, ast.Call):
                named = any(isinstance(arg, ast.Constant) and arg.value == "_PRICES" for arg in node.args)
            else:
                continue
            if named:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    # the rule has something to hold: the oracles do read the prices
    assert reads > 0


def test_every_private_helper_is_used():
    # a helper that loses its last caller goes with it, so a replaced
    # kernel cannot linger as dead code; a reference from inside the
    # helper's own body (recursion) does not count
    modules = parsed_modules()
    private = {
        (path.name, node.name)
        for path, tree in modules
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = set()
    for path, tree in modules:
        for scope, node in scoped_nodes(tree):
            if isinstance(node, ast.Name):
                ref = node.id
            elif isinstance(node, ast.Attribute):
                ref = node.attr
            else:
                continue
            own = (path.name, ref) in private and scope.split(".")[0] == ref
            if not own:
                used.add(ref)
    assert sorted(f"{module}:{name}" for module, name in private if name not in used) == []


def test_only_the_coset_keys_compute_a_coset_least_vector():
    # the coset check reads its representatives from max_list_size:
    # harness reduces no coset of its own, so it builds no echelon form and
    # walks no flatten_vector coordinates
    banned = {"rref_fq", "_echelon", "flatten_vector", "unflatten_vector"}
    tree = ast.parse((SOURCE / "harness.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        ref = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if ref in banned:
            found.append(f"harness.py:{node.lineno} {ref}")
    assert found == []


def test_one_path_to_the_coset_answer():
    # the coset check answers through max_list_size alone: harness takes
    # nothing else from listdec, and no module but listdec names the coset
    # keys
    found, imported = [], []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "listdec" and path.name == "harness.py":
                imported += [alias.name for alias in node.names]
            ref = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if ref == "_CosetKeys" and path.name != "listdec.py":
                found.append(f"{path.name}:{node.lineno}")
    assert imported == ["max_list_size"]
    assert found == []


def test_no_module_starts_a_process_pool():
    # every route and every ensemble trial runs in this process: no module
    # imports the pool machinery or names an executor or a pool (and
    # harness takes only max_list_size from listdec, pinned above)
    found = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            else:
                ref = getattr(node, "id", None) or getattr(node, "attr", None)
                names = [ref] if isinstance(ref, str) else []
            pool = ("concurrent", "multiprocessing")
            if any(name.partition(".")[0] in pool or name.endswith(("Executor", "Pool")) for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_byte_slot_form_has_one_owner():
    # odd-p sums run as base-p digits, one per byte: only the methods of
    # rankmetric._Encoder turn a sum into its bytes or reduce them
    # (int.to_bytes, bytes.translate, the .mod table), and only
    # rankmetric._fits compares a digit sum with the byte limit (p <= 127 is its two-digit form; the p = 2 window
    # masks ``& 255`` are no sum)
    found = []
    for name in ("listdec.py", "rankmetric.py"):
        for scope, node in scoped_nodes(ast.parse((SOURCE / name).read_text(encoding="utf-8"))):
            where = f"{name}:{scope}"
            if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "translate", "mod"):
                if not where.startswith("rankmetric.py:_Encoder."):
                    found.append(f"{where}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.Compare) and where != "rankmetric.py:_fits":
                limits = {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant)} & {127, 255}
                if limits:
                    found.append(f"{where}:{node.lineno} compares with {sorted(limits)}")
    assert found == []


def test_every_uniform_draw_comes_from_the_draw_stream():
    # ``rng.draws`` consumes the generator exactly as ``randrange`` does,
    # with no Python frame per draw: no module calls ``randrange``, and
    # only rng.py reads ``getrandbits``
    def names(tree):
        for node in ast.walk(tree):
            ref = getattr(node, "id", None) or getattr(node, "attr", None)
            if ref in ("randrange", "getrandbits"):
                yield ref, node.lineno

    found = {
        f"{path.name}:{line} {ref}"
        for path, tree in parsed_modules()
        for ref, line in names(tree)
        if ref == "randrange" or path.name != "rng.py"
    }
    assert found == set()
    rng = ast.parse((SOURCE / "rng.py").read_text(encoding="utf-8"))
    assert "getrandbits" in {ref for ref, _ in names(rng)}


# each argument rule of the package, its refusal text, its one owner, and
# the functions that call it
ARGUMENT_RULES = {
    "length": (
        r"need 1 <= n <= m",
        "rankmetric.py:_check_length",
        {
            "rankmetric.py:RankVector.__init__", "rankmetric.py:iter_all_vectors", "rankmetric.py:_check_geometry",
            "codes.py:LinearCode.__post_init__", "codes.py:GabidulinCode.__post_init__",
            "codes.py:sample_random_code", "codes.py:sample_random_linear_code", "harness.py:threshold_probe",
        },
    ),
    "radius": (
        r"need 0 <= \S+ <= n,",
        "rankmetric.py:_check_radius",
        {
            "rankmetric.py:count_rank_u", "rankmetric.py:_ball_size", "rankmetric.py:enumerate_ball",
            "listdec.py:pigeonhole_lower_bound", "listdec.py:pigeonhole_loose_form", "listdec.py:list_size_at",
            "listdec.py:max_list_size", "harness.py:EnsembleSpec.__post_init__",
            "harness.py:coset_partition_check", "bounds.py:singleton_max_log_size", "bounds.py:hamming_check",
            "codes.py:GabidulinCode.__post_init__",
        },
    ),
    "membership": (
        r"context mismatch",
        "rankmetric.py:_check_member",
        {
            "rankmetric.py:RankVector._entrywise",
            "codes.py:ExplicitCode.__post_init__", "codes.py:LinearCode.__post_init__", "listdec.py:list_size_at",
        },
    ),
    "word cap": (
        r"\bwords\b.*above the cap",
        "codes.py:_check_word_cap",
        {"codes.py:_packed_words", "listdec.py:max_list_size", "harness.py:run_ensemble", "cli.py:_cmd_sample"},
    ),
    "pair cap": (
        r"pairs.*above the cap",
        "codes.py:_check_pair_cap",
        {"codes.py:min_rank_distance", "listdec.py:_route"},
    ),
    "space cap": (
        r"ambient space, above the cap of .*; use montecarlo",
        "rankmetric.py:_check_space",
        {"rankmetric.py:enumerate_ball", "listdec.py:max_list_size", "harness.py:coset_partition_check"},
    ),
    "count": (
        r"must be at least 1\b",
        "rankmetric.py:_check_count",
        {
            "bounds.py:code_rate", "bounds.py:hamming_check", "bounds.py:singleton_max_log_size",
            "codes.py:ExplicitCode.__post_init__", "codes.py:GabidulinCode.__post_init__",
            "listdec.py:pigeonhole_lower_bound", "listdec.py:pigeonhole_loose_form",
            "listdec.py:max_list_size", "listdec.py:is_list_decodable", "harness.py:EnsembleSpec.__post_init__",
            "harness.py:run_ensemble", "cli.py:_cmd_listdecode",
        },
    ),
    "unit interval": (
        r"must lie in \[0, 1\]",
        "rankmetric.py:_check_unit",
        {
            "bounds.py:gv_alpha_lower", "bounds.py:alpha_exact", "bounds.py:singleton_barrier",
            "bounds.py:gv_barrier", "bounds.py:emit_barrier_curves", "listdec.py:radius_from_fraction",
            "harness.py:EnsembleSpec.__post_init__",
        },
    ),
}


def test_each_argument_rule_has_one_owner():
    # the length 1 <= n <= m, the radius 0 <= s <= n, vectors of one
    # F_{q^m}^n, the word cap, the pair cap, the space cap q^(mn) <= cap,
    # a count >= 1 and the unit interval [0, 1] are each refused in one
    # place, with one message: no other string of the package spells the
    # refusal, and every site that checks it calls the owner
    texts = {rule: set() for rule in ARGUMENT_RULES}
    callers = {rule: set() for rule in ARGUMENT_RULES}
    owners = {owner.partition(":")[2]: rule for rule, (_, owner, _) in ARGUMENT_RULES.items()}
    for path, tree in parsed_modules():
        for scope, node in scoped_nodes(tree):
            where = f"{path.name}:{scope}"
            if isinstance(node, ast.JoinedStr) or isinstance(node, ast.Constant) and isinstance(node.value, str):
                for rule, (pattern, _, _) in ARGUMENT_RULES.items():
                    if re.search(pattern, ast.unparse(node)):
                        texts[rule].add(where)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in owners:
                callers[owners[node.func.id]].add(where)
    assert texts == {rule: {owner} for rule, (_, owner, _) in ARGUMENT_RULES.items()}
    assert callers == {rule: sites for rule, (_, _, sites) in ARGUMENT_RULES.items()}
    # the space q^(mn) is compared with a cap in _space_fits alone: the
    # refusal and the ensemble's choice of exhaustive trials both ask it
    compared, asking = set(), set()
    for path, tree in parsed_modules():
        for scope, node in scoped_nodes(tree):
            where = f"{path.name}:{scope}"
            inside = list(ast.walk(node)) if isinstance(node, ast.Compare) else []
            power = any(isinstance(part, ast.BinOp) and isinstance(part.op, ast.Pow) for part in inside)
            space = power or any(isinstance(part, ast.Name) and part.id == "space" for part in inside)
            if space and any(isinstance(part, ast.Name) and part.id == "cap" for part in inside):
                compared.add(where)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_space_fits":
                asking.add(where)
    assert compared == {"rankmetric.py:_space_fits"}
    assert asking == {"rankmetric.py:_check_space", "harness.py:run_ensemble"}


CODEC = {"_entries_of_index", "_index_of_entries"}
# the codec's own digit loop, and the three digit steps that are no plain
# conversion: each adds or shifts a digit as it reads it and stops after
# the last nonzero one
DIGIT_LOOPS = {
    "fields.py:_entries_of_index", "fields.py:_digitwise_mod_p",
    "rankmetric.py:_shifter.shift", "listdec.py:_translator.move",
}


def test_fields_owns_the_one_digit_codec():
    # an int and its base-b digits convert in one place, most significant
    # digit first; a little-endian caller reverses the tuple rather than
    # writing a second loop, and every other module imports the pair from
    # .fields
    defined, naming, importing, sources, loops = set(), set(), set(), set(), set()
    for path, tree in parsed_modules():
        in_loops = {id(sub) for node in ast.walk(tree) if isinstance(node, LOOPS) for sub in ast.walk(node)}
        for scope, node in scoped_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in CODEC:
                defined.add(f"{path.name}:{node.name}")
            if isinstance(node, ast.Name) and node.id in CODEC:
                naming.add(path.name)
            if isinstance(node, ast.ImportFrom) and CODEC & {alias.name for alias in node.names}:
                importing.add(path.name)
                sources.add("." * node.level + (node.module or ""))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod" and id(node) in in_loops:
                loops.add(f"{path.name}:{scope}")
    assert defined == {f"fields.py:{name}" for name in CODEC}
    assert sources == {".fields"}
    assert importing == naming - {"fields.py"}
    assert loops == DIGIT_LOOPS


# the four conversions of a vector to and from its F_q coordinates, and the
# code file's coordinate blocks
COORDINATE_USERS = {
    "rankmetric.py:vector_to_matrix", "rankmetric.py:matrix_to_vector",
    "rankmetric.py:flatten_vector", "rankmetric.py:unflatten_vector",
    "codefile.py:_format_vector", "codefile.py:_parse_vector",
}


def test_only_the_coordinate_conversions_read_coordinates_constant_term_first():
    # ext_to_vec and vec_to_ext spell an element constant term first, the
    # codec reversed; a rank or a key reads the codec's digits as they come
    users = set()
    for path, tree in parsed_modules():
        for scope, node in scoped_nodes(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("ext_to_vec", "vec_to_ext"):
                users.add(f"{path.name}:{scope}")
    assert users == COORDINATE_USERS
