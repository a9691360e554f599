"""Source-level rules for the library modules."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src" / "thetatool"
LIBRARY = ("__init__.py", "cli.py", "liealg.py", "linalg.py", "nilcomp.py",
           "restricted.py", "rootsys.py", "satake.py", "verify.py", "weylinv.py")


def _library() -> dict:
    """The text of each library module, by file name.  Every rule below
    reads the library through here, and the ten modules must all be found,
    so that no rule passes on an empty or partial glob (say, from a copy of
    this file in another directory)."""
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    missing = sorted(set(LIBRARY) - set(texts))
    assert not missing, f"library modules not found under {SRC}: {', '.join(missing)}"
    return texts


def _trees() -> dict:
    """The parsed library modules, by file name."""
    return {fname: ast.parse(text, filename=fname) for fname, text in _library().items()}


def test_no_bare_assert_in_library():
    """`assert` vanishes under `python -O`; checks must raise typed errors."""
    found = []
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{fname}:{node.lineno}")
    assert not found, f"bare assert in {', '.join(found)}"


def test_only_linalg_constructs_fractions():
    """The library is integer-only, ``linalg`` included: no module imports
    ``fractions`` or names ``Fraction``, by name, as an attribute or in an
    import."""
    found = []
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if {"fractions", "Fraction"} & set(names):
                found.append(f"{fname}:{node.lineno}")
    assert not found, f"fractions used in {', '.join(found)}"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_names(func: ast.AST) -> set:
    """The names a function binds itself: its arguments and every name it
    assigns, outside the functions nested in it."""
    bound = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return bound


def _referenced_names(node: ast.AST, local: frozenset = frozenset()) -> Counter:
    """Names and attributes used under ``node``.  A bare name bound in an
    enclosing function is that function's local variable, not a use of a
    library function of the same name."""
    if isinstance(node, _SCOPES):
        local = local | _bound_names(node)
    names = Counter()
    if isinstance(node, ast.Name) and node.id not in local:
        names[node.id] += 1
    elif isinstance(node, ast.Attribute):
        names[node.attr] += 1
    for child in ast.iter_child_nodes(node):
        names.update(_referenced_names(child, local))
    return names


def test_every_library_function_is_used():
    """Each function or method in the library is referenced by name outside
    its own body or exported in ``__all__``: code that only tests call
    belongs in ``tests/``."""
    trees = _trees()
    refs = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    exported = {
        elt.value
        for node in trees["__init__.py"].body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    defs = [
        (fname, node)
        for fname, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    ]
    unused = [
        f"{fname}:{node.lineno} {node.name}"
        for fname, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exported
        and refs[node.name] == _referenced_names(node)[node.name]
    ]
    assert not unused, f"defined but never used in the library: {', '.join(unused)}"


def _call_name(node: ast.Call):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(node: ast.AST, name: str) -> list:
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and _call_name(n) == name]


def test_library_does_not_eliminate_over_q():
    """The library eliminates over Q nowhere: ``RootSystem.cartan_inverse``
    reads the inverse off the roots.  No module defines or calls
    ``echelon``, ``scaled_inverse`` or ``rank``; ``rootsys`` and ``satake``,
    which reads the split rank off the trace of theta*, do not import
    ``linalg``; and ``linalg`` defines ``LinalgError`` and ``rank_mod_p``
    alone."""
    found = []
    trees = _trees()
    for fname, tree in trees.items():
        for name in ("echelon", "scaled_inverse", "rank"):
            found += [f"{fname}:{call.lineno} {name}()" for call in _calls(tree, name)]
            found += [
                f"{fname}:{node.lineno} def {name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name
            ]
    for fname in ("rootsys.py", "satake.py"):
        found += [
            f"{fname}:{node.lineno} import linalg"
            for node in ast.walk(trees[fname])
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any("linalg" in (alias.name, getattr(node, "module", None)) for alias in node.names)
        ]
    found += [
        f"linalg.py:{node.lineno} def {node.name}"
        for node in ast.walk(trees["linalg.py"])
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in ("LinalgError", "rank_mod_p")
    ]
    assert not found, f"an elimination over Q: {', '.join(found)}"


def test_only_centralizer_dims_eliminates_over_f_p():
    """Over F_p the library eliminates in one place: the ranks of
    ``SymmetricPairRealization.centralizer_dims``.  Nothing else calls
    ``rank_mod_p``, and no module defines or calls ``rref_mod_p`` or
    ``kernel_mod_p``: ``rank_mod_p`` forms no reduced form, and a
    realization reads its eigenspaces off the orbits of dtheta."""
    found = []
    for fname, tree in _trees().items():
        allowed = {
            id(call)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and (fname, node.name) == ("liealg.py", "centralizer_dims")
            for call in ast.walk(node)
        }
        found += [f"{fname}:{call.lineno} rank_mod_p()" for call in _calls(tree, "rank_mod_p")
                  if id(call) not in allowed]
        for name in ("rref_mod_p", "kernel_mod_p"):
            found += [f"{fname}:{call.lineno} {name}()" for call in _calls(tree, name)]
            found += [
                f"{fname}:{node.lineno} def {name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name
            ]
    assert not found, f"a second elimination over F_p: {', '.join(found)}"


def test_one_gram_kernel_per_root_system():
    """``GramKernel(...)`` is constructed only in ``RootSystem`` and
    ``RestrictedRootSystem``, each of which keeps the one it builds; and
    outside ``rootsys.py`` a ``form`` is read only as an argument of that
    construction, so no other module pairs vectors through the form itself."""
    found = []
    for fname, tree in _trees().items():
        owned = {
            id(call)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name in ("RootSystem", "RestrictedRootSystem")
            for call in _calls(cls, "GramKernel")
        }
        found += [
            f"{fname}:{call.lineno} GramKernel(" for call in _calls(tree, "GramKernel")
            if id(call) not in owned
        ]
        if fname == "rootsys.py":
            continue
        handed = {id(arg) for call in _calls(tree, "GramKernel") for arg in call.args}
        found += [
            f"{fname}:{node.lineno} form"
            for node in ast.walk(tree)
            if (getattr(node, "attr", None) == "form" or getattr(node, "id", None) == "form")
            and id(node) not in handed
        ]
    assert not found, f"a second pairing path: {', '.join(found)}"


def test_no_scalar_pairing_methods():
    """The per-vector pairings and the root-tuple structure-constant
    recursion live in ``tests/scalar.py``; the library reads the kernel, the
    coroot array, ``theta_perm`` and the sum and difference tables instead."""
    scalar = {"inner", "norm2", "pair_coroot", "pair_coroot_simple", "coroot_coords",
              "_reflect_vector", "gram_kernel", "theta_star", "_chain_down", "_N",
              "_derive_constant"}
    found = [
        f"{fname}:{node.lineno} {node.name}"
        for fname, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in scalar
    ]
    assert not found, f"scalar pairing method in {', '.join(found)}"


def test_root_lists_are_int64_arrays_only():
    """Each root list is one read-only int64 array, the rows of its
    ``GramKernel``, and each root set a boolean mask over it; roots are
    found by ``kernel.lookup``.  No module calls ``is_root``,
    ``root_index`` or ``act``, reads or stores an ``index`` or ``_index``
    dict, defines ``compact_subsystem``, ``reduced_positive`` or
    ``_is_positive``, or counts rows with a ``Counter``."""
    calls = {"is_root", "root_index", "act"}
    defs = calls | {"compact_subsystem", "reduced_positive", "_is_positive"}
    found = []
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            where = f"{fname}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and _call_name(node) in calls:
                found.append(f"{where} {_call_name(node)}()")
            elif isinstance(node, ast.FunctionDef) and node.name in defs:
                found.append(f"{where} def {node.name}")
            elif isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) in (
                "index", "_index"
            ):
                found.append(f"{where} {node.value.attr}[...]")
            elif isinstance(node, ast.Attribute) and (
                node.attr in ("_index", "compact_subsystem", "reduced_positive", "Counter")
                or (node.attr == "index" and isinstance(node.ctx, ast.Store))
            ):
                found.append(f"{where} .{node.attr}")
            elif isinstance(node, ast.Name) and node.id == "Counter":
                found.append(f"{where} Counter")
            elif isinstance(node, ast.alias) and node.name == "Counter":
                found.append(f"{fname} import Counter")
    assert not found, f"a scalar copy of a root list in {', '.join(found)}"

    from thetatool.restricted import restrict
    from thetatool.satake import catalog_lookup

    inv = catalog_lookup("E", 6, "EIII").satake  # BC2: some roots are multipliable
    rs, rrs = inv.ambient, restrict(inv)
    assert rs.roots is rs.kernel.vectors and rrs.doubled is rrs.kernel.vectors
    for rows in (rs.roots, rrs.doubled, rrs.pi, rrs.multiplicity, rrs.multipliable,
                 inv.compact_roots):
        assert not rows.flags.writeable
    assert rs.roots.dtype == rrs.doubled.dtype == rrs.pi.dtype == np.int64
    assert rrs.multiplicity.dtype == np.int64 and rrs.multiplicity.shape == (len(rrs.doubled),)
    assert rrs.multipliable.dtype == bool and rrs.multipliable.shape == (len(rrs.doubled),)
    assert rrs.multipliable.any()
    assert inv.compact_roots.dtype == bool and inv.compact_roots.shape == (len(rs.roots),)
    assert inv.compact_roots is inv.compact_roots
    assert rrs.pi.shape == (rrs.r, rs.rank)


def test_library_lists_no_weyl_element():
    """The library computes the Weyl group by formula (order from the
    degrees, Poincare polynomial by coset factorization, w_0 by the greedy
    walk, type-A conjugacy by traces); the element-by-element enumerators
    are test oracles and live in ``tests/weylgroup.py``."""
    enumerators = {"permutation_bfs", "enumerate_weyl", "baby_weyl", "BabyWeylGroup",
                   "poincare_from_enumeration", "_conjugacy_search", "reflection_perm"}
    found = [
        f"{fname}:{node.lineno} {node.name}"
        for fname, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in enumerators
    ]
    assert not found, f"Weyl-group enumeration in {', '.join(found)}"


def test_restricted_layer_neither_eliminates_nor_walks_a_graph():
    """``restricted.py`` reads pi-coordinates by one division at the lift
    nodes and factor types from root supports: it imports no ``linalg``
    and keeps no Dynkin-diagram walk."""
    tree = _trees()["restricted.py"]
    found = [
        f"import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "linalg" in (alias.name, getattr(node, "module", None))
    ]
    found += [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("_component_series", "_arm_lengths")
    ]
    assert not found, f"restricted.py still has {', '.join(found)}"


def test_weyl_elements_are_root_index_arrays():
    """A Weyl element in the library is a read-only int64 permutation of
    the root list: no element class, no per-element constructors, no export
    of one, and no central-torus knob beside it."""
    removed = {"WeylElement", "identity_element", "reflection", "simple_reflection",
               "_simple_perms"}
    found = []
    for fname, text in _library().items():
        found += [
            f"{fname}:{node.lineno} {node.name}"
            for node in ast.walk(ast.parse(text, filename=fname))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in removed
        ]
        found += [f"{fname} central_split"] if "central_split" in text else []
    assert not found, f"Weyl element objects in {', '.join(found)}"

    import thetatool
    from thetatool.satake import catalog_lookup

    assert "WeylElement" not in thetatool.__all__
    inv = catalog_lookup("E", 6, "EIII").satake
    rs = inv.ambient
    for w in (inv.theta_perm(), rs.longest_element(), rs.longest_element(inv.compact)):
        assert isinstance(w, np.ndarray) and w.dtype == np.int64 and not w.flags.writeable
        assert sorted(w.tolist()) == list(range(len(rs.roots)))


def test_realization_eigenspaces_are_held_once():
    """A realization's eigenspaces are its ``_rows`` alone: no library
    file names a dense ``k_basis`` or ``p_basis``, or the
    ``check_automorphism`` that ``check_grading`` absorbed, not even in a
    comment."""
    found = [
        f"{fname}:{lineno} {name}"
        for fname, text in _library().items()
        for lineno, line in enumerate(text.splitlines(), 1)
        for name in ("k_basis", "p_basis", "check_automorphism")
        if name in line
    ]
    assert not found, f"second eigenspace representation in {', '.join(found)}"


def test_jacobi_check_joins_one_generator_at_a_time():
    """The Jacobi check's largest block is the join of one simple root
    vector's rows, so the block planner ``_key_ranges`` and its
    ``_BLOCK_ROWS`` are gone from the library, not even named in a
    comment."""
    found = [
        f"{fname}:{lineno} {name}"
        for fname, text in _library().items()
        for lineno, line in enumerate(text.splitlines(), 1)
        for name in ("_key_ranges", "_BLOCK_ROWS")
        if name in line
    ]
    assert not found, f"join blocks in {', '.join(found)}"


def test_polynomials_degrees_and_diagrams_are_int_tuples():
    """A polynomial, a degree multiset and a weighted diagram are tuples of
    ints: no library module defines an ``IntPolynomial``, ``DegreeProfile``
    or ``WeightedDiagram`` class, ``weylinv`` defines no class but
    ``DegreeError``, and the package exports none of them."""
    removed = {"IntPolynomial", "DegreeProfile", "WeightedDiagram"}
    found = sorted({
        f"{fname}:{node.lineno} class {node.name}"
        for fname, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and (node.name in removed or (fname == "weylinv.py" and node.name != "DegreeError"))
    })
    assert not found, f"a wrapper around an int tuple in {', '.join(found)}"

    import thetatool

    assert not removed & set(thetatool.__all__)


def test_only_the_proposition_table_reads_the_components_column():
    """The catalog's ``components`` column is the expected count of
    ``verify proposition``: in the library, only
    ``verify.expected_component_count`` reads a ``.components`` attribute,
    so the computation never consults the column it is checked against."""
    found = []
    for fname, tree in _trees().items():
        allowed = set()
        if fname == "verify.py":
            allowed = {
                id(node)
                for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and func.name == "expected_component_count"
                for node in ast.walk(func)
            }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "components"
                    and id(node) not in allowed):
                found.append(f"{fname}:{node.lineno}")
    assert not found, f"the components column read in {', '.join(found)}"
