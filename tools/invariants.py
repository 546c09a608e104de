"""The design rules of ``src/wordmap`` as checks, one function per rule.

Each check returns the places that break its rule, an empty list when the
package keeps it, and its docstring says what those places are::

    python tools/invariants.py one_field_table

runs one check and exits 1 listing them.  CI runs each check as a step
named after its rule, with a comment on the decision it guards, and
``tests/test_invariants.py`` runs them all in tier-1.  The checks read the
files under ``PACKAGE``, each parsed once and walked once; the two probes,
``one_plane_format`` and ``no_unsteerable_seed``, import the library
instead, so it must be importable (``PYTHONPATH=src``).  Standard library
only.
"""

import argparse
import ast
import functools
import importlib
import inspect
import pathlib
import re
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wordmap"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = FUNCTIONS + (ast.ClassDef,)
# the functions whose answer no seed can steer
UNSEEDED = {
    "factor": ["factor", "_factor_finite", "_factor_rationals"],
    "matrices": ["generalized_jordan_form"],
    "reduction": ["plan", "solve_blockwise"],
    "commutators": ["_factor_two_canonical", "_canonical_2x2",
                    "_quadratic_roots", "_factorization_tasks"],
    "diagonal": ["invertible_jordan_decompose", "small_nilpotent_decompose",
                 "_real_even_even", "_sum_of_two_squares_2x2",
                 "_two_squares_2x2", "_matrix_kth_root"],
}


def _files(modules=None):
    """(file, module, text) for the named modules, or every source file
    under PACKAGE: its path relative to PACKAGE and its dotted name."""
    paths = (sorted(PACKAGE.rglob("*.py")) if modules is None
             else [PACKAGE / f"{module}.py" for module in modules])
    for path in paths:
        rel = path.relative_to(PACKAGE)
        yield rel.as_posix(), ".".join(rel.with_suffix("").parts), path.read_text()


@functools.lru_cache(maxsize=16)
def _parse(text):
    """The tree of ``text`` and each node below it with the function and
    class nodes around it, outermost first; cached by the text itself."""
    tree = ast.parse(text)
    nodes, todo = [], [(tree, ())]
    while todo:
        node, scope = todo.pop()
        for child in ast.iter_child_nodes(node):
            nodes.append((child, scope))
            todo.append((child, scope + (child,) if isinstance(child, SCOPES) else scope))
    return tree, nodes


def _scan(modules=None):
    """(file, module, node, scope) for every node of the files."""
    for file, module, text in _files(modules):
        for node, scope in _parse(text)[1]:
            yield file, module, node, scope


def _where(module, scope):
    return ".".join([module] + [s.name for s in scope])


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _grep(pattern, keep=lambda file: True):
    """file:line of each line that matches ``pattern``, as ``grep -nE``."""
    return [f"{file}:{number}" for file, _, text in _files() if keep(file)
            for number, line in enumerate(text.split("\n"), 1) if re.search(pattern, line)]


def _outside(allowed, hit, depth=None):
    """The scopes, other than ``allowed``, of the nodes where ``hit`` holds;
    ``depth`` cuts a scope to its outermost names."""
    return sorted({_where(module, scope[:depth]) for _, module, node, scope in _scan()
                   if hit(node)} - {allowed})


def no_assertion_error():
    """raise or except AssertionError"""
    return _grep(r"(raise|except) AssertionError")


def jordan_fields_chosen_in_reduction():
    """trusted working fields built outside reduction"""
    allowed = {"per_solve": "reduction.working_field", "_per_solve": "fields._interned_field"}
    return sorted(f"{kw.arg}= in {_where(module, scope)}" for _, module, node, scope in _scan()
                  if isinstance(node, ast.Call) for kw in node.keywords
                  if kw.arg in allowed and allowed[kw.arg] != _where(module, scope))


def q_factors_certified():
    """a certified flag or a partial rational-root path over Q"""
    return _grep(r"\.certified|certified=|FactorizationUnavailable"
                 r"|(^|[^A-Za-z0-9_])_(rational_roots|divisors|root_bound)\(")


def one_polynomial_kernel():
    """a second modular kernel or irreducibility test"""
    return _grep(r"_zmul|_zsub|_zprod|_zdivmod|_irreducible_over_prime")


def extension_arithmetic_on_base_kernel():
    """loops in Field._install_ext_ops, or no such method"""
    nodes = [(node, [s.name for s in scope]) for _, _, node, scope in _scan(["fields"])]
    if not any(isinstance(node, ast.FunctionDef) and node.name == "_install_ext_ops"
               and names == ["Field"] for node, names in nodes):
        return ["fields.Field._install_ext_ops"]
    return sorted(f"fields.py:{node.lineno}" for node, names in nodes
                  if names[:2] == ["Field", "_install_ext_ops"]
                  and isinstance(node, (ast.For, ast.While)))


def one_kth_root_algorithm():
    """a second k-th root route in fields.py or scalars.py"""
    return _grep(r"_roots_by_gcd|_sqrt_odd_finite|_equal_degree|Random\(0\)",
                 lambda file: file in ("fields.py", "scalars.py"))


def one_scalar_search():
    """except Unsupported outside scalars._power_sum_solutions"""
    def names(node):
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        return [_name(node)]
    return _outside("scalars._power_sum_solutions",
                    lambda node: isinstance(node, ast.ExceptHandler) and node.type is not None
                    and "Unsupported" in names(node.type), depth=1)


def one_binary_power():
    """binary powering outside fields._binary_power"""
    return _outside("fields._binary_power", lambda node: isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.RShift))


def one_field_table():
    """Field('prime'/'ext'/'rationals') outside fields._interned_field"""
    def kind(call):
        args = call.args[:1] + [k.value for k in call.keywords if k.arg == "kind"]
        return getattr(args[0], "value", None) if args else None
    return _outside("fields._interned_field", lambda node: isinstance(node, ast.Call)
                    and _name(node.func) == "Field"
                    and kind(node) in ("prime", "ext", "rationals"))


def fraction_internals_in_one_place():
    """Fraction's private slots used outside rationals._rational"""
    def private(node):
        name = (getattr(node, "attr", None) or getattr(node, "id", None)
                or getattr(node, "arg", None) or getattr(node, "value", None))
        return isinstance(name, str) and name in ("_numerator", "_denominator")
    return _outside("rationals._rational", private)


def one_whole_space_kernel():
    """a per-matrix walk over a matrix space outside fields.py"""
    return _grep(r"\.rows\(\)|itertools\.product\(",
                 lambda file: pathlib.PurePosixPath(file).name != "fields.py")


def one_plane_format():
    """fields with a space whose planes are not bytes, or past 256 elements"""
    from wordmap.errors import TooLarge
    from wordmap.fields import parse_field_spec
    from wordmap.matrices import MatrixSpace
    bad = set()
    try:
        MatrixSpace(parse_field_spec("Fp:257"), 1)
        bad.add("Fp:257")
    except TooLarge:
        pass
    primes = [p for p in range(2, 257) if all(p % d for d in range(2, p))]
    cells = [(f"Fp:{p}", 1) for p in primes] + [(f"Fp:{p}", 2) for p in primes if p < 17]
    cells += [("Fq:p=3,d=2,mod=[2,2,1]", 2), ("Fq:p=2,d=8,mod=[1,0,1,1,1,0,0,0,1]", 1)]
    for spec, n in cells:
        space = MatrixSpace(parse_field_spec(spec), n)
        whole = space.planes()
        X = space.select(whole, range(0, space.size, 3))
        made = (whole + X + next(space.blocks(space.q)) + space.power(X, 3)
                + [space.add(X[0], X[-1]), space.shift(X[0], space.one),
                   space.scale(X[0], space.q - 1), space.lincomb([], len(X[0]))])
        bad.update(spec for plane in made if type(plane) is not bytes)
    return sorted(bad)


def no_unsteerable_seed():
    """functions that take a seed they cannot use"""
    return [f"{module}.{name}" for module, names in UNSEEDED.items() for name in names
            if "seed" in inspect.signature(
                getattr(importlib.import_module("wordmap." + module), name)).parameters]


def one_commutator_gate():
    """functions that call trace_zero_to_commutator"""
    return sorted({_where(module, scope) for _, module, node, scope in _scan()
                   if isinstance(node, ast.Call) and _name(node.func) == "trace_zero_to_commutator"
                   and any(isinstance(s, FUNCTIONS) for s in scope)})


# the commutators.py functions where the kinds really compute differently:
# numeric roots, the float bits of inverses, and the association of products
EXACTNESS_READERS = ("_quadratic_roots", "_factor_two_canonical", "_factorization_tasks",
                     "_zero_diagonalize", "solve_commutator_product")


def structured_products_in_the_kernel():
    """exactness read in commutators.py outside the functions that need it"""
    return sorted({_where(module, scope[:1]) for _, module, node, scope in _scan(["commutators"])
                   if isinstance(node, ast.Attribute) and node.attr in ("is_exact", "exact")}
                  - {f"commutators.{name}" for name in EXACTNESS_READERS})


# the public gates of commutators.py and diagonal.py, and the re-checks
# whose failure selects a route or the next candidate
GATES = ("commutators.factor_two_trace_zero", "commutators.trace_zero_to_commutator",
         "commutators._solve_partner", "diagonal._check_two_term",
         "diagonal.small_nilpotent_decompose", "diagonal.bordered_solve",
         "diagonal._two_squares_2x2", "diagonal._block_kth_root")


def one_gate_per_entry_point():
    """product or power re-checks in commutators.py and diagonal.py outside
    the public gates and the route-selecting sites"""
    return sorted({_where(module, scope[:1]) for _, module, node, scope
                   in _scan(["commutators", "diagonal"]) if isinstance(node, ast.Call)
                   and _name(node.func) in ("allclose", "_check_two_term")} - set(GATES))


def one_fallback_mechanism():
    """try statements outside errors.first_route in the solvers and in
    matrices.generalized_jordan_form"""
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    return sorted(f"{file}:{node.lineno}" for file, module, node, scope
                  in _scan(["diagonal", "commutators", "matrices"]) if isinstance(node, tries)
                  and (module != "matrices"
                       or _where(module, scope[:1]) == "matrices.generalized_jordan_form"))


def product_chains():
    """kernel products nested in a kernel product"""
    def is_matmul(node):
        return isinstance(node, ast.Call) and _name(node.func) == "matmul"
    return sorted(f"{file}:{node.lineno}" for file, _, node, _ in _scan() if is_matmul(node)
                  and any(is_matmul(inner) for arg in node.args + [k.value for k in node.keywords]
                          for inner in ast.walk(arg)))


def one_container_format():
    """a container that unwraps or skips its checks"""
    return _grep(r"\._raw\(\)|def _raw\(|_unchecked")


def _imports(module):
    """The modules that ``module`` imports at module level, by dotted name:
    ``wordmap.x`` for the package's own (``from . import x`` included)."""
    for _, _, node, scope in _scan([module]):
        if scope:
            continue
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["wordmap" if node.level else "", node.module]))
            yield from ([f"{base}.{a.name}" for a in node.names] if base == "wordmap" else [base])


def _package_imports(module):
    return [name.split(".")[1] for name in _imports(module) if name.startswith("wordmap.")]


def import_only_what_is_called():
    """module-level imports of what a call may not need"""
    return ([f"__init__.py imports .{m}" for m in _package_imports("__init__")]
            + [f"cli.py imports .{m}" for m in _package_imports("cli")
               if m in ("commutators", "diagonal", "counting")])


def _eager_modules():
    """The modules set-up loads, ``import wordmap`` and a field spec:
    ``__init__`` and ``fields`` and, in turn, the package modules that an
    eager module imports at module level."""
    eager, todo = [], ["__init__", "fields"]
    while todo:
        module = todo.pop()
        if module not in eager:
            eager.append(module)
            todo += _package_imports(module)
    return sorted(eager)


def light_eager_imports():
    """module-level imports of dataclasses or fractions in the modules that
    set-up loads"""
    return [f"{module}.py imports {name}" for module in _eager_modules()
            for name in _imports(module) if name.split(".")[0] in ("dataclasses", "fractions")]


def lru_caches():
    """{site: bounded} for each functools.lru_cache in the package, as a
    decorator or as lru_cache(...)(f), the site being the dotted name of
    the function it wraps: bounded when that function takes no parameters
    or the cache names an int maxsize, a literal or a module constant."""
    def is_lru(node):
        return _name(node.func if isinstance(node, ast.Call) else node) == "lru_cache"

    def bounded(fn, cache, ints):
        a = fn.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            return True
        if not isinstance(cache, ast.Call):
            return False
        size = next((k.value for k in cache.keywords if k.arg == "maxsize"),
                    cache.args[0] if cache.args else None)
        return type(ints.get(size.id) if isinstance(size, ast.Name)
                    else getattr(size, "value", None)) is int

    sites = {}
    for _, module, text in _files():
        tree, nodes = _parse(text)
        ints = {t.id: node.value.value for node in tree.body
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int
                for t in node.targets if isinstance(t, ast.Name)}
        defs = {node.name: (node, _where(module, scope + (node,)))
                for node, scope in nodes if isinstance(node, FUNCTIONS)}
        wrapped = []
        for node, scope in nodes:
            if isinstance(node, FUNCTIONS):
                wrapped += [(node, _where(module, scope + (node,)), dec)
                            for dec in node.decorator_list if is_lru(dec)]
            elif isinstance(node, ast.Call) and is_lru(node.func) and node.args:
                # lru_cache(...)(f), or lru_cache(f) with the default size
                cache = node.func if isinstance(node.func, ast.Call) else None
                f = node.args[0]
                if isinstance(f, ast.Lambda):
                    wrapped.append((f, _where(module, scope) + ".<lambda>", cache))
                elif getattr(f, "id", None) in defs:
                    wrapped.append((*defs[f.id], cache))
        for fn, site, cache in wrapped:
            sites[site] = sites.get(site, True) and bounded(fn, cache, ints)
    return sites


def bounded_caches():
    """lru_caches without an int maxsize"""
    return sorted(site for site, ok in lru_caches().items() if not ok)


CHECKS = {check.__name__: check for check in (
    no_assertion_error, jordan_fields_chosen_in_reduction, q_factors_certified,
    one_polynomial_kernel, extension_arithmetic_on_base_kernel, one_kth_root_algorithm,
    one_scalar_search, one_binary_power, one_field_table, fraction_internals_in_one_place,
    one_whole_space_kernel, one_plane_format, no_unsteerable_seed, one_commutator_gate,
    one_gate_per_entry_point, structured_products_in_the_kernel, one_fallback_mechanism, product_chains,
    one_container_format, import_only_what_is_called, light_eager_imports, bounded_caches)}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one design check on src/wordmap.")
    parser.add_argument("check", choices=CHECKS)
    check = CHECKS[parser.parse_args(argv).check]
    found = check()
    if found:
        sys.exit(f"{check.__name__}: {check.__doc__}:\n  " + "\n  ".join(found))


if __name__ == "__main__":
    main()
