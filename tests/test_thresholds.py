"""Source checks on the package: every numeric threshold comes from
tolerances.py, a bound check that raises or records a failure lets no NaN
through, every private module-level name is read somewhere, the
protocol kernel sums short rows only through its column-add helper,
each spin-state quantity (squared norm, n.sigma, barrier transmission,
propagation phase) and the solve routine are defined once, and no value
reader holds a value rule of its own (a bound, a finiteness or a count
test), and a sweep's float columns are written by one route: the text
pass only inside the digit pass, the digit pass only inside the table
writer."""

import ast
import pathlib

import spinscatter

PACKAGE = pathlib.Path(spinscatter.__file__).parent


def test_no_module_but_tolerances_writes_a_tiny_float_literal():
    # a float literal below 1e-6 in magnitude is a threshold written in place
    # of its Tolerances field
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py")
    assert len(modules) > 5
    found = [f"{path.name}:{node.lineno}: {node.value!r}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0 < abs(node.value) < 1e-6]
    assert found == []


def _reads_tol(node):
    return any(isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "TOL"
               for n in ast.walk(node))


def _bound_checks(source):
    """The tests of each if that raises, and the first argument of each add(...)
    call, which _Checks records as True where a point fails."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.If)
                and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))):
            yield node.test
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add" and node.args):
            yield node.args[0]


def _nan_passing_bounds(source):
    """Line numbers of each bound check that holds x > TOL.<field>,
    x >= TOL.<field> or the mirrored TOL.<field> < x, TOL.<field> <= x: a NaN x
    makes every comparison false, so it passes the bound."""
    found = []
    for check in _bound_checks(source):
        for compare in ast.walk(check):
            if not isinstance(compare, ast.Compare):
                continue
            operands = [compare.left, *compare.comparators]
            for op, left, right in zip(compare.ops, operands, operands[1:]):
                if (isinstance(op, (ast.Gt, ast.GtE)) and _reads_tol(right)
                        or isinstance(op, (ast.Lt, ast.LtE)) and _reads_tol(left)):
                    found.append(compare.lineno)
    return sorted(found)


def test_the_nan_check_flags_a_bound_that_nan_passes():
    flagged = """
if x > TOL.a:
    raise ValueError
if y >= 2.0 * TOL.b or z:
    for _ in w:
        raise ValueError
if TOL.c < x:
    raise ValueError
def _check_pair(checks, a, b):
    total = _modulus(a) ** 2 + _modulus(b) ** 2
    checks.add(np.abs(total - 1.0) > TOL.normalization,
               lambda i: f"|a|^2 + |b|^2 must equal 1 (got {total[i]:.12g})")
checks.add(TOL.d <= x | y, "message")
"""
    assert _nan_passing_bounds(flagged) == [2, 4, 7, 11, 13]
    safe = """
if not x <= TOL.a:
    raise ValueError
if not y < 2.0 * TOL.b:
    raise ValueError
if x > TOL.a:
    return None
if x > bound:
    raise ValueError
checks.add(~(np.abs(total - 1.0) <= TOL.normalization), "message")
checks.add(bad, f"above {TOL.a > 0}")
read.add(x)
"""
    assert _nan_passing_bounds(safe) == []


def test_no_bound_check_that_raises_lets_nan_through():
    # written `if not x <= TOL.<field>: raise` or `checks.add(~(x <= TOL.<field>), ...)`,
    # a NaN x fails the check
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _nan_passing_bounds(path.read_text(encoding="utf-8"))]
    assert found == []


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def test_every_private_module_level_name_is_read():
    # a private helper or constant that loses its last reader fails here
    # instead of lingering: each must be loaded by name, read as an
    # attribute or imported somewhere in the package
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = [f"{module}: {name}" for module, tree in trees.items()
              for name in _module_level_names(tree)
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert len(trees) > 5
    assert unread == []


# the argument that holds the message, by the name of the callable that refuses with it
_MESSAGE_ARGUMENT = {"ValueError": 0, "InternalFaultError": 0, "_usage_error": 0, "fail": 0, "add": 1}


def _template(node):
    """A message's template: a string is its value, an f-string its literal
    parts with {} for each placeholder, a lambda the template of its body;
    None for any other expression."""
    if isinstance(node, ast.Lambda):
        return _template(node.body)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return None


def _refusal_templates(source):
    """(template, line) of each refusal message written in source: the
    message passed to ValueError, InternalFaultError, _usage_error or a
    _Checks' add or fail.  Templates without a letter frame another
    message and are left out."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        position = _MESSAGE_ARGUMENT.get(name)
        if position is None or len(node.args) <= position:
            continue
        template = _template(node.args[position])
        if template is not None and any(c.isalpha() for c in template):
            yield template, node.lineno


def _written_twice(sources):
    """Each refusal template written more than once across sources (name -> text),
    with the name:line of every site."""
    sites = {}
    for name, source in sources.items():
        for template, line in sorted(_refusal_templates(source), key=lambda site: site[1]):
            sites.setdefault(template, []).append(f"{name}:{line}")
    return {template: where for template, where in sites.items() if len(where) > 1}


def test_the_message_check_flags_a_template_written_twice():
    flagged = """
def f(checks, name, x):
    if x:
        raise ValueError("k must be positive")
    checks.add(x, "k must be positive")
    checks.add(x, lambda i: f"--{name} got {x[i]:.3e}")
    raise InternalFaultError(f"--{x} got {name!r}")
    checks.fail(f"{name}: {x}")
    _usage_error(f"{x}: {name}")
    raise ValueError(message)
"""
    assert _written_twice({"a.py": flagged}) == {
        "k must be positive": ["a.py:4", "a.py:5"], "--{} got {}": ["a.py:6", "a.py:7"]}
    assert _written_twice({"a.py": 'raise ValueError("coupling must be finite")',
                           "b.py": 'checks.add(bad, "coupling must be finite")'}) == {
        "coupling must be finite": ["a.py:1", "b.py:1"]}
    safe = """
raise ValueError("k must be positive")
raise ValueError(f"--{name} {text!r}: {exc}")
_usage_error(f"--{name} {text!r}: {exc}")
Param("k", help="k must be positive")
read.add(x)
"""
    assert _written_twice({"a.py": safe}) == {}


def test_each_refusal_message_is_written_once():
    # a rule's message written twice is a rule written twice, and copies drift
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert _written_twice(sources) == {}


def _is_last_axis(node):
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant) and node.operand.value == 1)


def _last_axis_sums(source, helper):
    """Lines of add.reduce(x, axis=-1) and sum(x, axis=-1) outside the function helper."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == helper:
            continue
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            owner = getattr(func.value, "attr", getattr(func.value, "id", None))
            if func.attr == "reduce" and owner == "add" or func.attr == "sum" and owner == "np":
                axes = node.args[1:2]
            elif func.attr == "sum":  # the array's method: x.sum(axis)
                axes = node.args[:1]
            else:
                continue
            if any(_is_last_axis(axis) for axis in axes + [k.value for k in node.keywords if k.arg == "axis"]):
                found.append(node.lineno)
    return found


def test_the_short_axis_check_flags_a_last_axis_sum():
    flagged = """
def _norm2(amps):
    return np.add.reduce(amps.real ** 2 + amps.imag ** 2, axis=-1)
p = np.add.reduce(x, -1)
q = np.sum(x, axis=-1) + x.sum(-1) + x.sum(axis=-1)
"""
    assert _last_axis_sums(flagged, "_sum_rows") == [3, 4, 5, 5, 5]
    safe = """
def _sum_rows(x):
    return np.add.reduce(x, axis=-1)
a = np.logical_or.reduce(x, axis=-1)
b = np.add.reduce(x, axis=0) + np.maximum.reduce(x, axis=None) + x.sum(axis=1)
c = np.sum(x, 0)
"""
    assert _last_axis_sums(safe, "_sum_rows") == []


def test_the_kernel_sums_short_rows_only_by_column_adds():
    # np.add.reduce over a last axis of 4 costs several times the column
    # adds of hilbert._sum_rows, which give the same bits; the helper
    # alone decides which rows numpy still sums
    assert "def _sum_rows(" in (PACKAGE / "hilbert.py").read_text(encoding="utf-8")
    source = (PACKAGE / "protocols.py").read_text(encoding="utf-8")
    assert _last_axis_sums(source, "_sum_rows") == []


def _dotted(node):
    """The dotted name of an attribute chain, np.linalg.solve for instance."""
    return f"{_dotted(node.value)}.{node.attr}" if isinstance(node, ast.Attribute) else getattr(node, "id", "")


# a second squared norm (vdot rounds differently) and a second solve routine
# beside scattering._solve (LAPACK's, with its own pivoting and rounding)
_SECOND_COPIES = ("vdot", "linalg.solve", "linalg.inv")
# Veltkamp's splitting constant 2^27 + 1, and the names of a split or an
# error-free product (Dekker's two-product) of floats
_SPLITTER = 134217729
_EXACT_PRODUCTS = ("veltkamp", "two_prod", "dekker")


def _definitions(sources):
    """Over {module name: source}: the modules that define each function or
    module-level name; the lines that call vdot or a numpy or scipy linalg
    solve or inverse; and, under their mark, the lines that hold Veltkamp's
    constant (marked 134217729) or define a function named as a split or an
    error-free product (marked by its name)."""
    defined, copies, products = {}, [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        names = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        names += [target.id for node in tree.body if isinstance(node, ast.Assign)
                  for target in node.targets if isinstance(target, ast.Name)]
        for name in names:
            defined.setdefault(name, []).append(module)
        copies += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _dotted(node.func).endswith(_SECOND_COPIES)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == _SPLITTER:
                mark = str(_SPLITTER)
            elif isinstance(node, ast.FunctionDef) and any(part in node.name.lower() for part in _EXACT_PRODUCTS):
                mark = node.name
            else:
                continue
            products.setdefault(mark, []).append(f"{module}:{node.lineno}")
    return defined, copies, products


def test_the_definition_check_flags_a_copy_and_a_vdot():
    defined, copies, products = _definitions({
        "a.py": "_PAULIS = 1\ndef _norm2(x):\n    return np.vdot(x, x)\n",
        "b.py": "def _norm2(x):\n    return x\n",
        "c.py": "np.linalg.solve(a, x)\nnumpy.linalg.inv(a)\nlinalg.solve(a, x)\n_solve(a, x)\na.solve(x)\n",
        # a split and a two-product, and a copy of the split in another module
        "d.py": "_SPLITTER = 134217729.0\ndef _veltkamp(x):\n    return x\ndef _two_product(a, b):\n"
                "    return a * 134217729\nc = 134217728 + 1\n",
        "e.py": "def _veltkamp(x):\n    return x\n",
    })
    assert (defined, copies, products) == (
        {"_PAULIS": ["a.py"], "_norm2": ["a.py", "b.py"], "_SPLITTER": ["d.py"], "_veltkamp": ["d.py", "e.py"],
         "_two_product": ["d.py"], "c": ["d.py"]},
        ["a.py:3", "c.py:1", "c.py:2", "c.py:3"],
        {"134217729": ["d.py:1", "d.py:5"], "_veltkamp": ["d.py:2", "e.py:1"], "_two_product": ["d.py:4"]})


def test_each_state_quantity_is_defined_once():
    # one squared norm (np.vdot is a second one, which rounds differently),
    # one n.sigma, one barrier transmission, one propagation phase and one
    # solve routine (np.linalg.solve or inv would be a second): a copy
    # drifts from the first.  Float products made exact (Veltkamp's
    # constant, a split, a two-product) appear each at most once, in
    # scattering.py, beside the propagation phase that needs k*half_separation
    # exactly
    defined, copies, products = _definitions({path.name: path.read_text(encoding="utf-8")
                                            for path in sorted(PACKAGE.glob("*.py"))})
    assert copies == []
    once = {"_norm2": "hilbert.py", "_sum_rows": "hilbert.py", "_PAULIS": "hilbert.py",
            "_sigma_along": "hilbert.py", "_transmission": "scattering.py", "_phase": "scattering.py",
            "_solve": "scattering.py"}
    assert {name: defined.get(name) for name in once} == {name: [m] for name, m in once.items()}
    assert {mark: lines for mark, lines in products.items()
            if len(lines) > 1 or not lines[0].startswith("scattering.py:")} == {}


# the finiteness tests of math and numpy
_FINITENESS = ("isfinite", "isnan", "isinf")


def _is_count_test(node):
    """len(x) == n or len(x) != n against an integer n."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            and any(isinstance(side, ast.Call) and getattr(side.func, "id", None) == "len"
                    for side in (node.left, node.comparators[0]))
            and any(isinstance(side, ast.Constant) and type(side.value) is int
                    for side in (node.left, node.comparators[0])))


def _reader_bounds(source):
    """Line numbers of each value rule inside a _to_* reader: an order
    comparison (<, <=, >, >=), a finiteness test (isfinite, isnan or isinf
    of math or numpy) or a count test (len(x) == n or len(x) != n).  A rule
    there refuses a value on the routes that read text while the kernel's
    own rule refuses it on the others."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_to_"):
            found += [inner.lineno for inner in ast.walk(node)
                      if isinstance(inner, ast.Compare)
                      and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in inner.ops)
                      or _is_count_test(inner)
                      or isinstance(inner, ast.Call)
                      and getattr(inner.func, "attr", getattr(inner.func, "id", None)) in _FINITENESS]
    return sorted(set(found))


def test_the_reader_check_flags_a_bound_a_finiteness_and_a_count_test():
    flagged = """
def _to_positive(name, value):
    x = _to_float(name, value)
    if x <= 0.0:
        raise ValueError
    return x
def _to_choice(options):
    def convert(name, value):
        return value if 0 < len(value) else None
    return convert
def _to_finite(name, value):
    x = float(value)
    if not math.isfinite(x) or np.isnan(x) or numpy.isinf(x):
        raise ValueError
    return x if isfinite(x) else None
def _to_axis(name, value):
    if len(value) != 3 or 4 == len(value):
        raise ValueError
"""
    assert _reader_bounds(flagged) == [4, 9, 13, 15, 17]
    safe = """
def _to_axis(name, value):
    if value not in (1, 2) or len(value) == len(name):
        raise ValueError
def _to_grid(name, value):
    parts = str(value).split(":")
    if len(parts) not in (4, 5):
        raise ValueError
def _check_wave_number(checks, k):
    checks.add(~(np.isfinite(k) & (k > 0)), "k must be positive")
"""
    assert _reader_bounds(safe) == []


def test_no_reader_holds_a_value_rule():
    # readers only turn text into values; the kernel's rules refuse them
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert "def _to_float(" in sources["protocols.py"]
    found = [f"{module}:{line}" for module, source in sources.items() for line in _reader_bounds(source)]
    assert found == []


def _named_in(source, name):
    """The module-level function that names name (a call or a reference,
    plain or as a module attribute) at each place it does, '' outside any
    function, in source order."""
    found = []
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, ast.FunctionDef) else ""
        found += [owner for inner in ast.walk(node)
                  if isinstance(inner, ast.Name) and inner.id == name
                  or isinstance(inner, ast.Attribute) and inner.attr == name]
    return found


def test_the_route_check_flags_a_second_site():
    source = """
def _digit_block(arrays, cell):
    return _text_block(arrays, cell)
def _plane_rows(cols, cell):
    return _digit_block(cols, cell)
def _column(values, cell):
    write = cli._text_block
    return write(values, cell)
block = _digit_block([], None)
"""
    assert _named_in(source, "_text_block") == ["_digit_block", "_column"]
    assert _named_in(source, "_digit_block") == ["_plane_rows", ""]


def test_a_sweeps_float_columns_take_one_route():
    # a column written by the text pass on its own, beside the digit pass,
    # is a second route for the same bytes
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert _named_in(source, "_text_block") == ["_digit_block"]
    assert _named_in(source, "_digit_block") == ["_plane_rows"]
