"""One reader per kind of number, checked on the source.

A caller's integer is read by `measures.int_value` (and a weight's parts by
`weight_ratios`), a caller's real by `measures.real_value`, and a caller's
floats by `measures.float_rows`, which refuses True, "1" and None where
np.asarray(..., dtype=float) would convert them.  These tests parse
src/actionlim/*.py and fail where another function calls operator.index,
tests numbers.Real, or makes a float array (np.asarray / np.array with a
float dtype, by keyword or position, or .astype(float)) outside the copies
of arrays that were read or drawn already, and where a public function (one
its module's __all__ names) does not pass a parameter annotated `float` to
`real_value`.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "actionlim"

# the functions that may read integers by operator.index
INDEX_READERS = {("measures.py", "int_value"), ("measures.py", "weight_ratios")}
# the functions that may test for a real number
REAL_READERS = {("measures.py", "real_value")}
# the functions that may make float arrays, and how many calls each may make (None: any)
FLOAT_ARRAYS = {
    ("measures.py", "float_rows"): None,
    ("operators.py", "WeightedOperator.__init__"): 1,  # its copy of the matrix float_rows read
    ("operators.py", "adjoint"): 1,  # its copy of A.masses, Python ints
    ("profiles.py", "TestFunctionStrategy._draw"): 1,  # its own 0/1 indicator draw
}


def index_use(node) -> bool:
    """operator.index, called or passed (as to map), or imported from operator."""
    if isinstance(node, ast.Attribute):
        return node.attr == "index" and isinstance(node.value, ast.Name) and node.value.id == "operator"
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and any(a.name == "index" for a in node.names)
    return False


def real_use(node) -> bool:
    """numbers.Real, as in isinstance(x, numbers.Real)."""
    return (isinstance(node, ast.Attribute) and node.attr == "Real"
            and isinstance(node.value, ast.Name) and node.value.id == "numbers")


def float_dtype(v) -> bool:
    """float, np.float64 or "float64" as written."""
    return (isinstance(v, ast.Name) and v.id == "float"
            or isinstance(v, ast.Attribute) and v.attr == "float64"
            or isinstance(v, ast.Constant) and v.value in ("float", "float64"))


def float_array(node) -> bool:
    """np.asarray / np.array with a float dtype (keyword or second argument), or .astype(float)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
    if node.func.attr == "astype":
        return any(float_dtype(v) for v in node.args[:1] + dtypes)
    if (node.func.attr in ("asarray", "array") and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")):
        return any(float_dtype(v) for v in node.args[1:2] + dtypes)
    return False


def uses(source: str, rule) -> list[tuple[str, int]]:
    """(enclosing function or method, as Class.name, line) of every node of source the rule matches."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if rule(child):
                found.append((".".join(inner), child.lineno))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def float_parameters(source: str) -> dict[str, bool]:
    """{"function.parameter": read} for each parameter annotated `float` of each
    function that the module's __all__ names; read is whether the function passes
    that parameter to real_value (called by name or as measures.real_value)."""
    tree = ast.parse(source)
    public = {e.value for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              for e in node.value.elts}
    found = {}
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef) and node.name in public):
            continue
        read = {call.args[0].id for call in ast.walk(node)
                if isinstance(call, ast.Call) and call.args and isinstance(call.args[0], ast.Name)
                and (isinstance(call.func, ast.Name) and call.func.id == "real_value"
                     or isinstance(call.func, ast.Attribute) and call.func.attr == "real_value")}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if isinstance(arg.annotation, ast.Name) and arg.annotation.id == "float":
                found[f"{node.name}.{arg.arg}"] = arg.arg in read
    return found


def source_uses(rule) -> list[tuple[str, str, int]]:
    return [(path.name, where, line) for path in sorted(SRC.glob("*.py"))
            for where, line in uses(path.read_text(), rule)]


def test_operator_index_only_in_the_integer_readers():
    found = source_uses(index_use)
    assert [u for u in found if u[:2] not in INDEX_READERS] == []
    assert {u[:2] for u in found} == INDEX_READERS  # the readers are seen, so the rule is not blind


def test_real_number_test_only_in_the_real_reader():
    found = source_uses(real_use)
    assert [u for u in found if u[:2] not in REAL_READERS] == []
    assert {u[:2] for u in found} == REAL_READERS


def test_float_arrays_only_in_float_rows_and_the_copies():
    found = source_uses(float_array)
    assert [u for u in found if u[:2] not in FLOAT_ARRAYS] == []
    counts = Counter(u[:2] for u in found)
    assert {k: counts[k] for k, n in FLOAT_ARRAYS.items() if n is not None} == {
        k: n for k, n in FLOAT_ARRAYS.items() if n is not None}
    assert counts[("measures.py", "float_rows")] >= 1


def test_public_float_parameters_read_by_real_value():
    found = {f"{path.name}:{name}": read for path in sorted(SRC.glob("*.py"))
             for name, read in float_parameters(path.read_text()).items()}
    assert [name for name, read in found.items() if not read] == []
    # the parameters are seen, so the rule is not blind
    assert {"lp_metric.py:lp_feasible.eps", "operators.py:q_norm.q",
            "operators.py:pq_norm.p", "operators.py:pq_norm.q"} <= set(found)


def test_rules_catch_hand_rolled_reads():
    snippet = (
        "import operator\n"
        "from operator import index\n"
        "class C:\n"
        "    def f(self, xs, v):\n"
        "        a = list(map(operator.index, xs)), isinstance(v, numbers.Real)\n"
        "        return np.asarray(v, dtype=float), np.array(v, dtype=np.float64), np.array(v)\n"
        "    def g(self, v):\n"
        "        return np.array(v, float), np.asarray(v, np.float64), v.astype(float), v.astype(int)\n"
    )
    assert uses(snippet, index_use) == [("", 2), ("C.f", 5)]
    assert uses(snippet, real_use) == [("C.f", 5)]
    assert uses(snippet, float_array) == [("C.f", 6), ("C.f", 6), ("C.g", 8), ("C.g", 8), ("C.g", 8)]
    snippet = (
        "__all__ = ['f', 'g']\n"
        "def f(x: float, y: float, z: int, w: Sequence[float], *, v: float):\n"
        "    x = real_value(x, 'x')\n"
        "    return measures.real_value(v, 'v') + real_value(float(y), 'y')\n"
        "def g(q: float):\n"
        "    return q >= 1\n"
        "def h(u: float):\n"
        "    return u\n"
    )
    assert float_parameters(snippet) == {"f.x": True, "f.y": False, "f.v": True, "g.q": False}
