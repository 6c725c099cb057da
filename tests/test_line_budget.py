"""The package's size is held to a budget: new lines are paid for by deletions.

Lines are counted as the benchmark records `src_lines`: the splitlines() of
every src/pfedmb/*.py file, summed.
"""

import ast
from pathlib import Path

import pfedmb

LINE_BUDGET = 2100
MAX_LINE_LENGTH = 99
PACKAGE = Path(pfedmb.__file__).parent


def test_package_stays_within_its_line_budget():
    files = sorted(PACKAGE.glob("*.py"))
    lines = sum(len(p.read_text().splitlines()) for p in files)
    assert len(files) > 1 and lines <= LINE_BUDGET, f"{lines} lines in src/pfedmb"


def test_no_line_is_joined_to_meet_the_budget():
    """The budget counts lines, so it must not be met by joining them into wide ones."""
    wide = [f"{path.name}:{i}: {len(line)} characters"
            for path in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE_LENGTH]
    assert not wide, f"lines over {MAX_LINE_LENGTH} characters: {wide}"


def test_no_module_imports_a_name_it_never_uses():
    """A deletion that leaves its imports behind still pays for them in lines.

    __init__.py is exempt: its imports are the package's exports.
    """
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_no_function_takes_a_parameter_it_never_reads():
    """A parameter the body never reads costs its callers an argument and the
    signature a line; self and cls are exempt."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno}: {getattr(node, 'name', 'lambda')}({name})"
                       for name in params if name not in read | {"self", "cls"}]
    assert not unread, f"parameters never read: {unread}"


def test_every_top_level_name_has_a_caller_outside_tests():
    """A function, class or constant that only tests use still costs lines; delete it.

    A name counts as used wherever code outside tests reads it: as a name, an
    attribute, an import or a string (bench/tracer.py wraps functions by
    name).  Assigning a name is no use of it.  save_checkpoint and
    load_checkpoint wait for a CLI caller.
    """
    exempt = {"save_checkpoint", "load_checkpoint"}
    root = Path(__file__).resolve().parents[1]
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users = modules + sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    named = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    dead = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{node.lineno}: {name}" for name in defined
                     if name not in named | exempt]
    assert not dead, f"named only by tests, or not at all: {dead}"


def test_only_the_local_pass_drives_the_lockstep_phases():
    """Rounds and fine-tuning share one two-phase driver: _local_pass is the one top-level
    function in src/pfedmb that names _lockstep, so a second copy of the phase order
    (every mixing phase, then the weight phases) stays out."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            named = {getattr(node, "id", None) or getattr(node, "attr", None)
                     for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
            if "_lockstep" in named:
                callers.append(f"{path.name}: {getattr(top, 'name', top.lineno)}")
    assert callers == ["federation.py: _local_pass"], callers


def test_only_data_reads_an_input_file():
    """Config, CSV and checkpoint are read by data.read_utf8, so each is decoded
    and rejected the same way: no other module calls json.load(s), .read_text,
    .read_bytes or the builtin open.
    """
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "data.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            f = node.func if isinstance(node, ast.Call) else None
            builtin_open = isinstance(f, ast.Name) and f.id == "open"
            method = f.attr if isinstance(f, ast.Attribute) else None
            json_load = method in ("load", "loads") and getattr(f.value, "id", None) == "json"
            if builtin_open or json_load or method in ("read_text", "read_bytes"):
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers, f"reads a file outside data.py: {readers}"


def test_only_nn_steps_a_parameter():
    """An SGD step is np.subtract(p, lr * g, out=...), and nn's step helpers are its one
    home: no other module calls np.subtract with out=, so a second step path stays out."""
    steppers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "nn.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr == "subtract"
                    and any(keyword.arg == "out" for keyword in node.keywords)):
                steppers.append(f"{path.name}:{node.lineno}")
    assert not steppers, f"steps a parameter outside nn.py: {steppers}"


def test_only_nn_allocates_uninitialized_arrays():
    """The kernel allocates every gradient it returns: no other module calls np.empty or
    np.empty_like, so buffers that a caller makes and the kernel fills stay out."""
    allocators = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "nn.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            f = node.func if isinstance(node, ast.Call) else None
            if isinstance(f, ast.Attribute) and f.attr in ("empty", "empty_like"):
                allocators.append(f"{path.name}:{node.lineno}")
    assert not allocators, f"allocates an uninitialized array outside nn.py: {allocators}"
