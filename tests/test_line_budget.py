"""The package's size is held to a budget: new lines are paid for by deletions.

Lines are counted as the benchmark records `src_lines`: the splitlines() of
every src/pfedmb/*.py file, summed.
"""

import ast
from pathlib import Path

import pfedmb

LINE_BUDGET = 2100
PACKAGE = Path(pfedmb.__file__).parent


def test_package_stays_within_its_line_budget():
    files = sorted(PACKAGE.glob("*.py"))
    lines = sum(len(p.read_text().splitlines()) for p in files)
    assert len(files) > 1 and lines <= LINE_BUDGET, f"{lines} lines in src/pfedmb"


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
