"""Structure of the package's modules."""

from __future__ import annotations

import ast
from pathlib import Path

import phaseuq

PACKAGE = Path(phaseuq.__file__).parent


def test_no_private_names_imported_across_modules():
    # a name with a leading underscore belongs to its own module; another
    # module that needs it needs a public name instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("phaseuq"):
                continue
            found += [
                f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert not found
