"""The package's public names: each listed once, none of them a helper."""

import ast
from pathlib import Path
from types import ModuleType

import fibercav


def test_all_holds_the_imported_public_names():
    assert fibercav.__all__ == sorted(set(fibercav.__all__))
    for name in fibercav.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(fibercav, name), ModuleType), name
    assert {"ToolConfig", "budget", "cooperativity", "TOOL_VERSION"} <= set(fibercav.__all__)
    for gone in ("absorption_bands", "compare_budgets", "BudgetComparison", "ModuleType"):
        assert gone not in fibercav.__all__


def test_each_public_name_is_written_once():
    tree = ast.parse(Path(fibercav.__file__).read_text())
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert sorted(imported) == fibercav.__all__
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert not set(strings) & set(fibercav.__all__)
