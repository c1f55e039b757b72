"""The traced benchmark (pipebench/launch.py) replaces medqakit functions by
(module, attribute) and calls a few names of medqakit.cli directly. A rename
here would break it without failing any other test, so this reads launch.py,
without running it, and checks that every such name still resolves."""

import ast
import importlib
from pathlib import Path

LAUNCH = Path(__file__).resolve().parent.parent / "pipebench" / "launch.py"
TABLES = ("SPANNED", "COUNTED", "BYTES_WRITTEN")


def launch_tree() -> ast.Module:
    return ast.parse(LAUNCH.read_text(encoding="utf-8"), filename=str(LAUNCH))


def test_patched_attributes_resolve():
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in launch_tree().body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in TABLES
    }
    assert set(tables) == set(TABLES)
    for table, rows in tables.items():
        assert rows, table
        for module_name, attribute, *_ in rows:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attribute, None)), f"{table}: {module_name}.{attribute}"


def test_cli_names_called_by_launch_resolve():
    from medqakit import cli

    called = {
        node.attr
        for node in ast.walk(launch_tree())
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cli"
    }
    assert {"build_parser", "load_run_config", "main"} <= called
    for name in called:
        assert callable(getattr(cli, name, None)), f"medqakit.cli.{name}"
