"""The package's documented surface and its imports, checked by parsing.

README's "Library use" imports must keep working, and no module of the
package may import a name it never uses.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ikdlab"

# Names a module imports only so that others can read them from it:
# test_speed_guard_has_one_home pins EPS_V as one object in these modules.
RE_EXPORTS = {("align", "EPS_V"), ("ikd", "EPS_V"), ("replay", "EPS_V")}


def library_use_block() -> str:
    """The python code block under README's "## Library use" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_use_imports_resolve():
    imports = [node for node in ast.parse(library_use_block()).body
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "ikdlab"]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})


def unused_imports(tree: ast.Module) -> list[str]:
    """Names ``tree`` binds by an import statement and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_package_modules_use_every_import(path):
    unused = [name for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              if (path.stem, name) not in RE_EXPORTS]
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_unused_import_check_finds_an_unused_name():
    tree = ast.parse("import math\nimport os.path\nfrom x import a, b as c\n"
                     "os.getcwd()\nprint(c)\n")
    assert unused_imports(tree) == ["a", "math"]
