"""The package's documented surface and its imports, checked by parsing.

README's "Library use" imports must keep working, no module of the package
may import a name it never uses, and the names the benchmark's tracer
(perfbench/tracing.py) wraps must exist and be the ones the program calls.
"""

import ast
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

import ikdlab.cli  # loads every module the tracer wraps
from ikdlab import mlp
from ikdlab.align import AlignedDataset

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


def load_tracing():
    """perfbench/tracing.py, loaded by path as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_target_and_restores_it():
    tracing = load_tracing()
    originals = {(mod, fn): getattr(sys.modules[mod], fn)
                 for mod, fn, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    with tracer.installed():
        patched = {(mod.__name__, fn) for mod, fn, _ in tracer.patched}
        for (mod, fn), original in originals.items():
            assert (mod, fn) in patched, (mod, fn)
            assert getattr(sys.modules[mod], fn).__wrapped__ is original, (mod, fn)
    assert not tracer.patched
    for (mod, fn), original in originals.items():
        assert getattr(sys.modules[mod], fn) is original, (mod, fn)


def test_traced_training_counts_one_optimizer_step_per_batch():
    tracing = load_tracing()
    rng = np.random.default_rng(5)
    v, av = rng.uniform(0.5, 4.0, 200), rng.uniform(-3.0, 3.0, 200)
    data = AlignedDataset(v_joy=v, av_joy=av, av_imu=0.8 * av, period=0.025)
    cfg = mlp.TrainConfig(epochs=2, batch_size=32)
    n_train = 200 - round(200 * cfg.split_fraction)
    batches = cfg.epochs * math.ceil(n_train / cfg.batch_size)   # 2 x 6
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.traced_pass(0):
        mlp.train(data, cfg)
    m = tracing.layer_metrics(tracer.spans, passes=1)
    assert m["mlp.train.calls"] == 1
    assert m["mlp.optimizer_steps"] == batches == 12
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names.count("mlp.loss_and_grads") == batches
    assert m["mlp.loss_and_grads.self_s"] > 0 and m["mlp.adamw_step.self_s"] > 0
    assert m["mlp.us_per_step"] > 0
