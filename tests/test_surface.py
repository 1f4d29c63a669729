"""The package's documented surface and its imports, checked by parsing.

README's "Library use" imports must keep working, no module of the package
may import a name it never uses, no public name of the package may be one
that only tests call (the acceptance gates count as tests) unless
TEST_ONLY says why it stays, the names the benchmark's tracer
(perfbench/tracing.py) wraps must exist and be the ones the program calls,
only the CLI's ``main`` may load the config, write or print, no CLI stage
may copy a check the library makes, only the listed functions may
silence numpy's floating-point warnings, and no object of the package is
built past its constructor's checks.
"""

import ast
import collections
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest

import ikdlab.cli  # loads every module the tracer wraps
from ikdlab import evalkit, mlp, replay, scenarios
from ikdlab.align import AlignedDataset
from ikdlab.simcore import SlipParams

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ikdlab"

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
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_unused_import_check_finds_an_unused_name():
    tree = ast.parse("import math\nimport os.path\nfrom x import a, b as c\n"
                     "os.getcwd()\nprint(c)\n")
    assert unused_imports(tree) == ["a", "math"]


# Public names with no reference outside the tests, each with the reason it
# stays.
TEST_ONLY: dict[str, str] = {
    "simcore.SlipParams.ideal": "the slip-free plant of acceptance gate 4, and the "
                                "ideal-plant clearance that ROADMAP item 6 reports",
}


def public_names(tree: ast.Module):
    """``(qualname, kind, node)`` for each public module-level function and
    class, and each public method and property of those classes; ``kind`` is
    "name", "classmethod" (a class- or staticmethod) or "method"."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
            continue
        yield node.name, "name", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    decorators = {ast.unparse(d) for d in item.decorator_list}
                    kind = ("classmethod" if decorators & {"classmethod", "staticmethod"}
                            else "method")
                    yield f"{node.name}.{item.name}", kind, item


def references(tree: ast.Module) -> list[tuple[str, int]]:
    """``(dotted name, line)`` for each name and attribute chain ``tree``
    reads.  A chain's head becomes what it was imported as, relative imports
    taken from inside the package (``align_mod.histogram`` ->
    ``ikdlab.align.histogram``); a chain on a call or subscript has an empty
    head (``load(p).xy`` -> ``.xy``)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                bound[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ikdlab" if node.level else "", node.module]))
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            parts, head = [], node
            while isinstance(head, ast.Attribute):
                parts.append(head.attr)
                head = head.value
            root = bound.get(head.id, head.id) if isinstance(head, ast.Name) else ""
            out.append((".".join([root, *reversed(parts)]), node.lineno))
    return out


def index(found: list[tuple[str, int]]) -> dict[str, list[int]]:
    """Lines by dotted name, and by ``*.attr`` for each attribute chain but
    one on the argparse namespace ``args`` (``args.duration`` reads a flag)."""
    lines = collections.defaultdict(list)
    for dotted, line in found:
        lines[dotted].append(line)
        if "." in dotted and dotted.partition(".")[0] != "args":
            lines["*." + dotted.rpartition(".")[2]].append(line)
    return lines


def keys(qualname: str, kind: str, shared: bool, own_file: bool) -> list[str]:
    """The index keys that refer to ``qualname``.

    Module-level names and class- and staticmethods count under the package
    or one of its modules, or bare in their own module.  Other methods and
    properties count as ``<anything>.name``, unless several classes define
    the name (``shared``); then only as ``Class.name``, like a classmethod.
    """
    if kind == "method" and not shared:
        return ["*." + qualname.split(".")[1]]
    heads = ["ikdlab", *(f"ikdlab.{p.stem}" for p in PACKAGE.glob("*.py"))]
    return [f"{head}.{qualname}" for head in heads] + ([qualname] if own_file else [])


def outside_references() -> dict[str, dict[str, list[int]]]:
    """References that keep a public name, by source file: the package (but
    not the re-exports of its ``__init__``), perfbench and the strings of
    its tracer's TARGETS, and README "Library use".  No test counts, so a
    name that only an acceptance gate calls is flagged too."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "perfbench").rglob("*.py"))
    found = {str(p.relative_to(ROOT)): references(ast.parse(p.read_text(encoding="utf-8")))
             for p in files}
    found["README.md"] = references(ast.parse(library_use_block()))
    found["perfbench/tracing.py"] += [(f"{mod}.{fn}", 0)
                                      for mod, fn, _, _ in load_tracing().TARGETS]
    return {path: index(refs) for path, refs in found.items()}


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    refs = outside_references()
    defined = [(path.stem, *name) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"
               for name in public_names(ast.parse(path.read_text(encoding="utf-8")))]
    methods = [qualname.split(".")[1] for _, qualname, kind, _ in defined if kind == "method"]
    uncalled = []
    for module, qualname, kind, node in defined:
        own = f"src/ikdlab/{module}.py"
        shared = kind == "method" and methods.count(qualname.split(".")[1]) > 1
        if not any(not (path == own and node.lineno <= line <= node.end_lineno)
                   for path, lines in refs.items()
                   for key in keys(qualname, kind, shared, path == own)
                   for line in lines.get(key, ())):
            uncalled.append(f"{module}.{qualname}")
    unlisted = sorted(set(uncalled) - set(TEST_ONLY))
    assert not unlisted, f"only tests call {unlisted}: delete them or list them in TEST_ONLY"
    stale = sorted(set(TEST_ONLY) - set(uncalled))
    assert not stale, f"TEST_ONLY lists {stale}, which are gone or have a caller"


def test_reference_check_resolves_imports_and_qualifies_class_methods():
    lines = index(references(ast.parse(
        "from . import align as a\nfrom ikdlab.simcore import SlipParams\n"
        "a.histogram(x)\nSlipParams.ideal()\ncls.fresh()\nload(p).xy()\n"
        "report.c_measured\ncfg.train\nargs.duration\n")))

    def found(qualname, kind, shared=False, own_file=False):
        return any(key in lines for key in keys(qualname, kind, shared, own_file))

    assert found("histogram", "name") and found("SlipParams.ideal", "classmethod")
    assert found("SimTrace.xy", "method") and found("CircleReport.c_measured", "method")
    assert not found("AdamState.fresh", "classmethod", own_file=True)
    assert not found("SlipParams.to_json", "method", shared=True)
    assert not found("train", "name")
    assert not found("ControlScript.duration", "method")


# A stage leaves every check to the library function that uses the value:
# it may not test finiteness or the actuator limit itself.
STAGE_CALLS = {"print", "open", "os.makedirs", "_load_config", "math.isfinite"}
STAGE_PREFIXES = ("write_", "save_", "svg_")
STAGE_READS = {"AV_LIMIT"}


def stage_side_effects(tree: ast.Module) -> tuple[list[str], list[str]]:
    """``cmd_*`` calls that load the config, write, print or test
    finiteness, and ``cmd_*`` reads of the actuator limit, as
    ``function:line: name``, and the top-level definitions that call
    ``_load_config``."""
    effects, loaders = [], []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)) and owner.startswith("cmd_"):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name in STAGE_READS:
                    effects.append(f"{owner}:{node.lineno}: {ast.unparse(node)}")
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func)
            if callee.rpartition(".")[2] == "_load_config":
                loaders.append(owner)
            if owner.startswith("cmd_") and (
                    callee in STAGE_CALLS
                    or callee.rpartition(".")[2].startswith(STAGE_PREFIXES)):
                effects.append(f"{owner}:{node.lineno}: {callee}")
    return effects, loaders


def test_cli_stages_return_what_main_writes_and_prints():
    effects, loaders = stage_side_effects(ast.parse((PACKAGE / "cli.py").read_text(
        encoding="utf-8")))
    assert not effects, f"stages write, print, load the config or copy a check: {effects}"
    assert loaders == ["main"], f"_load_config is called by {loaders}"


def test_stage_check_finds_writes_prints_and_config_loads():
    effects, loaders = stage_side_effects(ast.parse(
        "def cmd_a(args, cfg, out):\n    print(1)\n    datalog.write_joy_csv(j, p)\n"
        "    return [(p, partial(svgplot.svg_trajectory, t))], []\n"
        "def cmd_b(args, cfg, out):\n    os.makedirs(out)\n    mlp.save_model(m, p)\n"
        "    cfg = _load_config(args)\n    return [], []\n"
        "def main():\n    _load_config(args)\n    print(2)\n"))
    assert effects == ["cmd_a:2: print", "cmd_a:3: datalog.write_joy_csv",
                       "cmd_b:6: os.makedirs", "cmd_b:7: mlp.save_model",
                       "cmd_b:8: _load_config"]
    assert loaders == ["cmd_b", "main"]


def test_stage_check_finds_copied_finiteness_and_actuator_checks():
    effects, _ = stage_side_effects(ast.parse(
        "def cmd_a(args, cfg, out):\n    if not math.isfinite(args.v):\n        pass\n"
        "    return [], [abs(args.v) <= AV_LIMIT]\n"
        "def cmd_b(args, cfg, out):\n    return [], [simcore.AV_LIMIT]\n"
        "def _helper(v):\n    return math.isfinite(v) and abs(v) <= AV_LIMIT\n"))
    assert effects == ["cmd_a:2: math.isfinite", "cmd_a:4: AV_LIMIT",
                       "cmd_b:6: simcore.AV_LIMIT"]


# The only functions that may silence numpy's floating-point warnings.  The
# records bound every quantity they hold, correct_batch bounds its query and
# MlpParams its weights, so nothing downstream overflows; train's guard
# stays because training diverges at a step size too large even on sane
# rows.  A new guard has to be argued for here.
ERRSTATE_HOMES = {"mlp.train"}


def errstate_sites(tree: ast.Module, module: str) -> list[str]:
    """Where ``tree`` calls ``errstate``, each call named by the top-level
    function (``module.function``) or method (``module.Class.method``) that
    holds it, nested functions included, or by ``module`` outside any."""
    owners = []
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            owners += [(f"{module}.{top.name}.{getattr(item, 'name', '')}", item)
                       for item in top.body]
        else:
            owners.append((f"{module}.{top.name}" if isinstance(top, ast.FunctionDef)
                           else module, top))
    return [owner for owner, top in owners for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).rpartition(".")[2] == "errstate"]


def test_floating_point_warnings_are_silenced_only_in_the_listed_functions():
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in errstate_sites(ast.parse(path.read_text(encoding="utf-8")),
                                        path.stem)]
    assert set(sites) == ERRSTATE_HOMES, sites


def test_errstate_finder_names_the_function_that_holds_the_call():
    tree = ast.parse("import numpy as np\n"
                     "@np.errstate(over='ignore')\ndef f():\n    pass\n"
                     "def g():\n    def h():\n        with numpy.errstate(all='ignore'):\n"
                     "            pass\n"
                     "class C:\n    def m(self):\n        with errstate(over='ignore'):\n"
                     "            np.isfinite(1.0)\n"
                     "np.errstate(all='ignore')\n")
    assert errstate_sites(tree, "mod") == ["mod.f", "mod.g", "mod.C.m", "mod"]


def new_calls(tree: ast.Module) -> list[int]:
    """Lines where ``tree`` calls a ``__new__``, which builds an object
    without running its constructor's checks."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"]


def test_no_object_is_built_past_its_checks():
    sites = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in new_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert not sites, f"__new__ is called at {sites}: build through the constructor"
    assert new_calls(ast.parse("p = object.__new__(cls)\nq = cls(1)\n"
                               "r = super().__new__(cls)\n")) == [1, 3]


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
    data = AlignedDataset(v_joy=v, av_joy=av, av_imu=0.8 * av)
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
    # train scores its test split through forward, once per epoch, so the
    # tracer files that evaluation apart from the optimizer steps
    evals = [i for i in range(len(tracer.spans))
             if tracing.layer_name(tracer.spans, i) == "mlp.epoch_eval"]
    assert len(evals) == names.count("mlp.forward") == cfg.epochs
    assert m["mlp.loss_and_grads.self_s"] > 0 and m["mlp.adamw_step.self_s"] > 0
    assert m["mlp.epoch_eval.self_s"] > 0
    assert m["mlp.us_per_step"] > 0


def test_traced_simulation_counters_read_the_returned_traces():
    # the tracer counts a run's steps and a drift score's states from the
    # trace: len(trace) steps, and one state more
    tracing = load_tracing()
    p = SlipParams()
    buf = scenarios.drift_buffer()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.traced_pass(0):
        circle = evalkit.circle_trace(2.0, 0.5, p)
        evalkit.circle_test(2.0, 0.5, p, trace=circle)
        drift = replay.execute_replay(buf, p, duration=len(buf) / replay.DEFAULT_REPLAY_RATE)
        evalkit.drift_eval(drift, scenarios.loose_scenario())
    m = tracing.layer_metrics(tracer.spans, passes=1)
    assert len(circle) > 0 and len(drift) > 0
    assert m["simcore.steps"] == len(circle)
    assert m["replay.steps"] == len(drift)
    assert m["evalkit.drift_states"] == len(drift) + 1


# CI runs a Python 3.10 leg; this guards its grammar where no 3.10 exists.
@pytest.mark.parametrize("path", sorted(
    p for folder in ("src/ikdlab", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)))
def test_every_source_file_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_feature_version_check_refuses_newer_grammar():
    # except* is 3.11 grammar that this interpreter parses without the flag
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_row_line_is_called_only_inside_fileio():
    # A record's own check names the failing row; fileio.read_record alone
    # turns it into file:line, so no other code re-derives the row.
    callers = []
    for folder in ("src/ikdlab", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE / "fileio.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            callers += [f"{path.relative_to(ROOT)}:{line}" for dotted, line in references(tree)
                        if dotted.rpartition(".")[2] == "row_line"]
    assert not callers, f"row_line is referenced outside fileio at {callers}"
    fileio = ast.parse((PACKAGE / "fileio.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(fileio) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "row_line"]
    assert len(calls) == 1
