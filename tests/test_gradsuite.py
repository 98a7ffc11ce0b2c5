import ast
import dataclasses
import functools
import importlib
import sys
from pathlib import Path

from bgcapsule import config, layers, model, tensor, training

import gradsuite


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def _recording_functions(module):
    """(module, name) of each function in ``module`` whose own body, not a
    nested function's, calls ``record_op``."""
    found = set()
    for fn in ast.walk(_tree(module)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "record_op":
                found.add((Path(module.__file__).stem, fn.name))
            stack.extend(ast.iter_child_nodes(node))
    return found


def _top_level_names(module):
    """Names that ``module`` defines at its top level and does not mark private."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


@functools.cache
def _reads(path):
    """What the file ``path`` reads: the names it loads, its relative
    imports as (module, name, bound name), and its ``name.attr`` reads."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    loads = {node.id for node in nodes
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imports = [(node.module, alias.name, alias.asname or alias.name) for node in nodes
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    attrs = {(node.value.id, node.attr) for node in nodes
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return loads, imports, attrs


def _names_read(path, module):
    """Top-level names of ``module`` that the code of the package file
    ``path`` reads: any name in ``module`` itself; elsewhere ``alias.name``
    after ``from . import <module> as alias``, or a name brought in by
    ``from .<module> import``."""
    loads, imports, attrs = _reads(path)
    stem = Path(module.__file__).stem
    if path.stem == stem:
        return set(loads)
    aliases = {bound for src, name, bound in imports if src is None and name == stem}
    imported = {bound: name for src, name, bound in imports if src == stem}
    return ({attr for alias, attr in attrs if alias in aliases}
            | {imported[name] for name in loads if name in imported})


def test_every_gradsuite_check_passes(monkeypatch):
    # which function recorded each node: record_op's caller
    recorders = set()
    record = tensor.Tape.record

    def traced_record(self, output, inputs, backward):
        assert sys._getframe(1).f_code.co_name == "record_op"
        caller = sys._getframe(2).f_code
        recorders.add((Path(caller.co_filename).stem, caller.co_name))
        record(self, output, inputs, backward)

    monkeypatch.setattr(tensor.Tape, "record", traced_record)
    reports = gradsuite.run_suite()
    names = [r.name for r in reports]
    assert len(names) == len(set(names))
    for attr in ("seq", "masked_seq", "padded_seq", "padded_w_z",
                 "w_z", "w_r", "w_h", "b_z", "b_r", "b_h"):
        assert f"bigru/{attr}" in names
    for attr in ("x", "x_repeated", "kernel", "bias", "wide_bias"):
        assert f"cnn_capsules/{attr}" in names
    for attr in ("u", "weights"):
        assert f"predict_vectors/{attr}" in names
    assert "dynamic_routing" in names and "dynamic_routing/weighted" in names
    failed = [r.line() for r in reports if not r.passed]
    assert not failed, "\n".join(failed)

    # every op the package can record is checked, and nothing records from elsewhere
    recording = set().union(*map(_recording_functions, (tensor, layers, training)))
    assert recording == recorders, (f"not run by gradsuite: {sorted(recording - recorders)}; "
                                    f"recorded elsewhere: {sorted(recorders - recording)}")


def test_every_tensor_op_has_a_model_caller():
    ops = {name for _, name in _recording_functions(tensor)}
    used = set().union(*(_names_read(Path(m.__file__), tensor) for m in (model, layers, training)))
    assert ops and not ops - used, f"tape ops with no model caller: {sorted(ops - used)}"


# public names that no package module reads, each kept for a caller outside it
OUTSIDE_CALLERS = {
    "artifact.load_model": "user entry point",
    "artifact.save_model": "user entry point",
    "ablation.run_ablation": "waits for the experiment entry point (ROADMAP item 4)",
    "ablation.write_ablation_csv": "waits for the experiment entry point (ROADMAP item 4)",
    "config.load_config_file": "waits for the experiment entry point (ROADMAP item 4)",
    "config.save_config_file": "waits for the experiment entry point (ROADMAP item 4)",
    "text.load_dataset": "waits for the experiment entry point (ROADMAP item 4)",
    "text.glove_file_dim": "waits for the experiment entry point (ROADMAP item 4)",
    "training.cross_validate": "waits for the experiment entry point (ROADMAP item 4)",
    "layers.init_gru": "perfbench/test_smoke.py draws its GRUs with it",
    "training.cross_entropy": "perfbench/checks.py takes its check loss on probabilities",
    "synthetic.separable_corpus": "the tests' corpus, which the order corpus joins "
                                  "(ROADMAP item 9)",
}


def test_every_public_compute_name_has_a_package_caller():
    # test-only helpers belong in tests/, not in the package
    package = sorted(Path(tensor.__file__).parent.glob("*.py"))
    unused = set()
    for path in package:
        module = importlib.import_module(f"bgcapsule.{path.stem}".removesuffix(".__init__"))
        read = set().union(*(_names_read(other, module) for other in package))
        unused |= {f"{path.stem}.{name}" for name in _top_level_names(module) - read}
    assert unused == set(OUTSIDE_CALLERS), f"public names no package module reads: {sorted(unused)}"


def test_every_config_field_has_a_package_reader():
    # a field that no module reads is a setting that changes nothing
    package = sorted(Path(config.__file__).parent.glob("*.py"))
    read = {node.attr for path in package if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {f"{cls.__name__}.{field.name}"
              for cls in (config.ModelConfig, config.AblationConfig)
              for field in dataclasses.fields(cls) if field.name not in read}
    assert not unread, f"fields no package module reads: {sorted(unread)}"


def test_no_module_imports_a_name_it_never_reads():
    # names listed in __all__ count as read; __future__ imports bind no name
    root = Path(tensor.__file__).parent
    unused = set()
    for path in sorted([*root.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update({alias.asname or alias.name.split(".")[0]: node.lineno
                              for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                read |= {ast.literal_eval(item) for item in node.value.elts}
        unused |= {f"{path.parent.name}/{path.name}:{bound[name]} {name}"
                   for name in set(bound) - read}
    assert not unused, f"imported but never read: {sorted(unused)}"
