import ast
import sys
from pathlib import Path

from bgcapsule import layers, model, tensor, training

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


def _tensor_names_used(module):
    return {node.attr for node in ast.walk(_tree(module))
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "T"}


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
    for attr in ("x", "kernel", "padded_x", "bias"):
        assert f"conv1d/{attr}" in names
    for attr in ("x", "kernel", "bias"):
        assert f"cnn_capsules/{attr}" in names
    for attr in ("u", "weights"):
        assert f"predict_vectors/{attr}" in names
    for axis in ("output_caps", "input_caps"):
        assert f"dynamic_routing/{axis}" in names and f"dynamic_routing/{axis}/weighted" in names
    failed = [r.line() for r in reports if not r.passed]
    assert not failed, "\n".join(failed)

    # every op the package can record is checked, and nothing records from elsewhere
    recording = set().union(*map(_recording_functions, (tensor, layers, training)))
    assert recording == recorders, (f"not run by gradsuite: {sorted(recording - recorders)}; "
                                    f"recorded elsewhere: {sorted(recorders - recording)}")


def test_every_tensor_op_has_a_model_caller():
    ops = {name for _, name in _recording_functions(tensor)}
    used = set().union(*map(_tensor_names_used, (model, layers, training)))
    assert ops and not ops - used, f"tape ops with no model caller: {sorted(ops - used)}"
