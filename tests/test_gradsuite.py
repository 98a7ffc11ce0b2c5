from bgcapsule import gradsuite


def test_every_gradsuite_check_passes():
    reports = gradsuite.run_suite()
    names = [r.name for r in reports]
    assert len(names) == len(set(names))
    for attr in ("seq", "masked_seq", "padded_seq", "padded_w_z",
                 "w_z", "w_r", "w_h", "b_z", "b_r", "b_h"):
        assert f"bigru/{attr}" in names
    for attr in ("x", "kernel", "padded_x", "bias"):
        assert f"conv1d/{attr}" in names
    for axis in ("output_caps", "input_caps"):
        assert f"dynamic_routing/{axis}" in names and f"dynamic_routing/{axis}/weighted" in names
    failed = [r.line() for r in reports if not r.passed]
    assert not failed, "\n".join(failed)
