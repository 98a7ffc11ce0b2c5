import re

import numpy as np
import numpy.testing as npt
import pytest

from bgcapsule import layers as L
from bgcapsule import tensor as T
from bgcapsule.config import AblationConfig, ModelConfig
from bgcapsule.errors import ConfigError, ContractError, DimensionError
from bgcapsule.model import BiGruEnsemble, CapsuleRouting

from conftest import inner
from oracles import (complex_step, conv1d_same_padding, conv_taped, grad_check, gru_scan,
                     routing_plain_loops, routing_taped, scalar_gru_step, squash_vector)


def f64(arr):
    return T.Tensor(np.asarray(arr), dtype=np.float64)


def make_gru(rng, input_size, hidden, dtype=np.float64):
    return L.init_gru(rng, input_size, hidden, dtype)


def zero_gru(input_size, hidden, dtype=np.float64):
    total = hidden + input_size
    return L.GruParams(
        w_z=T.zeros((total, hidden), dtype),
        w_r=T.zeros((total, hidden), dtype),
        w_h=T.zeros((total, hidden), dtype),
        b_z=T.zeros((hidden,), dtype),
        b_r=T.zeros((hidden,), dtype),
        b_h=T.zeros((hidden,), dtype),
    )


# ---------------------------------------------------------------------------
# embedding


def test_embedding_pad_id_maps_to_zero_row():
    table = T.Tensor(np.vstack([np.zeros(3), np.ones(3)]))
    out = L.embedding_forward(table, np.array([[0, 1]]))
    npt.assert_array_equal(out.data[0, 0], np.zeros(3))
    npt.assert_array_equal(out.data[0, 1], np.ones(3))


@pytest.mark.parametrize("bad_id", [2, -1])
def test_embedding_rejects_id_outside_table(bad_id):
    table = T.Tensor(np.vstack([np.zeros(3), np.ones(3)]))
    with pytest.raises(DimensionError, match="outside table with 2 rows"):
        L.embedding_forward(table, np.array([[0, bad_id]]))


def test_embedding_shape_and_frozen_no_grad():
    # a frozen table is one the tape does not watch: no node, no gradient entry
    rng = np.random.default_rng(0)
    table = T.Tensor(rng.normal(size=(5, 4)))
    ids = rng.integers(0, 5, size=(2, 7))
    with T.Tape() as tape:
        out = L.embedding_forward(table, ids)
        assert out.shape == (2, 7, 4)
        assert tape.nodes == []
        tape.backward(inner(out, 1))
    assert id(table) not in tape.gradients


def test_embedding_trainable_grad_skips_row_zero():
    rng = np.random.default_rng(1)
    table = T.Tensor(rng.normal(size=(4, 3)))
    ids = np.array([[0, 1, 1, 3]])
    with T.Tape() as tape:
        tape.watch(table)
        out = L.embedding_forward(table, ids)
        tape.backward(inner(out, 1))
        grad = tape.grad(table).data
    npt.assert_array_equal(grad[0], np.zeros(3))
    npt.assert_array_equal(grad[1], 2 * np.ones(3))
    npt.assert_array_equal(grad[2], np.zeros(3))
    npt.assert_array_equal(grad[3], np.ones(3))


# ---------------------------------------------------------------------------
# GRU equations, checked through run_gru from h = 0


def test_gru_zero_params_hand_case():
    # all weights zero, tanh(b_h) = 0.8: z = r = 0.5 and the candidate is 0.8,
    # so h_1 = 0.4, h_2 = 0.6, h_3 = 0.7 whatever the input
    params = zero_gru(1, 1)
    params.b_h = f64([np.arctanh(0.8)])
    out = L.run_gru(f64([[[5.0], [-1.0], [0.0]]]), params)
    npt.assert_allclose(out.data[0, :, 0], [0.4, 0.6, 0.7], rtol=0, atol=1e-12)


def test_gru_zero_params_halves_state():
    # each step halves the gap to the candidate tanh(b_h): h_t = (1 - 0.5^t) tanh(b_h)
    rng = np.random.default_rng(2)
    params = zero_gru(3, 4)
    params.b_h = f64(rng.normal(size=4))
    seq = f64(rng.normal(size=(2, 6, 3)))
    for reverse in (False, True):
        out = L.run_gru(seq, params, reverse=reverse).data
        steps = np.arange(6, 0, -1) if reverse else np.arange(1, 7)
        want = (1.0 - 0.5 ** steps)[:, None] * np.tanh(params.b_h.data)
        npt.assert_allclose(out, np.broadcast_to(want, out.shape), rtol=0, atol=1e-12)


def test_gru_gate_saturation_carries_state_exactly():
    rng = np.random.default_rng(3)
    params = make_gru(rng, 3, 4)
    seq = f64(rng.normal(size=(2, 5, 3)))
    # update gate shut: the zero start state is carried through every step
    params.b_z = f64(np.full(4, -1e6))
    npt.assert_array_equal(L.run_gru(seq, params).data, 0.0)
    # update gate open: each state is its candidate, read from the state before
    params.b_z = f64(np.full(4, 1e6))
    out = L.run_gru(seq, params).data
    hid = 4
    u_r, w_r = params.w_r.data[:hid], params.w_r.data[hid:]
    u_h, w_h = params.w_h.data[:hid], params.w_h.data[hid:]
    h_prev = np.concatenate([np.zeros((2, 1, hid)), out[:, :-1]], axis=1)
    r = 1.0 / (1.0 + np.exp(-(h_prev @ u_r + seq.data @ w_r + params.b_r.data)))
    candidate = np.tanh((r * h_prev) @ u_h + seq.data @ w_h + params.b_h.data)
    npt.assert_allclose(out, candidate, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", range(100))
def test_gru_scalar_vs_straight_line_oracle(case):
    rng = np.random.default_rng(1000 + case)
    w = rng.normal(size=6)
    b = rng.normal(size=3)
    x1, x2 = rng.normal(size=2)
    params = L.GruParams(
        w_z=f64([[w[0]], [w[1]]]), w_r=f64([[w[2]], [w[3]]]), w_h=f64([[w[4]], [w[5]]]),
        b_z=f64([b[0]]), b_r=f64([b[1]]), b_h=f64([b[2]]),
    )
    got = L.run_gru(f64([[[x1], [x2]]]), params).data[0, :, 0]
    weights = ((w[0], w[1]), (w[2], w[3]), (w[4], w[5]), b[0], b[1], b[2])
    h1 = scalar_gru_step(x1, 0.0, *weights)
    h2 = scalar_gru_step(x2, h1, *weights)
    npt.assert_allclose(got, [h1, h2], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# BiGRU: one run_gru per direction, channel-concatenated


def bigru(seq, p_fwd, p_bwd):
    return np.concatenate([L.run_gru(seq, p_fwd).data,
                           L.run_gru(seq, p_bwd, reverse=True).data], axis=2)


def test_bigru_output_width():
    rng = np.random.default_rng(5)
    seq = f64(rng.normal(size=(2, 4, 3)))
    out = bigru(seq, make_gru(rng, 3, 6), make_gru(rng, 3, 6))
    assert out.shape == (2, 4, 12)


def test_bigru_zero_input_zero_params_gives_zero():
    seq = T.zeros((1, 3, 2), np.float64)
    out = bigru(seq, zero_gru(2, 2), zero_gru(2, 2))
    npt.assert_array_equal(out, np.zeros((1, 3, 4)))


def test_bigru_palindrome_symmetry():
    # palindromic input with shared parameters: reversing positions swaps halves
    rng = np.random.default_rng(6)
    params = make_gru(rng, 2, 3)
    half = rng.normal(size=(1, 1, 2))
    seq = np.concatenate([half, rng.normal(size=(1, 1, 2)), half], axis=1)
    out = bigru(f64(seq), params, params)
    h = 3
    reversed_swapped = np.concatenate(
        [out[:, ::-1, h:], out[:, ::-1, :h]], axis=2
    )
    npt.assert_allclose(out, reversed_swapped, atol=1e-9)


def test_bigru_time_reversal_equivariance():
    rng = np.random.default_rng(7)
    p_fwd, p_bwd = make_gru(rng, 2, 3), make_gru(rng, 2, 3)
    seq = rng.normal(size=(2, 5, 2))
    out = bigru(f64(seq), p_fwd, p_bwd)
    flipped = bigru(f64(seq[:, ::-1, :].copy()), p_bwd, p_fwd)
    h = 3
    npt.assert_allclose(out, np.concatenate([flipped[:, ::-1, h:], flipped[:, ::-1, :h]], axis=2),
                        atol=1e-9)


def run_gru_and_unroll(rng, seq, reverse, masked, dtype=np.float64):
    """Output and all seven gradients of ``run_gru`` in ``dtype``, and the
    same of ``oracles.gru_scan`` in float64 on the same (rounded) values:
    it unrolls the GRU step by step in numpy; its gradients are complex-step."""
    n, t_len, feat = seq.shape
    hidden = 5
    params = make_gru(rng, feat, hidden, dtype)
    for name in ("b_z", "b_r", "b_h"):
        setattr(params, name, T.Tensor(rng.normal(size=hidden).astype(dtype)))
    mask = ((rng.random((n, hidden)) >= 0.4) / 0.6).astype(dtype) if masked else None
    weight = rng.normal(size=(n, t_len, hidden)).astype(dtype).astype(np.float64)
    seq = T.Tensor(seq.data.astype(dtype))
    leaves = [seq, params.w_z, params.w_r, params.w_h, params.b_z, params.b_r, params.b_h]
    with T.Tape() as tape:
        tape.watch(*leaves)
        out = L.run_gru(seq, params, reverse, mask)
        tape.backward(inner(out, weight))
        got = [out.data] + [tape.grad(leaf).data for leaf in leaves]

    args = [leaf.data.astype(np.float64) for leaf in leaves]
    mask_data = None if mask is None else mask.astype(np.float64)

    def loss_wrt(k):
        def loss(value):
            return (gru_scan(*args[:k], value, *args[k + 1:], reverse, mask_data) * weight).sum()
        return loss

    want = [gru_scan(*args, reverse, mask_data)] + [complex_step(loss_wrt(k), args[k])
                                                     for k in range(len(args))]
    return got, want


def assert_run_gru_matches_unroll(rng, seq, reverse, masked):
    for g, w in zip(*run_gru_and_unroll(rng, seq, reverse, masked)):
        npt.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_run_gru_matches_gru_step_unroll(reverse, masked):
    rng = np.random.default_rng(11)
    assert_run_gru_matches_unroll(rng, f64(rng.normal(size=(3, 6, 4))), reverse, masked)


def padded_sequence(rng, leads=(2, 4, 5)):
    """[3,7,4] with ``leads`` leading all-zero rows per row and one zero row mid-sequence.

    The default makes 12 of 21 positions padding; (0, 1, 2) makes 4 of
    21, so most rows hold text.
    """
    seq = rng.normal(size=(3, 7, 4))
    for row, lead in enumerate(leads):
        seq[row, :lead] = 0.0
    seq[0, 4] = 0.0
    return f64(seq)


@pytest.mark.parametrize("leads", [(2, 4, 5), (0, 1, 2)])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_run_gru_on_padded_rows_matches_gru_step_unroll(reverse, masked, leads):
    rng = np.random.default_rng(14)
    assert_run_gru_matches_unroll(rng, padded_sequence(rng, leads), reverse, masked)


@pytest.mark.parametrize("reverse", [False, True])
def test_float32_run_gru_stays_near_float64_unroll(reverse):
    # each bound is 2.5x the worst error, over seeds 17, 1017, ..., 4017 and
    # both directions, of a scan that computes sigmoid as 1 / (1 + exp(-a)):
    # 1.6e-7 for the output, 8.0e-7 for the gradients (of each array's max |.|)
    rng = np.random.default_rng(17)
    got, want = run_gru_and_unroll(rng, padded_sequence(rng), reverse, True, np.float32)
    assert got[0].dtype == np.float32
    for k, (g, w) in enumerate(zip(got, want)):
        bound = 4e-7 if k == 0 else 2e-6
        npt.assert_allclose(g, w, rtol=0, atol=bound * np.abs(w).max())


def test_run_gru_skips_gradient_of_a_constant_sequence():
    rng = np.random.default_rng(15)
    seq = padded_sequence(rng)
    params = make_gru(rng, 4, 5)
    leaves = [params.w_z, params.w_r, params.w_h, params.b_z, params.b_r, params.b_h]
    results = []
    for watched in ([seq], []):
        with T.Tape() as tape:
            tape.watch(*watched, *leaves)
            tape.backward(inner(L.run_gru(seq, params, reverse=True), 1))
        results.append([tape.gradients[id(leaf)] for leaf in leaves])
    assert id(seq) not in tape.gradients
    for got, want in zip(*results):
        npt.assert_array_equal(got, want)


def test_run_gru_is_one_tape_op_and_keeps_dtype():
    rng = np.random.default_rng(12)
    seq = T.Tensor(rng.normal(size=(2, 7, 3)).astype(np.float32))
    params = make_gru(rng, 3, 4, np.float32)
    with T.Tape() as tape:
        tape.watch(params.w_z, params.w_r, params.w_h)
        out = L.run_gru(seq, params, reverse=True)
    assert len(tape.nodes) == 1
    assert out.shape == (2, 7, 4) and out.dtype == np.float32


# per case: each row's count of leading zero (padding) positions, and
# (row, position) pairs of zero (OOV) rows after them
SHARED_PREFIX_CASES = {
    "mixed_lengths": ((3, 5, 6, 4), ()),
    "one_row_fills_t": ((0, 5, 6), ()),
    "all_padding": ((8, 8, 8), ()),
    "oov_rows": ((3, 5, 4), ((0, 3), (0, 4), (0, 6), (2, 6))),
    "one_row": ((3,), ()),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", sorted(SHARED_PREFIX_CASES))
def test_untaped_run_gru_matches_gru_scan(case, reverse):
    # untaped and unmasked, run_gru scans the batch's shared zero prefix for one row
    leads, oov = SHARED_PREFIX_CASES[case]
    rng = np.random.default_rng(16)
    seq = rng.normal(size=(len(leads), 8, 4))
    for row, lead in enumerate(leads):
        seq[row, :lead] = 0.0
    for row, position in oov:
        seq[row, position] = 0.0
    params = make_gru(rng, 4, 5)
    for name in ("b_z", "b_r", "b_h"):
        setattr(params, name, f64(rng.normal(size=5)))
    leaves = [params.w_z, params.w_r, params.w_h, params.b_z, params.b_r, params.b_h]
    got = L.run_gru(f64(seq), params, reverse).data
    want = gru_scan(seq, *[leaf.data for leaf in leaves], reverse)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)


# run_gru projects only the rows with text, and a step where no row has
# text reads the bias alone. Per case:
# each row's count of leading padding positions, and the positions that are
# zero in every row (one OOV word shared by the batch), over T=8.
STEP_MAP_CASES = {
    "shared_oov_step": ((3, 4, 4), (5,)),  # 10 of 24 rows live, step 5 has none
    "half_live": ((4, 4), ()),  # 8 of 16 rows live
    "one_over_half_live": ((4, 3), ()),  # 9 of 16: most rows hold text
    "all_padding": ((8, 8, 8), ()),
    "one_row": ((3,), (5,)),
}


@pytest.mark.parametrize("mode", ["recorded", "masked", "untaped"])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", sorted(STEP_MAP_CASES))
def test_run_gru_reads_the_bias_at_steps_without_text(case, reverse, mode):
    leads, shared_oov = STEP_MAP_CASES[case]
    rng = np.random.default_rng(19)
    seq = rng.normal(size=(len(leads), 8, 4))
    for row, lead in enumerate(leads):
        seq[row, :lead] = 0.0
    seq[:, list(shared_oov)] = 0.0
    if mode != "untaped":
        assert_run_gru_matches_unroll(rng, f64(seq), reverse, mode == "masked")
        return
    params = make_gru(rng, 4, 5)
    for name in ("b_z", "b_r", "b_h"):
        setattr(params, name, f64(rng.normal(size=5)))
    leaves = [params.w_z, params.w_r, params.w_h, params.b_z, params.b_r, params.b_h]
    want = gru_scan(seq, *[leaf.data for leaf in leaves], reverse)
    npt.assert_allclose(L.run_gru(f64(seq), params, reverse).data, want, rtol=0, atol=1e-12)


GRU_ARRAYS = ("w_z", "w_r", "w_h", "b_z", "b_r", "b_h")


def padded_gru_case(dtype=np.float64):
    """GRU params with nonzero biases, and a [2,8,4] batch led by 3 and 5 padding rows."""
    rng = np.random.default_rng(18)
    params = L.GruParams(*[T.Tensor(rng.normal(size=shape).astype(dtype))
                           for shape in [(9, 5)] * 3 + [(5,)] * 3])
    seq = rng.normal(size=(2, 8, 4)).astype(dtype)
    seq[0, :3] = seq[1, :5] = 0.0
    return params, T.Tensor(seq)


def fresh_scan(params, seq, reverse=False):
    """``run_gru`` on new ``GruParams`` holding copies of ``params``' values."""
    copies = L.GruParams(*[T.Tensor(getattr(params, name).data.copy()) for name in GRU_ARRAYS])
    return L.run_gru(seq, copies, reverse).data


@pytest.mark.parametrize("name", GRU_ARRAYS)
def test_untaped_run_gru_sees_a_padding_array_changed_in_place(name):
    # the h-rows of a weight, or a bias: both shape the padding trajectory
    params, seq = padded_gru_case()
    before = L.run_gru(seq, params).data
    getattr(params, name).data[0] += 0.5
    for rows in (seq, T.Tensor(seq.data[1:])):
        got = L.run_gru(rows, params).data
        npt.assert_array_equal(got, fresh_scan(params, rows))
    assert not np.array_equal(L.run_gru(seq, params).data, before)


def test_untaped_run_gru_keeps_its_padding_trajectory_when_only_x_rows_change():
    params, seq = padded_gru_case()
    L.run_gru(seq, params)
    trajectory = params.padding[2]
    params.w_h.data[-1] += 0.5
    npt.assert_array_equal(L.run_gru(seq, params).data, fresh_scan(params, seq))
    assert params.padding[2] is trajectory


def test_untaped_run_gru_in_float64_after_float32_matches_a_fresh_scan():
    params, seq = padded_gru_case(np.float32)
    L.run_gru(seq, params)
    # the same values in float64 compare equal to the float32 copies
    for name in GRU_ARRAYS:
        getattr(params, name).data = getattr(params, name).data.astype(np.float64)
    seq64 = T.Tensor(seq.data, dtype=np.float64)
    got = L.run_gru(seq64, params).data
    assert got.dtype == np.float64
    npt.assert_array_equal(got, fresh_scan(params, seq64))


def test_untaped_run_gru_with_nan_weights_matches_a_fresh_scan(monkeypatch):
    monkeypatch.setattr(T, "_check_finite", False)
    params, seq = padded_gru_case()
    finite = L.run_gru(seq, params).data
    for name in ("w_r", "b_h"):
        kept = getattr(params, name).data[0].copy()
        getattr(params, name).data[0] = np.nan
        for _ in range(2):
            got = L.run_gru(seq, params).data
            assert np.isnan(got).any()
            npt.assert_array_equal(got, fresh_scan(params, seq))
        getattr(params, name).data[0] = kept
        npt.assert_array_equal(L.run_gru(seq, params).data, finite)


def test_run_gru_rejects_input_width_its_weights_do_not_take():
    params = make_gru(np.random.default_rng(13), 3, 2)
    with pytest.raises(DimensionError):
        L.run_gru(f64(np.zeros((1, 2, 4))), params)


@pytest.mark.parametrize("name, shape", [("w_r", (8, 4)), ("b_h", (4,))])
def test_run_gru_names_a_tensor_whose_shape_differs_from_w_z(name, shape):
    params = L.init_gru(np.random.default_rng(13), 5, 3)
    getattr(params, name).data = np.zeros(shape, np.float32)
    want = (8, 3) if name[0] == "w" else (3,)
    with pytest.raises(DimensionError, match=re.escape(
            f"GRU {name} has shape {shape}, but w_z (8, 3) needs {want}")):
        L.run_gru(T.Tensor(np.ones((1, 2, 5), np.float32)), params)


def test_ensemble_channel_counts_and_concat_fidelity(monkeypatch):
    cfg = ModelConfig(embed_dim=2, bigru_sizes=[4, 3], dropout=0.0)
    ensemble = BiGruEnsemble(cfg, AblationConfig(), 2, L.drawing(np.random.default_rng(8),
                                                                  np.float64))
    seq = np.random.default_rng(9).normal(size=(2, 3, 2))
    seq[1, 0] = 0.0
    seq = f64(seq)
    found = []
    real = L.text_rows
    monkeypatch.setattr(L, "text_rows", lambda data: found.append(data) or real(data))
    out, live = ensemble.forward(seq, None)
    assert out.shape == (2, 3, 14) and ensemble.width == 14 and live is None
    # the four scans share one reduction of the batch to its rows with text
    assert len(found) == 1 and found[0] is seq.data
    # bigru1 forward, bigru1 backward, bigru2 forward, bigru2 backward, each
    # finding the same rows on its own
    (f1, b1), (f2, b2) = ensemble.bigru1, ensemble.bigru2
    parts = [L.run_gru(seq, f1), L.run_gru(seq, b1, reverse=True),
             L.run_gru(seq, f2), L.run_gru(seq, b2, reverse=True)]
    assert len(found) == 5
    npt.assert_array_equal(out.data, np.concatenate([p.data for p in parts], axis=2))


def test_ensemble_default_width_912():
    # 2*256 + 2*200 channels at the paper's sizes over 300-d embeddings
    ensemble = BiGruEnsemble(ModelConfig(), AblationConfig(), 300,
                             L.drawing(np.random.default_rng(8)))
    assert ensemble.width == 912


# ---------------------------------------------------------------------------
# squash


def test_squash_zero_vector():
    out = L.squash(f64(np.zeros(20)))
    npt.assert_array_equal(out.data, np.zeros(20))


def test_squash_unit_norm_halves():
    s = np.zeros(8)
    s[3] = 1.0
    out = L.squash(f64(s)).data
    assert np.linalg.norm(out) == pytest.approx(0.5, abs=1e-9)
    npt.assert_allclose(out / np.linalg.norm(out), s, atol=1e-12)


def test_squash_norm_ten():
    rng = np.random.default_rng(9)
    v = rng.normal(size=6)
    v = 10.0 * v / np.linalg.norm(v)
    out = L.squash(f64(v)).data
    assert np.linalg.norm(out) == pytest.approx(100.0 / 101.0, abs=1e-9)


def test_squash_matches_vector_oracle_batched():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 5, 3))
    out = L.squash(T.Tensor(x, dtype=np.float64)).data
    for n in range(4):
        for i in range(5):
            npt.assert_allclose(out[n, i], squash_vector(x[n, i]), atol=1e-12)


def test_squash_gradient_including_zero_branch():
    rng = np.random.default_rng(11)
    report = grad_check(
        lambda t: inner(L.squash(t)),
        f64(rng.normal(size=20)),
        name="squash",
    )
    assert report.passed, report.line()

    with T.Tape() as tape:
        z = f64(np.zeros(4))
        tape.watch(z)
        tape.backward(inner(L.squash(z), 1))
        npt.assert_array_equal(tape.grad(z).data, np.zeros(4))


# ---------------------------------------------------------------------------
# primary capsules and prediction vectors


def test_primary_capsules_shapes_and_norms():
    rng = np.random.default_rng(12)
    feats = f64(rng.normal(size=(2, 5, 6)))
    w = f64(rng.normal(size=(6, 8)))
    b = T.zeros((8,), np.float64)
    caps = L.primary_capsules(feats, w, b, caps_per_pos=2, caps_dim=4)
    assert caps.shape == (2, 10, 4)
    norms = np.linalg.norm(caps.data, axis=-1)
    assert np.all(norms < 1.0)


def test_primary_capsules_zero_features_zero_capsules():
    caps = L.primary_capsules(T.zeros((1, 3, 4), np.float64), T.zeros((4, 2), np.float64),
                              T.zeros((2,), np.float64), 1, 2)
    npt.assert_array_equal(caps.data, np.zeros((1, 3, 2)))


def test_primary_capsules_config_error():
    with pytest.raises(ConfigError):
        L.primary_capsules(T.zeros((1, 3, 4)), T.zeros((4, 5)), T.zeros((5,)), 1, 2)


def test_predict_vectors_identity_weights():
    rng = np.random.default_rng(13)
    u = rng.normal(size=(2, 3, 4))
    w = np.broadcast_to(np.eye(4), (5, 4, 4)).copy()
    out = L.predict_vectors(T.Tensor(u, dtype=np.float64), f64(w)).data
    for j in range(5):
        npt.assert_allclose(out[:, j, :, :], u, atol=1e-12)


def test_predict_vectors_hand_product_single_pair():
    u = f64([[[1.0, 2.0]]])  # N=1, I=1, D=2
    w = f64([[[3.0, 0.0], [0.0, 5.0]]])  # J=1, D=2, D'=2  (u @ W)
    out = L.predict_vectors(u, w).data
    npt.assert_allclose(out[0, 0, 0], [3.0, 10.0])


def test_predict_vectors_rejects_per_pair_weights():
    u = f64(np.ones((1, 3, 2)))  # N=1, I=3, D=2
    with pytest.raises(DimensionError, match=re.escape("(1, 3, 2, 2) are not [J, D, D']")):
        L.predict_vectors(u, f64(np.ones((1, 3, 2, 2))))  # J=1, I=3, D=2, D'=2
    with pytest.raises(DimensionError, match=re.escape("(3, 2) are not [N, I, D]")):
        L.predict_vectors(f64(np.ones((3, 2))), f64(np.ones((1, 2, 2))))


def test_predict_vectors_adjoints_match_plain_sums():
    rng = np.random.default_rng(15)
    n, i_count, d, j_count, e = 2, 3, 4, 2, 3
    u, w = f64(rng.normal(size=(n, i_count, d))), f64(rng.normal(size=(j_count, d, e)))
    g = rng.normal(size=(n, j_count, i_count, e))
    with T.Tape() as tape:
        tape.watch(u, w)
        tape.backward(inner(L.predict_vectors(u, w), g))
    du = np.zeros(u.shape)
    dw = np.zeros(w.shape)
    for b, i, k in np.ndindex(u.shape):
        du[b, i, k] = sum(g[b, j, i, f] * w.data[j, k, f]
                          for j in range(j_count) for f in range(e))
    for j, k, f in np.ndindex(w.shape):
        dw[j, k, f] = sum(g[b, j, i, f] * u.data[b, i, k]
                          for b in range(n) for i in range(i_count))
    npt.assert_allclose(tape.grad(u).data, du, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(tape.grad(w).data, dw, rtol=1e-12, atol=1e-12)


def test_predict_vectors_gradient():
    rng = np.random.default_rng(14)
    u = f64(rng.normal(size=(1, 2, 3)))
    w = rng.normal(size=(2, 3, 3))
    report = grad_check(
        lambda t: inner(L.predict_vectors(u, t)),
        f64(w),
        name="predict_vectors",
    )
    assert report.passed, report.line()


# ---------------------------------------------------------------------------
# dynamic routing


def test_routing_single_iteration_uniform_couplings():
    rng = np.random.default_rng(15)
    j_count = 4
    u_hat = rng.normal(size=(1, j_count, 3, 5))
    v, info = L.dynamic_routing(T.Tensor(u_hat, dtype=np.float64), iterations=1)
    npt.assert_allclose(info.coupling_history[-1], np.full((1, 3, j_count), 1.0 / j_count),
                        atol=1e-12)
    for j in range(j_count):
        expected = squash_vector(u_hat[0, j].sum(axis=0) / j_count)
        npt.assert_allclose(v.data[0, j], expected, atol=1e-10)


def test_routing_degenerate_single_pair():
    u_hat = np.array([[[[3.0, 4.0]]]])  # N=1, J=1, I=1, D=2
    v, info = L.dynamic_routing(T.Tensor(u_hat, dtype=np.float64), iterations=2)
    npt.assert_allclose(info.coupling_history[-1], np.ones((1, 1, 1)))
    npt.assert_allclose(v.data[0, 0], squash_vector([3.0, 4.0]), atol=1e-12)


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_routing_matches_plain_loop_oracle(iterations):
    rng = np.random.default_rng(16 + iterations)
    i_count, j_count, dim = 5, 3, 8
    u_hat = rng.normal(size=(2, j_count, i_count, dim))
    v, info = L.dynamic_routing(T.Tensor(u_hat, dtype=np.float64), iterations)
    for n in range(2):
        want_v, want_c, history = routing_plain_loops(u_hat[n], iterations)
        npt.assert_allclose(v.data[n], want_v, rtol=0, atol=1e-12)
        npt.assert_allclose(info.coupling_history[-1][n], want_c, rtol=0, atol=1e-12)
        for step, c_hist in enumerate(history):
            npt.assert_allclose(info.coupling_history[step][n], c_hist, rtol=0, atol=1e-12)


def test_routing_coupling_rows_sum_to_one_every_iteration():
    rng = np.random.default_rng(20)
    u_hat = T.Tensor(rng.normal(size=(3, 4, 6, 2)), dtype=np.float64)
    _, info = L.dynamic_routing(u_hat, iterations=3)
    for c in info.coupling_history:
        npt.assert_allclose(c.sum(axis=2), np.ones((3, 6)), rtol=0, atol=1e-12)


def test_routing_permutation_invariance():
    rng = np.random.default_rng(21)
    u_hat = rng.normal(size=(1, 3, 6, 4))
    perm = rng.permutation(6)
    v1, _ = L.dynamic_routing(T.Tensor(u_hat, dtype=np.float64), 3)
    v2, _ = L.dynamic_routing(T.Tensor(u_hat[:, :, perm, :], dtype=np.float64), 3)
    npt.assert_allclose(v1.data, v2.data, rtol=0, atol=1e-12)


def routing_and_grad(route, u_hat, upstream):
    """``route(tensor)`` -> (v, logits [N,I,J], history), and d sum(v*upstream)/d u_hat."""
    with T.Tape() as tape:
        u = f64(u_hat)
        tape.watch(u)
        v, logits, history = route(u)
        tape.backward(inner(v, upstream))
        return v.data, logits, history, tape.grad(u).data


def fused(iterations, weights=None):
    def route(u):
        v, info = L.dynamic_routing(u, iterations, weights)
        return v, info.logits, info.coupling_history
    return route


def test_fused_routing_matches_taped_oracle():
    rng = np.random.default_rng(40)
    u_hat = rng.normal(size=(3, 4, 7, 5))
    upstream = rng.normal(size=(3, 4, 5))
    got = routing_and_grad(fused(3), u_hat, upstream)
    want = routing_and_grad(lambda u: routing_taped(u, 3), u_hat, upstream)
    for g, w in zip(got[:2], want[:2]):
        npt.assert_allclose(g, w, rtol=0, atol=1e-12)
    assert len(got[2]) == len(want[2]) == 3
    for g, w in zip(got[2], want[2]):
        npt.assert_allclose(g, w, rtol=0, atol=1e-12)
    npt.assert_allclose(got[3], want[3], rtol=0, atol=1e-12)


def test_routing_duplicates_equal_distinct_capsules_with_counts():
    # three distinct capsules standing for 3, 1 and 2 copies, plus a
    # zero-weight entry that repeats the first, as batch padding does
    rng = np.random.default_rng(41)
    distinct = rng.normal(size=(2, 3, 3, 4))
    copies = np.array([0, 2, 0, 1, 2, 0])  # distinct capsule of each copy
    merged = np.concatenate([distinct, distinct[:, :, :1]], axis=2)
    counts = np.array([3.0, 1.0, 2.0, 0.0])
    upstream = rng.normal(size=(2, 3, 4))
    v, logits, history, grad = routing_and_grad(
        fused(3), distinct[:, :, copies], upstream)
    v_m, logits_m, history_m, grad_m = routing_and_grad(
        fused(3, np.tile(counts, (2, 1))), merged, upstream)
    npt.assert_allclose(v_m, v, rtol=0, atol=1e-12)
    npt.assert_allclose(logits_m[:, copies], logits, rtol=0, atol=1e-12)
    for c_m, c in zip(history_m, history):
        npt.assert_allclose(c_m[:, copies], c, rtol=0, atol=1e-12)
    summed = np.stack([grad[:, :, copies == k].sum(axis=2) for k in range(3)], axis=2)
    npt.assert_allclose(grad_m[:, :, :3], summed, rtol=0, atol=1e-12)
    npt.assert_array_equal(grad_m[:, :, 3], 0.0)


def test_routing_without_gradient_records_nothing_to_replay():
    u_hat = f64(np.random.default_rng(42).normal(size=(1, 2, 3, 4)))
    with T.Tape() as tape:
        v, _ = L.dynamic_routing(u_hat, 3)
        tape.backward(inner(v, 1))
    assert id(u_hat) not in tape.gradients


def test_routing_identical_predictions_identical_coupling_rows():
    rng = np.random.default_rng(22)
    row = rng.normal(size=(1, 3, 1, 4))
    u_hat = np.tile(row, (1, 1, 5, 1))
    _, info = L.dynamic_routing(T.Tensor(u_hat, dtype=np.float64), 3)
    couplings = info.coupling_history[-1]
    for i in range(1, 5):
        npt.assert_allclose(couplings[0, i], couplings[0, 0], atol=1e-9)


def test_routing_rejects_zero_iterations():
    with pytest.raises(ContractError):
        L.dynamic_routing(T.zeros((1, 2, 2, 2)), 0)


def test_routing_full_unroll_gradient():
    rng = np.random.default_rng(23)
    u_hat = rng.normal(size=(2, 2, 3, 4))
    for weights in (None, np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0]])):
        def target(t):
            v, _ = L.dynamic_routing(t, 3, weights)
            return inner(v)

        report = grad_check(target, f64(u_hat), name="dynamic_routing")
        assert report.passed, report.line()


# ---------------------------------------------------------------------------
# flatten + head


def routed_and_flat(cfg, features):
    """``CapsuleRouting``'s routed capsules [N,J,D'] and its flat output."""
    stage = CapsuleRouting(cfg, AblationConfig(), features.shape[2],
                           L.drawing(np.random.default_rng(30), np.float64))
    flat = stage.forward(features)
    caps = L.primary_capsules(features, stage.caps_w, stage.caps_b,
                              cfg.primary_caps_per_pos, cfg.caps_dim)
    v, _ = L.dynamic_routing(L.predict_vectors(caps, stage.pair_w), cfg.routing_iters)
    return v.data, flat


def test_flatten_capsules_layout():
    cfg = ModelConfig(max_len=5, caps_dim=4, routed_caps=3, routed_caps_dim=4, routing_iters=2)
    features = f64(np.random.default_rng(31).normal(size=(2, 5, 6)))
    v, flat = routed_and_flat(cfg, features)
    assert flat.shape == (2, 12)
    # element (j, d) lands at j*D + d
    for j in range(3):
        for d in range(4):
            npt.assert_array_equal(flat.data[:, j * 4 + d], v[:, j, d])


def test_flatten_default_width():
    cfg = ModelConfig(max_len=3)  # routed_caps 10 x routed_caps_dim 20 by default
    v, flat = routed_and_flat(cfg, T.zeros((2, 3, 4), np.float64))
    assert v.shape == (2, 10, 20) and flat.shape == (2, 200)


def test_dense_head_rows_sum_to_one_and_uniform_at_zero():
    rng = np.random.default_rng(24)
    x = f64(rng.normal(size=(3, 6)))
    zero = L.HeadParams(
        w1=T.zeros((6, 5), np.float64), b1=T.zeros((5,), np.float64),
        w2=T.zeros((5, 4), np.float64), b2=T.zeros((4,), np.float64),
    )
    logits = L.dense_head(x, zero)
    npt.assert_array_equal(logits.data, np.zeros((3, 4)))
    probs = T.softmax(logits, axis=1).data
    npt.assert_allclose(probs, np.full((3, 4), 0.25), atol=1e-12)

    params = L.head_params(L.drawing(rng, np.float64), 6, 5, 4)
    probs = T.softmax(L.dense_head(x, params), axis=1).data
    npt.assert_allclose(probs.sum(axis=1), np.ones(3), atol=1e-6)


# ---------------------------------------------------------------------------
# ablation blocks


def test_max_pool_window_max():
    x = np.array([1.0, 3.0, 2.0, 0.0]).reshape(1, 4, 1)
    out = L.max_pool_routing(T.Tensor(x, dtype=np.float64), window=4)
    assert out.data[0, 0, 0] == 3.0


def test_max_pool_constant_input():
    x = np.full((2, 8, 3), 1.5)
    out = L.max_pool_routing(T.Tensor(x, dtype=np.float64), window=4)
    npt.assert_array_equal(out.data, np.full((2, 2, 3), 1.5))


def test_max_pool_drops_trailing_remainder():
    x = T.Tensor(np.arange(10, dtype=np.float64).reshape(1, 10, 1))
    out = L.max_pool_routing(x, window=4)
    npt.assert_array_equal(out.data[:, :, 0], [[3.0, 7.0]])


def test_max_pool_gradient_routes_to_argmax():
    x = np.array([[0.1, 0.9, 0.4, 0.2], [0.5, 0.5, 0.5, 0.5]]).reshape(2, 4, 1)
    with T.Tape() as tape:
        xt = f64(x)
        tape.watch(xt)
        out = L.max_pool_routing(xt, window=4)
        tape.backward(inner(out, 1))
        grad = tape.grad(xt).data
    npt.assert_array_equal(grad[0, :, 0], [0.0, 1.0, 0.0, 0.0])
    # ties break toward the earliest position
    npt.assert_array_equal(grad[1, :, 0], [1.0, 0.0, 0.0, 0.0])


def test_max_pool_gradient_vs_fd_off_ties():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(2, 8, 3))
    report = grad_check(
        lambda t: inner(L.max_pool_routing(t, 4)),
        f64(x),
        name="max_pool",
    )
    assert report.passed, report.line()


def test_max_pool_contract_error():
    with pytest.raises(ContractError):
        L.max_pool_routing(T.zeros((1, 4, 1)), 0)


def conv_at_every_position(x, kernel, bias):
    """The convolution ``cnn_feature_extractor`` computes with one kernel, at
    every position [N,T,C]: with y its output, relu(y) - relu(-y) = y, taken
    from the kernel and from its negation, whose layout is the same."""
    def relu_at_positions(k, b):
        out, distinct = L.cnn_feature_extractor(x, [k], [b])
        return out.data.reshape(-1, out.shape[2])[distinct.entry_rows].reshape(*x.shape[:2], -1)

    return relu_at_positions(kernel, bias) - relu_at_positions(f64(-kernel.data), f64(-bias.data))


def every_position_sq(x, kernel, bias):
    """Sum over every position of the squared features of one kernel: each
    entry weighted by the count of positions it stands for, so the sum stays
    smooth when a zero row turns nonzero and the entries change."""
    out, distinct = L.cnn_feature_extractor(x, [kernel], [bias])
    flat = T.reshape(out, (-1, out.shape[2]))
    return inner(flat, T.matmul(T.Tensor(np.diag(distinct.counts.ravel()), out.dtype), flat))


def test_conv1d_matches_hand_oracle():
    rng = np.random.default_rng(26)
    x = rng.normal(size=(5, 3))
    k = rng.normal(size=(3, 3, 2))
    b = rng.normal(size=2)
    out = conv_at_every_position(T.Tensor(x[None], dtype=np.float64), f64(k), f64(b))[0]
    npt.assert_allclose(out, conv1d_same_padding(x, k, b), atol=1e-10)


def test_conv1d_width3_detects_spike():
    # a crafted averaging kernel responds most where the spike is centered
    x = np.zeros((1, 9, 1))
    x[0, 4, 0] = 1.0
    k = np.zeros((3, 1, 1))
    k[1, 0, 0] = 2.0
    k[0, 0, 0] = k[2, 0, 0] = 1.0
    out = conv_at_every_position(T.Tensor(x, dtype=np.float64), f64(k), T.zeros((1,), np.float64))
    assert out[0, :, 0].argmax() == 4
    npt.assert_allclose(out[0, 3:6, 0], [1.0, 2.0, 1.0])


def test_conv1d_same_length_output():
    # every position is live, so each is its own entry, in order
    rng = np.random.default_rng(27)
    for width in (1, 2, 3, 4, 5):
        k = f64(rng.normal(size=(width, 2, 3)))
        out, distinct = L.cnn_feature_extractor(f64(rng.normal(size=(1, 7, 2))), [k],
                                                 [T.zeros((3,), np.float64)])
        assert out.shape == (1, 7, 3)
        npt.assert_array_equal(distinct.rows, np.arange(7))


def test_conv1d_gradients():
    rng = np.random.default_rng(28)
    x = rng.normal(size=(2, 6, 2))
    k = rng.normal(size=(4, 2, 3))
    b = rng.normal(size=3)
    kt, bt = f64(k), f64(b)

    def wrt_x(t):
        y, _ = L.cnn_feature_extractor(t, [kt], [bt])
        return inner(y)

    assert grad_check(wrt_x, f64(x), name="conv-x").passed

    xt = f64(x)

    def wrt_k(t):
        y, _ = L.cnn_feature_extractor(xt, [t], [bt])
        return inner(y)

    assert grad_check(wrt_k, f64(k), name="conv-k").passed


def test_conv1d_skips_gradient_of_a_constant_input():
    rng = np.random.default_rng(30)
    x = f64(rng.normal(size=(2, 6, 2)))
    kernel, bias = f64(rng.normal(size=(3, 2, 3))), f64(rng.normal(size=3))
    results = []
    for watched in ([x], []):
        with T.Tape() as tape:
            tape.watch(*watched, kernel, bias)
            y, _ = L.cnn_feature_extractor(x, [kernel], [bias])
            tape.backward(inner(y))
        results.append([tape.gradients[id(kernel)], tape.gradients[id(bias)]])
    assert id(x) not in tape.gradients
    for got, want in zip(*results):
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_conv1d_on_padded_input_matches_oracle(width):
    # pre-padded like ``pad_prepend``: one doc led by a zero run longer than
    # any kernel, one with an all-zero token vector inside its text
    rng = np.random.default_rng(32 + width)
    x = rng.normal(size=(2, 10, 2))
    x[0, :6] = 0.0
    x[1, :1] = x[1, 5] = 0.0
    kernel = f64(rng.normal(size=(width, 2, 3)))
    # one channel live where a window sees only padding, one cut by the ReLU
    bias = f64(np.abs(rng.normal(size=3)) * [1.0, -1.0, 1.0])
    out = conv_at_every_position(f64(x), kernel, bias)
    for doc in range(2):
        npt.assert_allclose(out[doc], conv1d_same_padding(x[doc], kernel.data, bias.data),
                            rtol=1e-12, atol=1e-12)

    def loss(x_t):
        return every_position_sq(x_t, kernel, bias)

    # zero rows covered only by all-zero windows still get gradient from them
    assert grad_check(loss, f64(x), name="conv-padded-x").passed
    xt = f64(x)
    assert grad_check(lambda _: loss(xt), kernel, name="conv-padded-k").passed
    assert grad_check(lambda _: loss(xt), bias, name="conv-padded-b").passed

    results = []
    for watched in ([xt], []):
        with T.Tape() as tape:
            tape.watch(*watched, kernel, bias)
            tape.backward(loss(xt))
        results.append([tape.gradients[id(kernel)], tape.gradients[id(bias)]])
    assert id(xt) not in tape.gradients
    for got, want in zip(*results):
        npt.assert_array_equal(got, want)


def test_conv1d_bias_gradient_is_summed_in_float64():
    # most positions see only padding, so a dead entry's gradient sums about
    # 180 positions'; a plain float32 sum of the entries' gradient is off by
    # 4.4e-7 relative here, and the float64 sum rounded once by 2**-24 at most
    rng = np.random.default_rng(33)
    x = np.zeros((64, 200, 8), np.float32)
    for doc, length in enumerate(rng.integers(5, 30, size=64)):
        x[doc, 200 - length:] = rng.normal(size=(length, 8))
    kernel = T.Tensor(rng.normal(size=(3, 8, 8)).astype(np.float32))
    bias = T.Tensor(np.full(8, 0.5, np.float32))
    with T.Tape() as tape:
        tape.watch(bias)
        y, distinct = L.cnn_feature_extractor(T.Tensor(x), [kernel], [bias])
        per_position = rng.uniform(0.5, 1.0, size=y.shape).astype(np.float32)
        upstream = per_position * distinct.counts[:, :, None].astype(np.float32)
        tape.backward(inner(y, upstream))
        grad_b = tape.grad(bias).data
    assert grad_b.dtype == np.float32
    npt.assert_allclose(grad_b, (upstream * (y.data > 0)).sum(axis=(0, 1), dtype=np.float64),
                        rtol=1e-7)


def test_cnn_feature_extractor_concat_width():
    rng = np.random.default_rng(29)
    x = f64(rng.normal(size=(1, 6, 4)))
    kernels = [f64(rng.normal(size=(w, 4, 2))) for w in (3, 4, 5)]
    biases = [T.zeros((2,), np.float64) for _ in range(3)]
    out, distinct = L.cnn_feature_extractor(x, kernels, biases)
    # every position is live, so each is its own entry
    assert out.shape == (1, 6, 6) and distinct.counts.shape == (1, 6)
    assert (distinct.counts == 1).all()
    npt.assert_array_equal(distinct.rows, np.arange(6))
    assert np.all(out.data >= 0)  # ReLU


def padded_batch(rng, feat):
    """Seven docs of 12 rows, pre-padded like ``pad_prepend``: one full, one
    with all-zero rows inside its text, one of unknown tokens only, and a
    full one with a gap wide enough for dead positions inside it, so it is
    live at position 0 and yet has fewer entries than the full one."""
    x = np.zeros((7, 12, feat))
    for doc, length in enumerate((12, 9, 0, 3, 1, 6, 12)):
        x[doc, 12 - length:] = rng.normal(size=(length, feat))
    x[1, 4:9] = 0.0
    x[6, 3:9] = 0.0
    return x


def merged_and_each_width(rng, widths, watched):
    """Check ``cnn_feature_extractor`` over ``padded_batch``, one kernel per
    width, against the same widths composed of tape ops by ``conv_taped``,
    each ReLU'd and concatenated, at every position: the outputs at each
    entry's position, and the gradients of input, kernels and biases when
    an entry's upstream gradient is the sum of its positions' (dyadic
    values, so that every sum is exact), equal to rounding. Returns the
    op's outputs and gradients, and its layout."""
    x = f64(padded_batch(rng, 3))
    kernels = [f64(rng.normal(size=(w, 3, 2))) for w in widths]
    biases = [f64(rng.normal(size=2)) for _ in kernels]
    results = []
    for merged in (True, False):
        with T.Tape() as tape:
            tape.watch(*([x] if watched else []), *kernels, *biases)
            if merged:
                out, distinct = L.cnn_feature_extractor(x, kernels, biases)
                channels = out.shape[2]
                per_position = rng.integers(-8, 9, size=(distinct.rows.size, channels)) / 8.0
                upstream = per_position * distinct.counts.reshape(-1, 1)
                got = out.data
            else:
                out = T.concat([T.relu(conv_taped(x, k, b)) for k, b in zip(kernels, biases)],
                               axis=2)
                upstream = per_position[distinct.entry_rows]
                got = out.data.reshape(-1, channels)[distinct.rows]
            tape.backward(inner(out, upstream.reshape(out.shape)))
        results.append([got.reshape(-1, channels)]
                       + [tape.gradients.get(id(t)) for t in (x, *kernels, *biases)])
    for got, want in zip(*results):
        if want is None:
            assert got is None
        else:
            npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    return results[0], distinct


@pytest.mark.parametrize("watched", [False, True])
def test_cnn_feature_extractor_pads_once_as_each_width_would(watched):
    # the batch's widest windows, gathered once, give each width's
    # convolution at every position, as ``conv_taped`` composes it, to
    # rounding: outputs and every gradient
    (entries, *_), distinct = merged_and_each_width(np.random.default_rng(34), (2, 3, 4, 5),
                                                    watched)
    assert (distinct.counts > 1).any()
    # padding entries repeat entry 0, as dynamic_routing wants of a
    # zero-weight capsule; doc 6 is live there, doc 2 dead
    padding = distinct.counts == 0
    assert padding[6].any() and distinct.counts[6, 0] == 1 and padding[2].any()
    entries = entries.reshape(7, distinct.counts.shape[1], -1)
    npt.assert_array_equal(entries[padding],
                           np.broadcast_to(entries[:, :1], entries.shape)[padding])


def test_cnn_feature_extractor_takes_widths_in_any_order():
    # each width's columns of the shared im2col and its channels of the
    # output follow the order the kernels are given in, not their widths
    merged_and_each_width(np.random.default_rng(37), (5, 2, 4, 3), watched=True)


def test_cnn_feature_extractor_live_positions():
    # live where a window of some width covers a nonzero row: for widths
    # 2..5 that is rows t-2 .. t+2. Each live position is its own entry;
    # one entry stands for all of a document's dead ones.
    rng = np.random.default_rng(35)
    x = padded_batch(rng, 3)
    kernels = [f64(rng.normal(size=(w, 3, 2))) for w in (2, 3, 4, 5)]
    biases = [T.zeros((2,), np.float64) for _ in kernels]
    _, distinct = L.cnn_feature_extractor(f64(x), kernels, biases)
    rows = x.any(axis=2)
    live = np.array([[rows[n, max(t - 2, 0):t + 3].any() for t in range(12)] for n in range(7)])
    assert live[0].all() and not live[2].any() and not live[1, 6] and not live[6, 6]
    counts, entry = distinct.counts, distinct.entry
    reads = distinct.rows.reshape(counts.shape)
    for n in range(7):
        own = entry[n, live[n]]
        assert len(set(own)) == len(own) and (counts[n, own] == 1).all()
        npt.assert_array_equal(reads[n, own], n * 12 + np.flatnonzero(live[n]))
        dead = entry[n, ~live[n]]
        if len(dead):
            assert (dead == dead[0]).all() and counts[n, dead[0]] == len(dead)
            assert dead[0] not in own
        assert counts[n].sum() == 12


def test_cnn_feature_extractor_is_one_tape_op():
    rng = np.random.default_rng(36)
    x = f64(padded_batch(rng, 3))
    kernels = [f64(rng.normal(size=(w, 3, 2))) for w in (3, 4, 5)]
    biases = [f64(rng.normal(size=2)) for _ in kernels]
    with T.Tape() as tape:
        tape.watch(x, *kernels, *biases)
        out, _ = L.cnn_feature_extractor(x, kernels, biases)
    assert len(tape.nodes) == 1 and tape.nodes[0].output is out


@pytest.mark.parametrize("kernel_shapes, bias_sizes, match", [
    ([(3, 3, 4), (3, 3, 4)], [4], "2 kernels but 1 biases"),
    ([(3, 3, 4)], [5], r"biases\[0\] \(5,\)"),
    ([], [], "no kernels"),
    ([(3, 3, 4), (4, 2, 4)], [4, 4], r"kernels\[1\] \(4, 2, 4\)"),
], ids=["bias_missing", "bias_size", "no_kernel", "kernel_input_width"])
def test_cnn_feature_extractor_names_a_mismatched_tensor(kernel_shapes, bias_sizes, match):
    kernels = [T.zeros(shape) for shape in kernel_shapes]
    biases = [T.zeros((size,)) for size in bias_sizes]
    with pytest.raises(DimensionError, match=match):
        L.cnn_feature_extractor(T.zeros((1, 6, 3)), kernels, biases)
