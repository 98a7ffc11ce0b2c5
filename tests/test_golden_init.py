"""Pins the parameters and the saved bytes of a fresh model of each variant.

The parameter values were taken from the model as it was before it was
built from stages. Equal hashes show the stages draw their random
parameters in the same order, under the same names, and that saved
artifacts keep their layout, so artifacts written before still load.
Their tensor records re-save unchanged; their header loses the
``share_pair_weights``, ``head_activation`` and ``softmax_axis`` keys,
which older files carry and the file digests below were re-taken without.
"""

import hashlib

import pytest

from bgcapsule.artifact import save_model
from bgcapsule.config import AblationConfig

from conftest import build_toy_model, toy_config

# name and the first 16 hex digits of the sha256 of its float32 bytes, in order
PARAMETERS = {
    "bgcapsule": [
        ('embedding', 'b263a2c7dfce0af5'),
        ('bigru1_fwd.w_z', '9d13a9f77927996b'),
        ('bigru1_fwd.w_r', '1c9afc0892601836'),
        ('bigru1_fwd.w_h', 'a58cb516eb417c94'),
        ('bigru1_fwd.b_z', '374708fff7719dd5'),
        ('bigru1_fwd.b_r', '374708fff7719dd5'),
        ('bigru1_fwd.b_h', '374708fff7719dd5'),
        ('bigru1_bwd.w_z', '6732fe53c3b61a8b'),
        ('bigru1_bwd.w_r', 'ff5548b260f8b04a'),
        ('bigru1_bwd.w_h', '18fac675063e1dfd'),
        ('bigru1_bwd.b_z', '374708fff7719dd5'),
        ('bigru1_bwd.b_r', '374708fff7719dd5'),
        ('bigru1_bwd.b_h', '374708fff7719dd5'),
        ('bigru2_fwd.w_z', 'c907fd9d794adc70'),
        ('bigru2_fwd.w_r', '44f8eb6dbb13bdc0'),
        ('bigru2_fwd.w_h', '10b7a1470a4abc87'),
        ('bigru2_fwd.b_z', '15ec7bf0b50732b4'),
        ('bigru2_fwd.b_r', '15ec7bf0b50732b4'),
        ('bigru2_fwd.b_h', '15ec7bf0b50732b4'),
        ('bigru2_bwd.w_z', '0e1e384f9fd095bc'),
        ('bigru2_bwd.w_r', '03d2388636af64a6'),
        ('bigru2_bwd.w_h', '6145c8b78fe73b86'),
        ('bigru2_bwd.b_z', '15ec7bf0b50732b4'),
        ('bigru2_bwd.b_r', '15ec7bf0b50732b4'),
        ('bigru2_bwd.b_h', '15ec7bf0b50732b4'),
        ('primary_caps.w', 'c33cff6e76a08f51'),
        ('primary_caps.b', '374708fff7719dd5'),
        ('routing.pair_w', '361051c0797a362c'),
        ('head.w1', 'ace730ca7c1ec79a'),
        ('head.b1', 'f5a5fd42d16a2030'),
        ('head.w2', '7edec5ea8617997f'),
        ('head.b2', 'af5570f5a1810b7a'),
    ],
    "bigru_maxpool": [
        ('embedding', 'b263a2c7dfce0af5'),
        ('bigru1_fwd.w_z', '9d13a9f77927996b'),
        ('bigru1_fwd.w_r', '1c9afc0892601836'),
        ('bigru1_fwd.w_h', 'a58cb516eb417c94'),
        ('bigru1_fwd.b_z', '374708fff7719dd5'),
        ('bigru1_fwd.b_r', '374708fff7719dd5'),
        ('bigru1_fwd.b_h', '374708fff7719dd5'),
        ('bigru1_bwd.w_z', '6732fe53c3b61a8b'),
        ('bigru1_bwd.w_r', 'ff5548b260f8b04a'),
        ('bigru1_bwd.w_h', '18fac675063e1dfd'),
        ('bigru1_bwd.b_z', '374708fff7719dd5'),
        ('bigru1_bwd.b_r', '374708fff7719dd5'),
        ('bigru1_bwd.b_h', '374708fff7719dd5'),
        ('bigru2_fwd.w_z', 'c907fd9d794adc70'),
        ('bigru2_fwd.w_r', '44f8eb6dbb13bdc0'),
        ('bigru2_fwd.w_h', '10b7a1470a4abc87'),
        ('bigru2_fwd.b_z', '15ec7bf0b50732b4'),
        ('bigru2_fwd.b_r', '15ec7bf0b50732b4'),
        ('bigru2_fwd.b_h', '15ec7bf0b50732b4'),
        ('bigru2_bwd.w_z', '0e1e384f9fd095bc'),
        ('bigru2_bwd.w_r', '03d2388636af64a6'),
        ('bigru2_bwd.w_h', '6145c8b78fe73b86'),
        ('bigru2_bwd.b_z', '15ec7bf0b50732b4'),
        ('bigru2_bwd.b_r', '15ec7bf0b50732b4'),
        ('bigru2_bwd.b_h', '15ec7bf0b50732b4'),
        ('head.w1', '92f7e6a766ca7617'),
        ('head.b1', 'f5a5fd42d16a2030'),
        ('head.w2', '0f887f3e6a037bf4'),
        ('head.b2', 'af5570f5a1810b7a'),
    ],
    "cnn_capsule": [
        ('embedding', 'b263a2c7dfce0af5'),
        ('cnn0.kernel', '5c147373f3bd4029'),
        ('cnn0.bias', '97d364e2d3d35f03'),
        ('cnn1.kernel', '71212dee7e2dff4c'),
        ('cnn1.bias', '97d364e2d3d35f03'),
        ('cnn2.kernel', '067843cda5a93340'),
        ('cnn2.bias', '97d364e2d3d35f03'),
        ('primary_caps.w', '2834d1f4e7f32555'),
        ('primary_caps.b', '374708fff7719dd5'),
        ('routing.pair_w', 'e4036a597dbcf3ea'),
        ('head.w1', '0b997aa601060f5c'),
        ('head.b1', 'f5a5fd42d16a2030'),
        ('head.w2', '969ed7b0dadb00f1'),
        ('head.b2', 'af5570f5a1810b7a'),
    ],
}

# sha256 of the whole artifact file
ARTIFACTS = {
    "bgcapsule": "ac06a57b95edb31915a3bf69bb99202c3103dd54586344af346e597ef552b2db",
    "bigru_maxpool": "2811a3953620fc748b8e2018387824fe3cf6c0e6bc7a83d5717a8dac66093e68",
    "cnn_capsule": "4afd00676e744fd72ed06afb1f7f001b3b1372c06ed5c34d82add35517089bb8",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("variant", sorted(PARAMETERS))
def test_fresh_parameters_match_pinned_hashes(variant, separable_docs):
    model, _ = build_toy_model(separable_docs, toy_config(), AblationConfig(variant=variant))
    got = [(name, digest(t.data.tobytes())[:16]) for name, t in model.parameters().items()]
    assert got == PARAMETERS[variant]


@pytest.mark.parametrize("variant", sorted(ARTIFACTS))
def test_saved_artifact_matches_pinned_bytes(variant, separable_docs, tmp_path):
    model, _ = build_toy_model(separable_docs, toy_config(), AblationConfig(variant=variant))
    path = tmp_path / "model.bgc"
    save_model(model, path)
    assert digest(path.read_bytes()) == ARTIFACTS[variant]
