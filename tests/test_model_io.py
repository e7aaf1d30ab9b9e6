import json
from pathlib import Path

import numpy as np
import pytest

from softid import presets
from softid.dynamics import iid
from softid.model_io import (
    ModelError,
    _normalize,
    chain_to_dict,
    load_chain,
    parse_chain,
    save_chain,
    validate_document,
)

from conftest import sample_state


def test_parse_all_presets():
    for name in presets.DESCRIPTIONS:
        chain = presets.load(name)
        assert chain.n > 0


def test_bundled_models_match_presets():
    # models/*.json are the preset descriptions, written out unchanged
    files = sorted((Path(__file__).parent.parent / "models").glob("*.json"))
    assert sorted(f.stem for f in files) == sorted(presets.DESCRIPTIONS)
    for f in files:
        assert json.loads(f.read_text()) == _normalize(presets.describe(f.stem)), f.name


MODELS = Path(__file__).parent.parent / "models"


@pytest.mark.parametrize("chain", [load_chain(MODELS / "pcc_2.json"), presets.planar_pcc_chain(32),
                                   load_chain(MODELS / "rigid_2r.json")], ids=["pcc_2", "planar_32", "rigid_2r"])
def test_equal_body_documents_share_one_handle(chain):
    assert all(lk.body is chain.links[0].body for lk in chain.links)
    assert chain.groups == (tuple(range(len(chain))),)


def test_different_body_documents_keep_their_handles():
    # the two cones of pgc_2 differ in their radii
    chain = load_chain(MODELS / "pgc_2.json")
    assert chain.links[0].body is not chain.links[1].body
    assert chain.groups == ((0,), (1,))


def test_roundtrip_equivalence(tmp_path, rng):
    doc = presets.pcc_description(2)
    chain = parse_chain(doc)
    path = tmp_path / "model.json"
    save_chain(chain, path)
    chain2 = load_chain(path)
    assert chain_to_dict(chain) == chain_to_dict(chain2)
    q, qd, qdd = sample_state(rng, chain.n)
    assert np.allclose(iid(chain, q, qd, qdd), iid(chain2, q, qd, qdd), atol=1e-14)


def test_validate_good_document():
    assert validate_document(presets.pcc_description(2)) == []


def test_missing_anchor_field_reported():
    doc = presets.pcc_description(1)
    doc["links"][0]["body"]["anchors"] = {"x_j": [0, 0, 0.3], "x_a": [0.005, 0, 0.3]}
    findings = validate_document(doc)
    assert findings and "x_b" in findings[0]


def test_non_orthogonal_anchors_reported():
    doc = presets.pcc_description(1)
    doc["links"][0]["body"]["anchors"] = {
        "x_j": [0, 0, 0.3], "x_a": [0.005, 0, 0.3], "x_b": [0.005, 0.005, 0.3],
    }
    findings = validate_document(doc)
    assert findings and "rigid-contact-area" in findings[0]


def test_low_order_volume_flagged():
    # conical volume is not exact at order 1 (cylinders are, by symmetry)
    doc = presets.pgc_description(1)
    doc["links"][0]["body"]["quadrature_order"] = 1
    findings = validate_document(doc)
    assert findings and "volume" in findings[0]


@pytest.mark.parametrize("order", [99, 0, [3, 4], [3], 3.5, [3.5, 8, 6], True, "8"])
def test_bad_quadrature_order_rejected(order):
    doc = presets.pcc_description(1)
    doc["links"][0]["body"]["quadrature_order"] = order
    with pytest.raises(ModelError, match="quadrature_order"):
        parse_chain(doc)
    findings = validate_document(doc)
    assert findings and "quadrature_order" in findings[0]


def test_bad_schema_version():
    with pytest.raises(ModelError, match="schema_version"):
        parse_chain({"schema_version": 99, "links": []})


def test_unknown_body_kind():
    doc = presets.pcc_description(1)
    doc["links"][0]["body"]["kind"] = "jelly"
    with pytest.raises(ModelError, match="body kind"):
        parse_chain(doc)


def test_negative_density_rejected():
    doc = presets.pcc_description(1)
    doc["links"][0]["body"]["rho"] = -1.0
    with pytest.raises(ModelError, match="rho"):
        parse_chain(doc)


def test_quaternion_base_rotation():
    doc = presets.pcc_description(1, along_y=False)
    half = np.cos(np.pi / 4), np.sin(np.pi / 4)
    doc["base"] = {"rotation": {"quaternion": [half[0], half[1], 0.0, 0.0]},
                   "translation": [0.0, 0.0, 0.5]}
    chain = parse_chain(doc)
    assert np.allclose(chain.base.translation, [0, 0, 0.5])
    # rotation by pi/2 about x maps e_z to e_y... with this sign convention
    assert np.allclose(chain.base.rotation @ [0, 0, 1.0], [0, -1.0, 0], atol=1e-12)


def test_invalid_json_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ModelError, match="invalid JSON"):
        load_chain(p)


def test_lvp_description_roundtrip(tmp_path):
    doc = presets.lvp_description()
    chain = parse_chain(doc)
    assert chain.links[0].body.free_tip
    assert chain.n == 3
    p = tmp_path / "lvp.json"
    save_chain(chain, p)
    assert chain_to_dict(load_chain(p)) == chain_to_dict(chain)


def test_link_error_names_index():
    doc = presets.pcc_description(2)
    del doc["links"][1]["body"]["geometry"]
    with pytest.raises(ModelError, match="link 1"):
        parse_chain(doc)
