"""The strict JSON decoder shared by configs, scene specs and manifests."""

import functools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsal.configio import from_dict, model_config_from_dict, model_config_to_dict
from specsal.exceptions import ConfigError, ManifestError, SceneSpecError
from specsal.manifest import DatasetManifest, ManifestEntry
from specsal.model import default_model_config, tiny_model_config
from specsal.scenes import (
    SceneSpec,
    color_similar_scene_spec,
    scene_spec_from_dict,
    scene_spec_to_dict,
    training_demo_scene_spec,
)

README = Path(__file__).resolve().parents[1] / "README.md"

manifest_from_dict = functools.partial(
    from_dict, DatasetManifest, context="manifest", error=ManifestError
)
MANIFEST = DatasetManifest([
    ManifestEntry("a", "a.hsv2", "a.pgm", "train", ("CB", "SO")),
    ManifestEntry("b", "b.hsv2", "b.pgm", "test"),
])

# (decoder, the only error it may raise, valid documents to mutate)
KINDS = {
    "model": (
        model_config_from_dict,
        ConfigError,
        [model_config_to_dict(c) for c in (default_model_config(), tiny_model_config())],
    ),
    "scene": (
        scene_spec_from_dict,
        SceneSpecError,
        [scene_spec_to_dict(s) for s in (color_similar_scene_spec(), training_demo_scene_spec())],
    ),
    "manifest": (manifest_from_dict, ManifestError, [{"entries": [e.to_dict() for e in MANIFEST.entries]}]),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


def _slots(node):
    """Every (container, key) pair below a JSON value."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def near_valid(draw, valid_docs):
    """A valid document with one to three values replaced or keys dropped."""
    doc = json.loads(json.dumps(draw(st.sampled_from(valid_docs))))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(json_values)
    return doc


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_any_json_decodes_or_raises_only_its_kind_error(kind, data):
    decode, error, valid_docs = KINDS[kind]
    doc = data.draw(json_values | near_valid(valid_docs))
    try:
        decode(doc)
    except error:
        pass


def _demo_spec_with(**changes):
    return dict(scene_spec_to_dict(training_demo_scene_spec()), **changes)


def _center(value):
    doc = _demo_spec_with()
    doc["objects"][0]["center"] = value
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_demo_spec_with(height=True), "height: expected int, got bool"),
        (_demo_spec_with(noise_level=False), "noise_level: expected float, got bool"),
        (_demo_spec_with(bands=8.0), "bands: expected int, got float"),
        (_demo_spec_with(attributes=1.0), "attributes: expected an array, got float"),
        (_center([0.5, "0.5"]), r"objects\[0\]\.center\[1\]: expected float, got str"),
        (_demo_spec_with(noise_level=10**400), "noise_level: int too large to convert to float"),
    ],
    ids=["bool-as-int", "bool-as-float", "float-as-int", "non-array",
         "ill-typed-element", "int-overflows-float"],
)
def test_scene_spec_leaf_checks(doc, message):
    with pytest.raises(SceneSpecError, match=message):
        scene_spec_from_dict(doc)


def test_an_int_passes_where_a_float_is_declared():
    noise_level = scene_spec_from_dict(_demo_spec_with(noise_level=1)).noise_level
    assert noise_level == 1 and isinstance(noise_level, float)


def test_optional_fields_take_null_and_required_ones_do_not():
    doc = scene_spec_to_dict(color_similar_scene_spec())
    doc["objects"][0]["spectrum"]["step"] = None
    assert scene_spec_from_dict(doc).objects[0].spectrum.step is None
    doc["background"] = None
    with pytest.raises(SceneSpecError, match="background: expected an object, got NoneType"):
        scene_spec_from_dict(doc)


def test_fixed_length_tuples_check_their_length():
    doc = scene_spec_to_dict(color_similar_scene_spec())
    doc["objects"][0]["center"] = [0.5, 0.5, 0.5]
    with pytest.raises(SceneSpecError, match=r"objects\[0\]\.center: expected 2 items, got 3"):
        scene_spec_from_dict(doc)


def test_missing_required_keys_are_named():
    with pytest.raises(SceneSpecError, match=r"missing keys \['bands', 'width'\]"):
        scene_spec_from_dict({"height": 8})
    with pytest.raises(ManifestError, match=r"missing keys \['entries'\]"):
        manifest_from_dict({})


def test_post_init_errors_pass_through_unchanged():
    doc = {"entries": [dict(MANIFEST.entries[0].to_dict(), split="validation")]}
    with pytest.raises(ManifestError, match="^entry a: split must be one of"):
        manifest_from_dict(doc)


def test_decoded_sequences_take_the_declared_container():
    spec = scene_spec_from_dict(json.loads(json.dumps(scene_spec_to_dict(color_similar_scene_spec()))))
    assert isinstance(spec, SceneSpec)
    assert isinstance(spec.objects, list) and isinstance(spec.objects[0].center, tuple)
    assert spec == color_similar_scene_spec()


def test_readme_model_config_block_shows_every_default():
    # README shows every field of a model configuration at its default value
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    doc = json.loads(block)
    assert model_config_from_dict(doc) == default_model_config()
    assert doc == model_config_to_dict(default_model_config())
