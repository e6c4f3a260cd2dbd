"""Config and synth-spec parsing over arbitrary JSON: a parsed value or a
package error, nothing else."""

import math
import string
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit.config import ExperimentConfig, config_from_dict
from debiaskit.errors import DebiasKitError
from debiaskit.synth import SynthSpec, spec_from_dict

FIELDS = [
    "datasets",
    "genre_map",
    "classes",
    "strategy",
    "scope",
    "dprime_factor",
    "gamma",
    "shrinkage",
    "c_grid",
    "cv_folds",
    "min_genre_samples",
    "seed",
    "seeds",
    "output_dir",
    "not_a_field",
]
ENTRY_FIELDS = ["name", "embeddings", "manifest", "format", "not_a_field"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def config_objects(draw, valid):
    """A valid config with some entry fields, and some top-level fields,
    dropped or replaced by arbitrary JSON; or an arbitrary JSON object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.dictionaries(st.text(max_size=6), json_values, max_size=4))
    entries = [dict(e) for e in valid["datasets"]]
    for entry in entries:
        entry.update(draw(st.dictionaries(st.sampled_from(ENTRY_FIELDS), json_values, max_size=1)))
    obj = dict(valid, datasets=entries)
    for key in draw(st.sets(st.sampled_from(FIELDS), max_size=2)):
        obj.pop(key, None)
    obj.update(draw(st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=3)))
    return obj


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_json_object_parses_or_raises_a_package_error(small_corpus, data):
    entries, _, gm_path = small_corpus
    valid = {
        "datasets": [
            {"name": e.name, "embeddings": e.embeddings, "manifest": e.manifest} for e in entries
        ],
        "genre_map": gm_path,
        "strategy": "LDA",
        "scope": "classwise",
        "seed": 5,
    }
    obj = data.draw(config_objects(valid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = config_from_dict(obj)
        except DebiasKitError:
            return
    assert isinstance(config, ExperimentConfig)


SPEC_FIELDS = [
    "dim",
    "n_classes",
    "n_genres",
    "samples_per_cell",
    "test_fraction",
    "class_signal_strength",
    "noise_sigma",
    "seed",
    "domain_names",
    "bias",
    "genre_mix",
    "genre_mix_b",
    "predominant_only_classes",
    "not_a_field",
]
VALID_SPEC = {
    "dim": 16,
    "n_classes": 3,
    "n_genres": 2,
    "samples_per_cell": 10,
    "test_fraction": 0.25,
    "seed": 3,
    "domain_names": ["left", "right"],
    "bias": [{"scope": "genre1", "magnitude": 2.0, "direction_index": 1}],
    "genre_mix": [[1, 0], [0.5, 0.5], [0, 1]],
    "predominant_only_classes": [2],
}

# Numbers of any size: validation checks the corpus size before it builds
# anything per class or genre, so a huge count costs no memory.
spec_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(string.ascii_letters + string.digits, max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def spec_objects(draw):
    """A valid spec with some fields, or a bias entry's fields, dropped or
    replaced by arbitrary JSON; or an arbitrary JSON object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.dictionaries(st.text(max_size=6), spec_values, max_size=4))
    obj = dict(VALID_SPEC)
    entry = dict(obj["bias"][0])
    for key in draw(st.sets(st.sampled_from(list(entry)), max_size=1)):
        entry[key] = draw(spec_values)
    obj["bias"] = [entry]
    for key in draw(st.sets(st.sampled_from(SPEC_FIELDS), max_size=2)):
        obj.pop(key, None)
    obj.update(draw(st.dictionaries(st.sampled_from(SPEC_FIELDS), spec_values, max_size=3)))
    return obj


@settings(max_examples=400, deadline=None)
@given(obj=spec_objects())
def test_any_json_object_gives_a_synth_spec_or_a_package_error(obj):
    try:
        spec = spec_from_dict(obj)
    except DebiasKitError:
        return
    assert isinstance(spec, SynthSpec)
