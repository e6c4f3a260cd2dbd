"""Config parsing over arbitrary JSON: a config or a package error, nothing else."""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit.config import ExperimentConfig, config_from_dict
from debiaskit.errors import DebiasKitError

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
ENTRY_FIELDS = ["name", "embeddings", "manifest", "format"]

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
        warnings.simplefilter("ignore")
        try:
            config = config_from_dict(obj)
        except DebiasKitError:
            return
    assert isinstance(config, ExperimentConfig)
