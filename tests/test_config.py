import pytest

from ggrnet.config import load_run_spec, parse_config_text, resolve_run_spec
from ggrnet.data import SplitSpec
from ggrnet.errors import ConfigError
from ggrnet.model import ModelConfig
from ggrnet.training import TrainConfig

# an empty config's manifest, byte for byte; empty values keep the space after '='
DEFAULT_MANIFEST = "".join(line + "\n" for line in [
    'dataset.elements = H,C,N,O,F,S,Cl',
    'dataset.format = auto',
    'dataset.path = ',
    'dataset.schema = ',
    'model.atom_dim = 50',
    'model.count_dim = 50',
    'model.distance_epsilon = 1e-06',
    'model.hidden_dim = 100',
    'model.mlp_dim = 100',
    'model.steps = 5',
    'model.use_atom_embedding = true',
    'model.use_count_feature = true',
    'model.use_distance_feature = true',
    'run.resplit = false',
    'run.runs = 1',
    'run.threads = 1',
    'split.seed = 0',
    'split.test = 0.1',
    'split.train = 0.8',
    'split.val = 0.1',
    'target = ',
    'train.batch_size = 10',
    'train.clip_norm = 10.0',
    'train.decay = 0.01',
    'train.epochs = 500',
    'train.lr0 = 0.03',
    'train.seed = 0',
])


def test_empty_config_gives_dataclass_defaults():
    spec = resolve_run_spec({})
    assert spec.model_config() == ModelConfig()
    assert spec.split_spec() == SplitSpec()
    assert spec["target"] == ""
    # TrainConfig needs a target; every other field is its default
    assert resolve_run_spec({}, ["target=energy"]).train_config() == \
        TrainConfig(target_property="energy")


def test_default_manifest_is_pinned():
    assert resolve_run_spec({}).manifest_text() == DEFAULT_MANIFEST


def test_manifest_round_trips():
    spec = resolve_run_spec({}, ["model.steps=3", "train.lr0=0.5", "split.seed=4"])
    again = resolve_run_spec(parse_config_text(spec.manifest_text()))
    assert again == spec


def test_seed_offsets_step_train_and_split_seeds():
    raw = {"train.seed": "10", "split.seed": "20", "target": "e", "run.runs": "4"}
    spec = resolve_run_spec(raw)
    assert spec.run(2).train_config().seed == 12
    assert spec.run(3).split_spec().seed == 20
    resplit = resolve_run_spec(raw, ["run.resplit=true"])
    assert resplit.run(3).split_spec().seed == 23
    # a run's spec is one run without resplit, and the rest of its manifest
    # is the base spec's
    for base in (spec, resplit):
        run = base.run(2)
        assert (run["run.runs"], run["run.resplit"]) == (1, False)
        assert resolve_run_spec(parse_config_text(run.manifest_text())) == run
        assert {key for key in base.values if run[key] != base[key]} <= \
            {"train.seed", "split.seed", "run.runs", "run.resplit"}


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.steps = 3\ntrain.lr0 = 0.1  # comment\nmodel.steps = 4\n")
    spec = load_run_spec(path, ["model.steps=7"])
    assert spec.model_config().steps == 7
    assert spec["train.lr0"] == 0.1
    assert load_run_spec(path)["model.steps"] == 4  # later file lines win


def test_a_byte_order_mark_starts_no_key(tmp_path):
    # as Windows editors write UTF-8
    path = tmp_path / "run.cfg"
    path.write_bytes("\ufeffmodel.steps = 3\n".encode())
    assert load_run_spec(path)["model.steps"] == 3


@pytest.mark.parametrize("text", ["model.nonsense = 3\n", "steps = 3\n"])
def test_unknown_key_in_file_names_it(text):
    key = text.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"^config line 1: unknown config key '{key}'"):
        parse_config_text(text)


def test_unknown_override_names_it():
    with pytest.raises(ConfigError, match="unknown config key 'train.momentum'"):
        resolve_run_spec({}, ["train.momentum=0.9"])


@pytest.mark.parametrize("key, value", [("model.use_count_feature", "maybe"),
                                        ("run.resplit", "2"),
                                        ("model.steps", "2.5"),
                                        ("train.epochs", "many"),
                                        ("split.train", "most")])
def test_bad_value_names_the_key(key, value):
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        resolve_run_spec({key: value})


def test_repeated_element_is_refused():
    # the training vocabulary is dataset.elements, and a checkpoint keeps it
    with pytest.raises(ConfigError, match="config key 'dataset.elements': element 'H' "
                                          "is listed twice"):
        resolve_run_spec({"dataset.elements": "H, C, H"})
