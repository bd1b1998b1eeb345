from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import settings

from minworld import dcg, symbols

# CI's hostile-input step: 200 mutations of each input kind
settings.register_profile("hostile", max_examples=200)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

ASSETS = Path(__file__).resolve().parents[1] / "src" / "minworld" / "assets"


@pytest.fixture(scope="session")
def assets() -> Path:
    return ASSETS


@pytest.fixture(scope="session")
def space():
    return symbols.load_symbol_space(ASSETS / "symbol_space.json")


@pytest.fixture(scope="session")
def perception_corpus(space):
    kind, raw = dcg.load_corpus(ASSETS / "perception_corpus.json")
    return dcg.CompiledCorpus(dcg.build_examples(kind, raw, space))


@pytest.fixture(scope="session")
def behavior_corpus(space):
    kind, raw = dcg.load_corpus(ASSETS / "behavior_corpus.json")
    return dcg.CompiledCorpus(dcg.build_examples(kind, raw, space))


@pytest.fixture(scope="session")
def perception_train(perception_corpus):
    return dcg.train(perception_corpus, dcg.TrainConfig(),
                     kind="perception")


@pytest.fixture(scope="session")
def behavior_train(behavior_corpus):
    return dcg.train(behavior_corpus, dcg.TrainConfig(),
                     kind="behavior")


@pytest.fixture(scope="session")
def perception_model(perception_train):
    return perception_train.model


@pytest.fixture(scope="session")
def behavior_model(behavior_train):
    return behavior_train.model


@pytest.fixture(scope="session")
def model_dir(tmp_path_factory, perception_model, behavior_model) -> Path:
    d = tmp_path_factory.mktemp("models")
    perception_model.save(d / "perception.json")
    behavior_model.save(d / "behavior.json")
    return d
