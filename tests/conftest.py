from pathlib import Path

import pytest

from amrsched.model import load_instance

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def hospital12():
    return load_instance(ROOT / "instances" / "hospital12.json")


@pytest.fixture(scope="session")
def hospital64():
    return load_instance(ROOT / "instances" / "hospital64.json")


@pytest.fixture(scope="session")
def hospital12_path():
    return ROOT / "instances" / "hospital12.json"


@pytest.fixture(scope="session")
def hospital64_path():
    return ROOT / "instances" / "hospital64.json"
