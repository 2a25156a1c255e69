import os
import pathlib
import sys

import pytest

# A test run leaves no bytecode cache in src/, in this process or in the
# interpreters it starts, so that timing an import there still includes
# compiling the package, as on a fresh checkout.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from prodcheck.streamspec import parse

DATA = pathlib.Path(__file__).parent / "data"

CORPUS = [
    "pascal",
    "ternary_morse_flat",
    "ternary_morse_pure",
    "morse_dol",
    "convolution",
    "traces",
    "nested_fb",
    "do_m",
    "intro_b",
    "do_h",
]


def spec_path(name: str) -> pathlib.Path:
    return DATA / (name + ".spec")


def load(name: str):
    path = spec_path(name)
    return parse(path.read_text(), str(path))


@pytest.fixture(scope="session")
def corpus():
    return {name: load(name) for name in CORPUS}
