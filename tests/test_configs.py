"""Every shipped config reproduces its pinned CSV bytes.

The digests in ``data/config_csv_sha256.json`` are keyed ``<config>/<csv>``.
A change that moves any of them must name each changed value and say why.
"""

import hashlib
import json
import os

import pytest

from diffeolab.cli import main
from diffeolab.config import load_config

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, "..", "configs")
CONFIGS = sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".ini"))

with open(os.path.join(HERE, "data", "config_csv_sha256.json")) as fh:
    PINNED = json.load(fh)


def config_digests(name, out_dir, *args):
    """Run one config through the CLI and hash every file it writes."""
    path = os.path.join(CONFIG_DIR, name)
    main([load_config(path).command, "--config", path, "--out", str(out_dir), *args])
    digests = {}
    for csv in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, csv), "rb") as fh:
            digests[f"{name}/{csv}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_every_config_is_pinned():
    assert sorted({key.split("/")[0] for key in PINNED}) == CONFIGS


@pytest.mark.parametrize("name", CONFIGS)
def test_config_csvs_match_pins(name, tmp_path):
    want = {k: v for k, v in PINNED.items() if k.startswith(name + "/")}
    assert config_digests(name, tmp_path) == want


@pytest.mark.parametrize("name", ["probe_pp.ini", "wreath_build.ini"])
def test_probe_configs_match_pins_at_three_threads(name, tmp_path):
    # The probe's block bounds depend on the thread count; its bytes must not.
    want = {k: v for k, v in PINNED.items() if k.startswith(name + "/")}
    assert config_digests(name, tmp_path, "--threads", "3") == want
