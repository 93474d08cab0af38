"""The benchmark's inputs are a function of (workload, seed) alone."""

import hashlib
import json

import pytest

import inputs


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = _digests_of(tmp_path / "a", workload, 3)
    assert first == _digests_of(tmp_path / "b", workload, 3)
    assert first != _digests_of(tmp_path / "c", workload, 4)


def _digests_of(directory, workload, seed):
    ops = inputs.generate(workload, seed, str(directory))
    assert json.loads((directory / "ops.json").read_text()) == ops
    assert len(ops) >= 100
    return _digests(directory)


def test_certify_defects_are_a_quarter_and_of_every_kind(tmp_path):
    ops = inputs.generate("certify", 3, str(tmp_path))
    kinds = [op["expect"].get("defect") for op in ops]
    corrupted = [k for k in kinds if k is not None]
    assert set(corrupted) == set(inputs.DEFECTS)
    assert 0.2 <= len(corrupted) / len(ops) <= 0.3
