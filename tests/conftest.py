"""Shared fixtures: cached census results and seeded random path samples."""

from __future__ import annotations

import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

import cubeloops
from cubeloops import (
    EnumerationQuery,
    FamilySpec,
    JordanPath,
    enumerate_paths,
    validate,
)

# reference words, used across the suite (length-8 classes in their
# traditional order, then the two longer embedded classes)
REFERENCE_WORDS_N4 = {
    "G1": "12314243",
    "G2": "12314342",
    "G3": "12314234",
    "G4": "12314324",
    "G5": "12341234",
    "G6": "12321434",
    "G7": "1231413214",
    "G8": "123214123214",
}
REFERENCE_WORDS_N3 = {
    "D": "123123",
    "CLP": "121323",
    "GP": "12321232",
}


@pytest.fixture(scope="session")
def n3_classes():
    return enumerate_paths(EnumerationQuery.create(3))


@pytest.fixture(scope="session")
def n4_m8_classes():
    return enumerate_paths(EnumerationQuery.create(4, length=8))


@pytest.fixture(scope="session")
def n4_classes():
    return enumerate_paths(EnumerationQuery.create(4))


@pytest.fixture(scope="session")
def n4_embedded_classes():
    return enumerate_paths(EnumerationQuery.create(4, embedded_only=True))


def family_members(dim: int) -> list[FamilySpec]:
    """Every admissible member of every named family in one dimension >= 4."""
    members = [FamilySpec("d-series", dim), FamilySpec("sharp", dim)]
    members += [FamilySpec("gamma-a", dim, beta=beta) for beta in range(1, dim)]
    for alpha, beta in itertools.combinations(range(1, dim), 2):
        members += [FamilySpec(name, dim, alpha, beta) for name in ("gamma-b", "gamma-c")]
    return members


def modules_loaded_by(statement: str) -> set[str]:
    """The modules a fresh interpreter has loaded after the statement."""
    env = dict(os.environ)
    source = pathlib.Path(cubeloops.__file__).parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(source), env.get("PYTHONPATH"))))
    code = f"import sys\n{statement}\nprint(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return set(done.stdout.split())


def random_valid_path(rng: random.Random, dim: int) -> JordanPath:
    """One pseudo-random loop: a uniform random simple walk with restarts."""
    full = (2 << dim) - 2
    while True:
        vertex, visited, word, used = 0, 1, [], 0
        while len(word) < (1 << dim):
            options = []
            for d in range(1, dim + 1):
                target = vertex ^ (1 << (d - 1))
                if target == 0:
                    if (used | (1 << d)) == full and len(word) + 1 >= 2 * dim:
                        options.append((d, True))
                elif not (visited >> target) & 1:
                    options.append((d, False))
            if not options:
                break
            d, closing = options[rng.randrange(len(options))]
            word.append(d)
            if closing:
                return validate(word, dim)
            visited |= 1 << vertex
            vertex ^= 1 << (d - 1)
            used |= 1 << d


@pytest.fixture(scope="session")
def random_n5_paths():
    rng = random.Random(987123)
    return tuple(random_valid_path(rng, 5) for _ in range(100))
