"""Pinned output bytes of COMPOSE in both elimination orders.

Every composition below is serialized with ``result_to_text`` and hashed
after its wall-clock values are removed: the ``# elapsed-seconds:`` line, the
duration field of each outcome line, and the seconds of each ``[phases]``
line (the phase *names* are kept).  Everything else — constraints, outcome
order, methods, failure reasons, blow-up flags, residual σ2, the planner's
component orders, component and reordering counts — must reproduce the
committed digests in ``data/driver_outputs.json`` byte for byte.

The figure fractions only pin how many symbols each configuration
eliminates; this pins the full output of every elimination driver change.

Regenerate the fixture (only when an output change is intended) with::

    PYTHONPATH=src python tests/compose/test_driver_identity.py > tests/compose/data/driver_outputs.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.engine.workloads import (
    WorkloadConfig,
    generate_partitioned_workload,
    generate_workload,
    pairwise_problems,
)
from repro.literature.problems import all_problems
from repro.mapping.composition_problem import CompositionProblem
from repro.textio.records import result_to_text

FIXTURE = Path(__file__).parent / "data" / "driver_outputs.json"

CONFIGS = {
    "default": ComposerConfig(),
    "no_view_unfolding": ComposerConfig.no_view_unfolding(),
    "no_right_compose": ComposerConfig.no_right_compose(),
    "no_left_compose": ComposerConfig.no_left_compose(),
    "cost_guided": ComposerConfig.cost_guided(),
    "blowup_1.5": ComposerConfig(max_blowup_factor=1.5),
}


def _problems() -> Iterator[Tuple[str, CompositionProblem]]:
    for index, problem in enumerate(all_problems()):
        yield f"literature[{index}]/{problem.name}", problem.problem
    for chain in generate_workload(WorkloadConfig(seed=5))[:10]:
        for problem in pairwise_problems(chain):
            yield f"chain/{problem.name}", problem
    partitioned = generate_partitioned_workload(
        WorkloadConfig(seed=3, num_components=4, num_problems=4)
    )
    for index, problem in enumerate(partitioned):
        yield f"partitioned[{index}]/{problem.name}", problem.problem


def strip_timings(text: str) -> str:
    """``text`` (a ``result`` record) without any wall-clock value."""
    kept: List[str] = []
    section = None
    for line in text.splitlines():
        if line.startswith("# elapsed-seconds:"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line
        elif section == "[outcomes]" and not line.startswith("- "):
            parts = line.split()
            line = " ".join(parts[:3] + parts[4:])
        elif section == "[phases]":
            line = line.split()[0]
        kept.append(line)
    return "\n".join(kept) + "\n"


def compute_digests() -> Dict[str, Dict[str, str]]:
    problems = list(_problems())
    digests: Dict[str, Dict[str, str]] = {}
    for config_name, config in CONFIGS.items():
        per_problem = digests.setdefault(config_name, {})
        for key, problem in problems:
            assert key not in per_problem, f"duplicate problem key {key}"
            text = strip_timings(result_to_text(compose(problem, config)))
            per_problem[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_strip_timings_removes_only_wall_clock_values():
    record = "\n".join(
        [
            "# kind: result",
            "# elapsed-seconds: 0.25",
            "# components: 0",
            "[outcomes]",
            "A eliminated left_compose 0.001",
            "- view unfolding disabled",
            "B kept failed 0.002 blowup",
            "[plan]",
            "[phases]",
            "eliminate 0.003",
        ]
    )
    assert strip_timings(record) == "\n".join(
        [
            "# kind: result",
            "# components: 0",
            "[outcomes]",
            "A eliminated left_compose",
            "- view unfolding disabled",
            "B kept failed blowup",
            "[plan]",
            "[phases]",
            "eliminate",
        ]
    ) + "\n"


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_fixture_covers_every_composition(digests):
    expected = json.loads(FIXTURE.read_text())
    assert sorted(expected) == sorted(digests)
    for config_name in expected:
        assert sorted(expected[config_name]) == sorted(digests[config_name]), config_name


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_outputs_byte_identical_to_pinned(digests, config_name):
    expected = json.loads(FIXTURE.read_text())[config_name]
    changed = [key for key, digest in expected.items() if digests[config_name].get(key) != digest]
    assert not changed, f"{len(changed)} outputs changed under {config_name}: {changed[:5]}"


if __name__ == "__main__":
    json.dump(compute_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
