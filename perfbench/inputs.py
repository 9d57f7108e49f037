"""Seeded inputs of the two workloads, and the output canonicalization.

The program only ever sees the generated record texts; the seed stays on
this side.  The same seed always yields the same texts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.engine import ChainGrower, WorkloadConfig, generate_workload, pairwise_problems
from repro.textio.format import problem_to_text
from repro.textio.records import chain_to_text

# -- serve_compose -------------------------------------------------------------

#: Distinct pairwise problems per run, and extra ones used only for warm-up.
COMPOSE_POOL = 800
COMPOSE_WARMUP = 24
COMPOSE_SCHEMA_SIZE = 8


def compose_problem_texts(seed: int, count: int) -> List[str]:
    """``count`` distinct ``problem`` record texts (adjacent hops of chains).

    Chains of 10-12 hops over a schema of 8 relations; each pairwise problem
    is about 600-700 bytes.  The record's ``# name:`` embeds the chain's
    sub-seed, so no two texts of one run are equal.
    """
    texts: List[str] = []
    chains = count // 9 + 2
    while len(texts) < count:
        workload = generate_workload(
            WorkloadConfig(
                num_problems=chains,
                min_chain_length=10,
                max_chain_length=12,
                schema_size=COMPOSE_SCHEMA_SIZE,
                seed=seed,
            )
        )
        texts = [problem_to_text(p) for chain in workload for p in pairwise_problems(chain)]
        chains *= 2
    return texts[:count]


_TIMED_OUTCOME_FIELD = 3


def timing_free(text: str) -> str:
    """A ``result`` record with its wall-clock fields masked.

    Results carry ``# elapsed-seconds``, a per-symbol duration in each
    ``[outcomes]`` line and a ``[phases]`` section of seconds; everything
    else must be byte-identical between two compositions of one problem.
    """
    lines = []
    section = ""
    for line in text.split("\n"):
        if line.startswith("# elapsed-seconds:"):
            line = "# elapsed-seconds: -"
        elif line.startswith("[") and line.endswith("]"):
            section = line
        elif section == "[outcomes]" and line and not line.startswith("- "):
            fields = line.split(" ")
            if len(fields) > _TIMED_OUTCOME_FIELD:
                fields[_TIMED_OUTCOME_FIELD] = "-"
            line = " ".join(fields)
        elif section == "[phases]" and line:
            line = line.split(" ")[0] + " -"
        lines.append(line)
    return "\n".join(lines)


# -- serve_evolve --------------------------------------------------------------

#: Mappings stored as ``pre-<j>`` before start-up.  Every set-up pre-fills
#: and the follower replays them with an fsync each (~10 ms per mapping in
#: all), and ``setup_s`` is the median of several set-ups, so this size
#: keeps one set-up near 3 s.
EVOLVE_PREFILL = 300
EVOLVE_SCHEMA_SIZE = 4
#: A history is grown one hop per write until it has this many hops.
EVOLVE_MAX_HOPS = 12
_PREFILL_PER_GROWER = 10


def prefill_mappings(seed: int, count: int):
    """``count`` mappings stored as ``pre-<j>`` before the servers start."""
    mappings = []
    grower = None
    for index in range(count):
        if index % _PREFILL_PER_GROWER == 0:
            grower = ChainGrower(
                seed=random.Random(f"prefill:{seed}:{index}").randrange(2**31),
                schema_size=EVOLVE_SCHEMA_SIZE,
            )
        mappings.append(grower.grow())
    return mappings


@dataclass
class History:
    """One evolving chain: write ``i`` stores the chain of its first ``i + 2`` mappings."""

    name: str
    mappings: list
    texts: List[bytes]


def history(seed: int, label: str) -> History:
    """The deterministic history called ``label`` (e.g. ``h0-3``)."""
    grower = ChainGrower(
        seed=random.Random(f"history:{seed}:{label}").randrange(2**31),
        schema_size=EVOLVE_SCHEMA_SIZE,
    )
    mappings = grower.grow_many(EVOLVE_MAX_HOPS + 1)
    texts = [
        chain_to_text(mappings[: hops + 1]).encode("utf-8")
        for hops in range(1, EVOLVE_MAX_HOPS + 1)
    ]
    return History(name=label, mappings=mappings, texts=texts)


def read_picker(seed: int, client: int, prefill: int) -> random.Random:
    """The RNG a client draws its ``pre-<j>`` read targets from."""
    return random.Random(f"reads:{seed}:{client}:{prefill}")
