"""Pins of the exact scheduler's search on a few Mediabench loops.

Speeding the search up must not change which placement trials it runs
or in what order.  These compiles pin the outcome of that order — the
II, the trial count, the fallback flag and a digest of every placed op
and comm — so a change that reorders or skips trials shows up here even
when the resulting II happens to stay the same.
"""

import hashlib
import json

import pytest

from repro.machine import l0_config
from repro.pipeline import CompiledLoopCache, CompileOptions, compile_cached
from repro.workloads.mediabench import build

#: (benchmark, loop index, L0 entries, node budget) ->
#: (ii, nodes_explored, fallback, schedule digest).  The last case runs
#: out of budget and falls back to the SMS schedule.
PINS = {
    ("gsmenc", 0, 4, 60_000): (6, 6045, False, "1315abdf9c73774f"),
    ("gsmenc", 0, 8, 60_000): (6, 5393, False, "daf8a5386e029e50"),
    ("pegwitenc", 3, 4, 60_000): (6, 8, False, "5a25fca6360c90be"),
    ("pgpdec", 0, 8, 2_000): (9, 2_000, True, "dc4ee8ba7109cab0"),
}


def schedule_digest(schedule) -> str:
    """Short hash of the placed ops (in placement order) and comms."""
    payload = {
        "placed": [
            [op.instr.uid, op.cluster, op.start, op.latency]
            for op in schedule.placed.values()
        ],
        "comms": [
            [c.producer_uid, c.src_cluster, c.dst_cluster, c.start, c.latency]
            for c in schedule.comms
        ],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _compile_exact(benchmark: str, index: int, entries: int, budget: int):
    loop = build(benchmark).loops[index].loop
    options = CompileOptions(scheduler="exact", exact_node_budget=budget)
    # A private cache: the point is to run the search, not to reuse it.
    return compile_cached(loop, l0_config(entries), options, cache=CompiledLoopCache())


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda c: "-".join(map(str, c)))
def test_exact_search_is_pinned(case):
    compiled = _compile_exact(*case)
    meta = compiled.schedule.meta
    got = (
        compiled.ii,
        meta["nodes_explored"],
        meta["fallback"],
        schedule_digest(compiled.schedule),
    )
    assert got == PINS[case]
    assert compiled.schedule.validate(compiled.ddg) == []


def test_starved_search_reports_the_trials_it_ran():
    """An exhausted budget reports exactly ``exact_node_budget`` trials."""
    for budget in (1, 57, 2_000):
        compiled = _compile_exact("pgpdec", 0, 8, budget)
        meta = compiled.schedule.meta
        assert meta["fallback"]
        assert meta["nodes_explored"] == budget
        assert compiled.ii == meta["ii_sms"]
