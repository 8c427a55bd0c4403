"""The traced mode wraps every binding of a public function and computes
self time from the span tree.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import regionvote
import regionvote.cli
import regionvote.voting
from regionvote import breakdown
from regionvote.grid import Partition
from tracing import Tracer


def test_install_wraps_every_namespace_and_uninstall_restores():
    original = regionvote.voting.tally_regional
    tracer = Tracer()
    with tracer.installed():
        wrapped = regionvote.voting.tally_regional
        assert wrapped is not original
        assert regionvote.cli.tally_regional is wrapped
        assert breakdown.tally_regional is wrapped
        assert regionvote.tally_regional is wrapped
        assert regionvote.voting.plurality_winner.__module__ == "regionvote.voting"
        assert not hasattr(regionvote.voting.plurality_winner, "__wrapped__")
    assert regionvote.voting.tally_regional is original
    assert regionvote.cli.tally_regional is original
    assert breakdown.tally_regional is original


def test_spans_nest_and_self_time_excludes_children():
    grid = breakdown.generate_grid(
        breakdown.GridGenSpec(10, 10, 0.6, "per_region_margin", seed=1, region_edge=5)
    )
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.op", "x"):
        breakdown.randomized_breakdown(
            grid, breakdown.RegionalScheme(Partition.square(5)), 2, (1, 2), trials=5, seed=1
        )
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["bench.op", "breakdown.randomized_breakdown"]
    assert tracer.spans[1][1] == ["regional", 5]
    assert tracer.spans[1][4] == 0
    tally = names.index("voting.tally_regional")
    assert names[tracer.spans[tally][4]] == "breakdown.scheme_winner"
    total = sum(end - start for _, _, start, end, parent in tracer.spans if parent == -1)
    assert sum(tracer.self_ns_by_layer().values()) == total
