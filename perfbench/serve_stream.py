"""The seeded request stream of the `serve_mixed` workload.

The scenario set is fixed: four suite mappings x contexts {1, 2} x
{cube, mesh} give 16 warm-start prefixes (the daemon keeps 16 snapshots,
so none is evicted), and half of them are also requested at a second,
shorter window. Every scenario is requested at least once, so the set of
misses, and the simulation work behind them, is the same for every seed.
The seed decides which scenarios are popular and the request order.
Popularity is Zipf-like and assigned per topology, so cube and mesh
always receive the same number of requests.
"""

import json
import random
from collections import namedtuple

MAPPINGS = ("identity", "random-1", "random-2", "worst")
CONTEXTS = (1, 2)
TOPOLOGIES = ("cube", "mesh")
# The daemon's default window (the reduced conformance window, after the
# default 6,000-cycle warmup), and a shorter second one.
WINDOW = 18000
SECOND_WINDOW = 12000
# Prefixes that are also requested at the second window.
SECOND_WINDOW_MAPPINGS = ("identity", "random-1")

PRIMARY_REQUESTS = 128
SECOND_REQUESTS = 22
ZIPF_EXPONENT = 1.0


class Scenario(namedtuple("Scenario", "topology mapping contexts window")):
    __slots__ = ()

    @property
    def prefix(self):
        """The warm-start identity: everything but the window."""
        return (self.topology, self.mapping, self.contexts)

    def request(self, request_id):
        fields = {
            "op": "run",
            "id": request_id,
            "mapping": self.mapping,
            "contexts": self.contexts,
            "window": self.window,
        }
        if self.topology != "cube":
            fields["topology"] = self.topology
        return json.dumps(fields, separators=(",", ":"))

    def probe_line(self):
        """The line the in-process layer probe reads."""
        return f"{self.topology} {self.mapping} {self.contexts} {self.window}"


def scenarios():
    primary = [
        Scenario(t, m, c, WINDOW)
        for t in TOPOLOGIES
        for m in MAPPINGS
        for c in CONTEXTS
    ]
    second = [
        Scenario(t, m, c, SECOND_WINDOW)
        for t in TOPOLOGIES
        for m in SECOND_WINDOW_MAPPINGS
        for c in CONTEXTS
    ]
    return primary, second


def zipf_counts(slots, total):
    """Requests per popularity rank: one each, the rest split by Zipf
    weight with largest-remainder rounding."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(slots)]
    spare = total - slots
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(s) for s in shares]
    by_remainder = sorted(range(slots), key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _assign(group, total, rng):
    """Gives each scenario of `group` a request count; odd popularity
    ranks go to cube scenarios and even ranks to mesh ones, shuffled
    within each topology by `rng`."""
    counts = zipf_counts(len(group), total)
    by_topology = {t: [s for s in group if s.topology == t] for t in TOPOLOGIES}
    for members in by_topology.values():
        rng.shuffle(members)
    ranked = [s for pair in zip(*by_topology.values()) for s in pair]
    return [s for s, count in zip(ranked, counts) for _ in range(count)]


def generate(seed):
    """The request stream for `seed`: a list of Scenarios in send order."""
    rng = random.Random(seed)
    primary, second = scenarios()
    stream = _assign(primary, PRIMARY_REQUESTS, rng)
    stream += _assign(second, SECOND_REQUESTS, rng)
    rng.shuffle(stream)
    return stream


def expected_classes(stream):
    """Per request: `hit` (scenario seen before), `warm` (its prefix was
    simulated before) or `cold`."""
    seen, warmed, classes = set(), set(), []
    for s in stream:
        if s in seen:
            classes.append("hit")
        elif s.prefix in warmed:
            classes.append("warm")
        else:
            classes.append("cold")
        seen.add(s)
        warmed.add(s.prefix)
    return classes
