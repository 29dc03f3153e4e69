"""Seeded input generators for the benchmark workloads.

Everything here is plain data in the external JSON shapes that
``tnsc.scenario.scenario_from_dict`` and ``tnsc.model.request_from_dict``
accept; nothing imports tnsc, so the program only ever sees generated JSON
through its public ingestion functions. The same seed always yields the same
inputs (``random.Random`` seeded with a string is stable across platforms).
"""

from __future__ import annotations

import random

PORT = {"type": "10GE", "gbps": 10}

#: Static normalisation ranges (the reference table's bounds) used by the
#: failover-storm and score-table workloads.
STATIC_BOUNDS = {
    "mode": "static",
    "topology": {"l": 2, "h": 4},
    "device": {"l": 1, "h": 24},
    "data_plane": {"l": 1, "h": 20},
}


def rng_for(workload: str, seed: int, part: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def grid_topology(side: int, ports: int) -> dict:
    """side x side grid, one device with ``ports`` 10GE ports at every node."""
    def name(r: int, c: int) -> str:
        return f"n{r:02d}_{c:02d}"

    links = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                links.append({"id": f"h{r:02d}_{c:02d}", "a": name(r, c),
                              "b": name(r, c + 1)})
            if r + 1 < side:
                links.append({"id": f"v{r:02d}_{c:02d}", "a": name(r, c),
                              "b": name(r + 1, c)})
    nodes = [name(r, c) for r in range(side) for c in range(side)]
    return {
        "nodes": nodes,
        "links": links,
        "devices": [{"node": n, "ports": [{**PORT, "count": ports}]} for n in nodes],
    }


def ring_with_chords(rng: random.Random, size: int, chords: int,
                     slot_capacity: int, ports: int) -> dict:
    """Ring of ``size`` nodes plus ``chords`` distinct random chords."""
    nodes = [f"r{i:02d}" for i in range(size)]
    links = [{"id": f"ring{i:02d}", "a": nodes[i], "b": nodes[(i + 1) % size],
              "slot_capacity": slot_capacity} for i in range(size)]
    pairs = {frozenset((link["a"], link["b"])) for link in links}
    while len(links) < size + chords:
        a, b = rng.sample(nodes, 2)
        if frozenset((a, b)) in pairs:
            continue
        pairs.add(frozenset((a, b)))
        links.append({"id": f"chord{len(links) - size:02d}", "a": a, "b": b,
                      "slot_capacity": slot_capacity})
    return {
        "nodes": nodes,
        "links": links,
        "devices": [{"node": n, "ports": [{**PORT, "count": ports}]} for n in nodes],
    }


def slice_request(rng: random.Random, rid: str, nodes: list[str], k: tuple[int, int],
                  slots: tuple[int, int], ports: tuple[int, int]) -> dict:
    src, dst = rng.sample(nodes, 2)
    return {
        "id": rid,
        "src": src,
        "dst": dst,
        "control": rng.random() < 0.5,
        "disjoint_paths": rng.randint(*k),
        "client_ports": {**PORT, "count": rng.randint(*ports)},
        "calendar_slots": rng.randint(*slots),
    }


class _Flapper:
    """Link down/up generator keeping at most ``max_down`` links down."""

    def __init__(self, rng: random.Random, link_ids: list[str], max_down: int):
        self.rng = rng
        self.link_ids = link_ids
        self.max_down = max_down
        self.down: list[str] = []

    def next(self) -> tuple[str, str]:
        if self.down and (len(self.down) >= self.max_down or self.rng.random() < 0.5):
            return "link_up", self.down.pop(0)
        link = self.rng.choice([l for l in self.link_ids if l not in self.down])
        self.down.append(link)
        return "link_down", link


def grid_churn(seed: int, part: int, events: int) -> dict:
    """14x14 grid, node-disjoint, derived bounds. Every block of ten events
    holds six arrivals, two releases of slices that arrived and were not yet
    released, and two link flaps, in seeded order."""
    rng = rng_for("grid-churn", seed, part)
    topology = grid_topology(14, ports=48)
    nodes = topology["nodes"]
    flapper = _Flapper(rng, [link["id"] for link in topology["links"]], max_down=3)
    open_slices: list[str] = []
    out = []
    block: list[str] = []
    for seq in range(1, events + 1):
        if not block:
            block = ["arrival"] * 6 + ["release"] * 2 + ["flap"] * 2
            rng.shuffle(block)
        kind = block.pop()
        if kind == "release" and open_slices:
            slice_id = open_slices.pop(rng.randrange(len(open_slices)))
            out.append({"seq": seq, "type": "request_release", "slice": slice_id})
        elif kind != "arrival":
            kind, link = flapper.next()
            out.append({"seq": seq, "type": kind, "link": link})
        else:
            rid = f"g{seq:05d}"
            out.append({"seq": seq, "type": "request_arrival",
                        "request": slice_request(rng, rid, nodes, k=(2, 3),
                                                 slots=(1, 3), ports=(1, 8))})
            open_slices.append(rid)
    return {"topology": topology, "bounds": {"mode": "derived"},
            "mode": "node_disjoint", "events": out}


def failover_storm(seed: int, part: int, slices: int, flaps: int) -> dict:
    """64-node ring with 64 chords, link-disjoint, static bounds: ``slices``
    long-lived arrivals, then ``flaps`` link failures, each repaired later."""
    rng = rng_for("failover-storm", seed, part)
    topology = ring_with_chords(rng, 64, 64, slot_capacity=40, ports=64)
    nodes = topology["nodes"]
    out = []
    for i in range(slices):
        out.append({"seq": i + 1, "type": "request_arrival",
                    "request": slice_request(rng, f"f{i:04d}", nodes, k=(2, 3),
                                             slots=(1, 2), ports=(1, 4))})
    flapper = _Flapper(rng, [link["id"] for link in topology["links"]], max_down=2)
    downs = 0
    while downs < flaps or flapper.down:
        if downs < flaps:
            kind, link = flapper.next()
        else:
            kind, link = "link_up", flapper.down.pop(0)
        downs += kind == "link_down"
        out.append({"seq": len(out) + 1, "type": kind, "link": link})
    return {"topology": topology, "bounds": STATIC_BOUNDS,
            "mode": "link_disjoint", "events": out}


_OUT_OF_RANGE = {  # dimension -> (request field, values above the static h)
    "topology": ("disjoint_paths", (5, 8)),
    "device": ("client_ports", (25, 48)),
    "data_plane": ("calendar_slots", (21, 40)),
}


def score_table(seed: int, tables: int, rows: int) -> tuple[list[list[dict]], set[str]]:
    """``tables`` request tables of ``rows`` rows each. About a third of the
    rows exceed one static upper bound; about a quarter carry their own
    weights. Returns the tables and the ids that must come out OUT_OF_RANGE."""
    rng = rng_for("score-table", seed)
    nodes = [f"s{i:02d}" for i in range(16)]
    out_of_range: set[str] = set()
    result = []
    for t in range(tables):
        table = []
        for i in range(rows):
            request = slice_request(rng, f"t{t:02d}r{i:04d}", nodes, k=(2, 4),
                                    slots=(1, 20), ports=(1, 24))
            if rng.random() < 1 / 3:
                field, (low, high) = _OUT_OF_RANGE[rng.choice(sorted(_OUT_OF_RANGE))]
                if field == "client_ports":
                    request["client_ports"]["count"] = rng.randint(low, high)
                else:
                    request[field] = rng.randint(low, high)
                out_of_range.add(request["id"])
            if rng.random() < 0.25:
                request["weights"] = {
                    dim: rng.choice((0.5, 1, 1.5, 2, 3))
                    for dim in ("topology", "device", "data_plane")
                    if rng.random() < 0.7
                }
            table.append(request)
        result.append(table)
    return result, out_of_range
