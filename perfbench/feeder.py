"""Seeded radial 20 kV feeder with DG behind a tie limiter.

make_feeder(n_buses, seed) returns a network document: the dict a network
JSON file holds, ready for json.dumps and protcoord's load_network. The
same (n_buses, seed) always gives the same document.

Layout:
- An upstream random tree u0..u{m-1} fed by the infinite grid at u0.
- A tie from u{m-1} to d0. The limiter sits on it and is sized at u{m-1}.
- A downstream random tree d0..d{k-1} (k = n_buses // 4) holding the DGs.
- Relays on every branch of the path from u0 to the tie, and on the tie.
  Adjacent relays along that path form main/backup pairs.

Downstream loads stay light: their parallel impedance is kept at least
four orders above a line impedance. With heavy loads, detaching the
microgrid changes the upstream level by more than the 0.5 % sizing
tolerance, and no finite limiter resistance restores it.
"""

from __future__ import annotations

import random

KV = 20000.0
N_DG = 4


def _z(rng: random.Random, r: tuple[float, float],
       x: tuple[float, float], scale: float = 1.0) -> dict:
    return {"r": rng.uniform(*r) * scale, "x": rng.uniform(*x) * scale}


def make_feeder(n_buses: int, seed: int) -> dict:
    if n_buses < 4 * N_DG:
        raise ValueError(f"a feeder needs at least {4 * N_DG} buses")
    rng = random.Random(f"feeder:{n_buses}:{seed}")
    n_dn = n_buses // 4
    n_up = n_buses - n_dn

    buses = [{"id": f"u{i}", "nominal_voltage": KV} for i in range(n_up)]
    buses += [{"id": f"d{i}", "nominal_voltage": KV} for i in range(n_dn)]

    parent_branch = {}  # upstream bus -> id of the branch feeding it
    branches = []
    for prefix, count in (("u", n_up), ("d", n_dn)):
        for i in range(1, count):
            bid = f"{prefix}l{i}"
            branches.append({
                "id": bid, "from_bus": f"{prefix}{rng.randrange(i)}",
                "to_bus": f"{prefix}{i}", "kind": "line",
                "impedance": _z(rng, (0.2, 1.5), (0.2, 1.5))})
            if prefix == "u":
                parent_branch[f"u{i}"] = branches[-1]
    tie_end = f"u{n_up - 1}"
    branches.append({"id": "tie", "from_bus": tie_end, "to_bus": "d0",
                     "kind": "tie",
                     "impedance": _z(rng, (0.3, 1.5), (0.3, 1.5))})

    sources = [{"id": "grid", "bus": "u0", "kind": "infinite_grid",
                "internal_impedance": _z(rng, (0.5, 2.0), (2.0, 6.0))}]
    for j, i in enumerate(sorted(rng.sample(range(n_dn), N_DG))):
        sources.append({"id": f"dg{j + 1}", "bus": f"d{i}",
                        "kind": "sync_dg",
                        "internal_impedance": _z(rng, (2.0, 10.0),
                                                 (10.0, 60.0))})

    # total upstream load around 5 MVA, downstream around 20 kVA, however
    # many buses carry it
    up_loaded = rng.sample(range(n_up), max(1, n_up // 3))
    dn_loaded = rng.sample(range(n_dn), max(1, n_dn // 10))
    loads = [{"id": f"lu{i}", "bus": f"u{i}",
              "impedance": _z(rng, (60.0, 100.0), (6.0, 10.0),
                              len(up_loaded))} for i in sorted(up_loaded)]
    loads += [{"id": f"ld{i}", "bus": f"d{i}",
               "impedance": _z(rng, (1.5e4, 2.5e4), (1.5e3, 2.5e3),
                               len(dn_loaded))} for i in sorted(dn_loaded)]

    # relays from the grid to the tie, backup first
    path = []
    bus = tie_end
    while bus in parent_branch:
        path.append(parent_branch[bus])
        bus = parent_branch[bus]["from_bus"]
    path.reverse()
    path.append(branches[-1])
    relays = [{"id": f"r_{br['id']}", "branch": br["id"],
               "orientation": "from_to",
               "pickup_a": round(rng.uniform(150.0, 400.0), 1),
               "tds": round(0.1 + 0.05 * (len(path) - k), 2),
               "curve": "iec_standard_inverse"}
              for k, br in enumerate(path)]
    pairs = [{"main": relays[k + 1]["id"], "backup": relays[k]["id"],
              "fault_bus": path[k + 1]["to_bus"]}
             for k in range(len(path) - 1)]

    return {
        "s_base_va": 10e6, "buses": buses, "branches": branches,
        "sources": sources, "loads": loads, "relays": relays,
        "pairs": pairs,
        "ufcl": {"tie_branch": "tie", "r_limit": 100.0, "r_normal": 0.0,
                 "downstream_end": "d0", "sizing_fault_bus": tie_end},
    }
