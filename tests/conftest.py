"""Shared fixtures and random-network builders for the test suite."""

import functools
import importlib.util
import json
import os
import random
from pathlib import Path

import pytest

import protcoord
from protcoord import bundled_dataset_path
from protcoord.faultcalc import LimiterStates
from protcoord.netmodel import (Branch, Bus, Network, ShuntLoad, Source,
                                UfclSpec, load_network, to_per_unit)


@pytest.fixture(scope="session")
def bundled_net():
    return load_network(bundled_dataset_path().read_text())


@pytest.fixture(scope="session")
def expected():
    from _bundled_expected import EXPECTED
    return EXPECTED


ROOT = Path(__file__).resolve().parent.parent


def package_env():
    """os.environ with the imported protcoord's folder first on
    PYTHONPATH, for a fresh interpreter that must import the same
    package."""
    src = str(Path(protcoord.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def branch_amps(net, bus_voltages_pu, r_ohm=0.0):
    """Each branch's complex current in amps on its from-side base, in
    net.branches order, from a post-fault voltage profile in per-unit
    (net.buses order): the voltage across the branch over the branch's
    own impedance, with the limiter resistance r_ohm in series on the
    ufcl block's tie."""
    pu = to_per_unit(net)
    v = dict(zip(net.bus_ids(), bus_voltages_pu))
    tie = None if net.ufcl is None else net.ufcl.tie_branch
    amps = {}
    for br in net.branches:
        z = pu.branch_z_pu[br.id]
        if br.id == tie:
            z += r_ohm / pu.z_base[br.from_bus]
        amps[br.id] = complex((v[br.from_bus] - v[br.to_bus]) / z
                              * pu.i_base[br.from_bus])
    return amps


def fault_voltages(net, bus, r_ohm=0.0):
    """The post-fault voltage profile in per-unit, in net.buses order, of a
    fault at bus with the limiter resistance r_ohm, read at r_ohm from the
    states factorised at R = 0: the states that solve_fault(net,
    FaultSpec(bus), r_ohm) reads, to the same bits."""
    return LimiterStates(net).profile(bus, r_ohm)


def bench_module(name):
    """perfbench/<name>.py, imported read-only: compiled here, so that no
    bytecode cache is written beside it."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path))
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         vars(module))
    return module


@functools.cache
def feeder_net(buses, seed):
    """The benchmark's generated feeder of that many buses and seed, every
    DG in service; the network is frozen."""
    feeder = bench_module("feeder")
    return load_network(json.dumps(feeder.make_feeder(buses, seed)))


def random_connected_net(seed, max_buses=8):
    """Arbitrary connected net: random tree plus a few loops, 1-3 sources."""
    rng = random.Random(seed)
    n = rng.randint(2, max_buses)
    buses = [Bus(f"n{i}", 20000.0) for i in range(n)]

    branches = []
    for i in range(1, n):
        j = rng.randrange(i)
        branches.append(Branch(f"br{i}", f"n{j}", f"n{i}", "line",
                               complex(rng.uniform(0.5, 5.0),
                                       rng.uniform(0.5, 5.0))))
    for k in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        branches.append(Branch(f"loop{k}", f"n{a}", f"n{b}", "line",
                               complex(rng.uniform(0.5, 5.0),
                                       rng.uniform(0.5, 5.0))))

    sources = [Source("grid", "n0", "infinite_grid",
                      complex(rng.uniform(0.5, 3.0), rng.uniform(1.0, 6.0)))]
    for d in range(rng.randint(0, 2)):
        sources.append(Source(
            f"dg{d}", f"n{rng.randrange(n)}",
            rng.choice(["sync_dg", "induction_dg"]),
            complex(rng.uniform(1.0, 5.0), rng.uniform(5.0, 40.0))))

    loads = [ShuntLoad(f"ld{li}", f"n{rng.randrange(n)}",
                       complex(rng.uniform(50.0, 400.0),
                               rng.uniform(5.0, 40.0)))
             for li in range(rng.randint(0, 3))]

    return Network(buses=tuple(buses), branches=tuple(branches),
                   sources=tuple(sources), loads=tuple(loads))


def random_radial_net(seed, max_buses=7, with_dg=False):
    """Pure tree with loads; optionally one synchronous DG at a leaf."""
    rng = random.Random(seed)
    n = rng.randint(2, max_buses)
    buses = [Bus(f"n{i}", 20000.0) for i in range(n)]
    branches = []
    for i in range(1, n):
        j = rng.randrange(i)
        branches.append(Branch(f"br{i}", f"n{j}", f"n{i}", "line",
                               complex(rng.uniform(0.5, 5.0),
                                       rng.uniform(0.5, 5.0))))
    sources = [Source("grid", "n0", "infinite_grid",
                      complex(rng.uniform(0.5, 3.0), rng.uniform(1.0, 6.0)))]
    if with_dg:
        sources.append(Source("dg", f"n{n - 1}", "sync_dg",
                              complex(rng.uniform(1.0, 5.0),
                                      rng.uniform(5.0, 40.0))))
    loads = [ShuntLoad(f"ld{li}", f"n{rng.randrange(n)}",
                       complex(rng.uniform(100.0, 600.0),
                               rng.uniform(10.0, 60.0)))
             for li in range(rng.randint(1, 3))]
    return Network(buses=tuple(buses), branches=tuple(branches),
                   sources=tuple(sources), loads=tuple(loads))


def random_tie_net(seed):
    """Grid-side chain, a tie, and a DG microgrid with very light loads.

    Downstream loads are kept >= three orders above the line impedances so
    the limiter can fully cancel the DG contribution: with heavy loads the
    detached-load gap would exceed the sizing tolerance and no finite
    resistance could restore the pre-DG level.

    Returns (net, sizing_bus): the net has the DG in service and a UfclSpec
    on the tie; sizing_bus is the designated upstream bus.
    """
    rng = random.Random(seed)
    n_up = rng.randint(2, 3)  # n0 (grid) .. n_up-1
    n_dn = rng.randint(1, 3)  # d0 .. d_dn-1

    buses = [Bus(f"n{i}", 20000.0) for i in range(n_up)]
    buses += [Bus(f"d{i}", 20000.0) for i in range(n_dn)]

    branches = []
    for i in range(1, n_up):
        branches.append(Branch(f"up{i}", f"n{i - 1}", f"n{i}", "line",
                               complex(rng.uniform(0.3, 3.0),
                                       rng.uniform(0.3, 3.0))))
    branches.append(Branch("tie", f"n{n_up - 1}", "d0", "tie",
                           complex(rng.uniform(0.3, 3.0),
                                   rng.uniform(0.3, 3.0))))
    for i in range(1, n_dn):
        branches.append(Branch(f"dn{i}", f"d{i - 1}", f"d{i}", "line",
                               complex(rng.uniform(0.3, 3.0),
                                       rng.uniform(0.3, 3.0))))

    sources = [
        Source("grid", "n0", "infinite_grid",
               complex(rng.uniform(1.0, 4.0), rng.uniform(2.0, 8.0))),
        Source("dg", f"d{n_dn - 1}", "sync_dg",
               complex(rng.uniform(2.0, 10.0), rng.uniform(10.0, 60.0))),
    ]
    loads = [ShuntLoad("ld_up", f"n{rng.randrange(n_up)}",
                       complex(rng.uniform(200.0, 800.0),
                               rng.uniform(20.0, 80.0)))]
    for i in range(rng.randint(0, 2)):
        loads.append(ShuntLoad(f"ld_dn{i}", f"d{rng.randrange(n_dn)}",
                               complex(rng.uniform(2e4, 2e5),
                                       rng.uniform(2e3, 2e4))))

    sizing_bus = f"n{n_up - 1}"
    net = Network(buses=tuple(buses), branches=tuple(branches),
                  sources=tuple(sources), loads=tuple(loads),
                  ufcl=UfclSpec(tie_branch="tie", r_normal=0.0,
                                sizing_fault_bus=sizing_bus))
    return net, sizing_bus
