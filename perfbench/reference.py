"""Independent fault levels for networks too large for oracle_solve.

ZbusReference builds the bus impedance matrix Z = Y^-1 straight from a
network document's element list and answers every bolted fault from it:

    I_f,k = V_pre,k / Z_kk,    V_post = V_pre - I_f,k * Z[:, k]

It shares no code with protcoord: the per-unit conversion, the limiter
resistance on the tie and the admittance stamps are all done here. It
handles what make_feeder generates (lines, one tie, infinite_grid and
sync_dg sources, shunt loads) and refuses anything else.
"""

from __future__ import annotations

import math

import numpy as np


class ZbusReference:
    def __init__(self, doc: dict, r_tie_ohm: float = 0.0,
                 with_dg: bool = True):
        s_base = float(doc.get("s_base_va", 10e6))
        self.index = {b["id"]: i for i, b in enumerate(doc["buses"])}
        v_ll = np.array([b["nominal_voltage"] for b in doc["buses"]])
        z_base = v_ll ** 2 / s_base
        self.i_base = s_base / (math.sqrt(3.0) * v_ll)
        tie = doc["ufcl"]["tie_branch"]
        n = len(self.index)
        y = np.zeros((n, n), dtype=complex)
        inj = np.zeros(n, dtype=complex)

        self.branch = {}  # id -> (from index, to index, per-unit z)
        for br in doc["branches"]:
            if br["kind"] not in ("line", "tie"):
                raise ValueError(f"reference handles lines and ties, "
                                 f"not {br['kind']!r}")
            f, t = self.index[br["from_bus"]], self.index[br["to_bus"]]
            ohm = complex(br["impedance"]["r"], br["impedance"]["x"])
            if br["id"] == tie:
                ohm += r_tie_ohm
            z = ohm / z_base[f]
            self.branch[br["id"]] = (f, t, z)
            y[f, f] += 1 / z
            y[t, t] += 1 / z
            y[f, t] -= 1 / z
            y[t, f] -= 1 / z
        for src in doc["sources"]:
            if src["kind"] not in ("infinite_grid", "sync_dg"):
                raise ValueError(f"reference handles grid and synchronous "
                                 f"sources, not {src['kind']!r}")
            if src["kind"] == "sync_dg" and not with_dg:
                continue
            k = self.index[src["bus"]]
            z = complex(src["internal_impedance"]["r"],
                        src["internal_impedance"]["x"]) / z_base[k]
            y[k, k] += 1 / z
            inj[k] += src.get("emf_pu", 1.0) / z
        for ld in doc.get("loads", []):
            k = self.index[ld["bus"]]
            y[k, k] += 1 / (complex(ld["impedance"]["r"],
                                    ld["impedance"]["x"]) / z_base[k])

        self.z = np.linalg.inv(y)
        self.v_pre = self.z @ inj
        self.i_f_pu = self.v_pre / np.diag(self.z)

    def fault_current_a(self, bus: str) -> float:
        k = self.index[bus]
        return float(abs(self.i_f_pu[k]) * self.i_base[k])

    def branch_current_a(self, branch: str, bus: str) -> float:
        """|current| in a branch, from-side base, for a fault at bus."""
        f, t, z = self.branch[branch]
        k = self.index[bus]
        dv = (self.v_pre[f] - self.v_pre[t]
              - self.i_f_pu[k] * (self.z[f, k] - self.z[t, k]))
        return float(abs(dv / z) * self.i_base[f])
