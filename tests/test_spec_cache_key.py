"""Byte-literal pin of the cache key for attack- and fault-bearing configs.

The result cache hashes ``ExperimentConfig.canonical_json()``, so the dict
form of every attack and fault spec kind is part of the cache key. The
corpus below carries every registered attack kind and every registered
fault kind, written the loose way a hand-edited config would be: int
literals in float fields, lists in tuple fields, optional fields both set
and unset. Its canonical JSON is pinned byte for byte; a change to how any
spec serializes shows up here as a diff, not as a silent cache miss.
"""

import json

from repro import registry
from repro.core.config import ExperimentConfig

CORPUS = {
    "topology": {"kind": "torus", "dims": [4, 4]},
    "routing": {"name": "fully-adaptive"},
    "marking": {"name": "ddpm"},
    "seed": 3,
    "attacks": {"specs": [
        {"kind": "flood", "attackers": [1, 2], "rate_per_attacker": 40,
         "duration": 2, "spoofing": "fixed", "spoofing_address": 5},
        {"kind": "syn-flood", "num_attackers": 2, "start": 1,
         "background_rate": 1},
        {"kind": "ack-flood"},
        {"kind": "pulsing", "rate_per_attacker": 90, "period": 1,
         "attackers": [3], "spoofing": "victim"},
        {"kind": "reflection", "reflectors": [6, 7, 8], "request_rate": 15,
         "amplification": 5},
        {"kind": "worm", "seeds": [0, 9], "scan_rate": 4, "horizon": 10},
        {"kind": "benign-poisson", "pattern": "hotspot", "rate": 3,
         "hotspot_fraction": 0},
        {"kind": "benign-sessions", "session_rate": 1,
         "requests_per_session": 2},
        {"kind": "mix", "weights": [2, 1], "components": [
            {"kind": "flood", "num_attackers": 2, "duration": 1},
            {"kind": "benign-poisson", "duration": 1}]},
        {"kind": "mix", "components": [{"kind": "worm", "seeds": [4]}]},
    ]},
    "faults": {"specs": [
        {"kind": "link-flap", "u": 0, "v": 1, "fail_at": 1, "restore_at": 2},
        {"kind": "link-flap", "u": 3, "v": 2, "fail_at": 0},
        {"kind": "switch-crash", "node": 5, "crash_at": 1, "restart_at": 4},
        {"kind": "switch-crash", "node": 6, "crash_at": 2},
        {"kind": "nic-stall", "node": 2, "start_at": 0, "end_at": 1},
        {"kind": "packet", "mode": "drop", "probability": 0},
        {"kind": "packet", "mode": "bitflip", "probability": 1,
         "start_at": 1, "end_at": 3, "node": 7},
        {"kind": "random-link-flap", "probability": 0, "mean_downtime": 1},
        {"kind": "random-link-flap", "probability": 1, "start_at": 1,
         "end_at": 2},
    ]},
}

#: canonical_json() of CORPUS; recorded before the spec kinds shared one
#: dict form, and never re-recorded since.
PINNED = (
    '{"attack_rate_per_node":40.0,"attackers":null,'
    '"attacks":{"specs":[{"attackers":[1,2],"background_rate":0.0,'
    '"duration":2.0,"kind":"flood","num_attackers":3,'
    '"rate_per_attacker":40.0,"spoofing":"fixed","spoofing_address":5,'
    '"start":0.0,"start_jitter":0.0},{"background_rate":1.0,"duration":5.0,'
    '"kind":"syn-flood","num_attackers":2,"rate_per_attacker":40.0,'
    '"spoofing":"in-cluster","start":1.0,"start_jitter":0.0},'
    '{"background_rate":0.0,"duration":5.0,"kind":"ack-flood",'
    '"num_attackers":3,"rate_per_attacker":40.0,"spoofing":"in-cluster",'
    '"start":0.0,"start_jitter":0.0},{"attackers":[3],"duration":5.0,'
    '"duty_cycle":0.2,"kind":"pulsing","num_attackers":3,"period":1.0,'
    '"rate_per_attacker":90.0,"spoofing":"victim","start":0.0},'
    '{"amplification":5,"duration":5.0,"kind":"reflection",'
    '"num_attackers":2,"num_reflectors":4,"reflectors":[6,7,8],'
    '"reply_payload_bytes":512,"request_payload_bytes":64,'
    '"request_rate":15.0,"start":0.0},{"horizon":10.0,"incubation":0.0,'
    '"infection_probability":1.0,"kind":"worm","payload_bytes":256,'
    '"recovery_rate":0.0,"scan_rate":4.0,"seeds":[0,9]},{"duration":5.0,'
    '"hotspot_fraction":0.0,"kind":"benign-poisson","pattern":"hotspot",'
    '"payload_bytes":64,"rate":3.0,"start":0.0},{"duration":5.0,'
    '"kind":"benign-sessions","reply_payload_bytes":256,'
    '"request_payload_bytes":64,"requests_per_session":2,'
    '"session_rate":1.0,"start":0.0,"think_time":0.05},'
    '{"components":[{"background_rate":0.0,"duration":1.0,"kind":"flood",'
    '"num_attackers":2,"rate_per_attacker":40.0,"spoofing":"in-cluster",'
    '"start":0.0,"start_jitter":0.0},{"duration":1.0,'
    '"hotspot_fraction":0.2,"kind":"benign-poisson","pattern":"uniform",'
    '"payload_bytes":64,"rate":2.0,"start":0.0}],"kind":"mix",'
    '"weights":[2.0,1.0]},{"components":[{"horizon":25.0,"incubation":0.0,'
    '"infection_probability":1.0,"kind":"worm","payload_bytes":256,'
    '"recovery_rate":0.0,"scan_rate":2.0,"seeds":[4]}],"kind":"mix"}]},'
    '"background_rate":2.0,"duration":5.0,'
    '"faults":{"specs":[{"fail_at":1.0,"kind":"link-flap","restore_at":2.0,'
    '"u":0,"v":1},{"fail_at":0.0,"kind":"link-flap","u":3,"v":2},'
    '{"crash_at":1.0,"kind":"switch-crash","node":5,"restart_at":4.0},'
    '{"crash_at":2.0,"kind":"switch-crash","node":6},{"end_at":1.0,'
    '"kind":"nic-stall","node":2,"start_at":0.0},{"kind":"packet",'
    '"mode":"drop","probability":0.0,"start_at":0.0},{"end_at":3.0,'
    '"kind":"packet","mode":"bitflip","node":7,"probability":1.0,'
    '"start_at":1.0},{"kind":"random-link-flap","mean_downtime":1.0,'
    '"probability":0.0,"start_at":0.0},{"end_at":2.0,'
    '"kind":"random-link-flap","probability":1.0,"start_at":1.0}]},'
    '"marking":{"name":"ddpm","probability":0.05},"misroute_budget":8,'
    '"num_attackers":3,"routing":{"name":"fully-adaptive"},"seed":3,'
    '"selection":{"name":"random"},"topology":{"dims":[4,4],'
    '"kind":"torus"},"trace_packets":false,"victim":null}'
)


def test_every_attack_and_fault_kind_is_in_the_corpus():
    attack_kinds = set()
    for spec in CORPUS["attacks"]["specs"]:
        attack_kinds.add(spec["kind"])
        attack_kinds.update(c["kind"] for c in spec.get("components", ()))
    assert attack_kinds == set(registry.ATTACKS.names())
    fault_kinds = {spec["kind"] for spec in CORPUS["faults"]["specs"]}
    assert fault_kinds == set(registry.FAULTS.names())


def test_canonical_json_is_pinned():
    config = ExperimentConfig.from_dict(CORPUS)
    text = config.canonical_json()
    assert text == PINNED
    # the canonical form is a fixed point of the dict round trip
    rebuilt = ExperimentConfig.from_dict(json.loads(text))
    assert rebuilt == config
    assert rebuilt.canonical_json() == PINNED
