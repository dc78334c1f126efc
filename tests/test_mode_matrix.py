"""Every scheduling mode at CLI scale, checked against the naive reference.

The golden pins run the default config only. This matrix runs 400 seed-11
requests through ``cli.main`` under configs that together cover two node
templates, resident utilization, autoscale off, an autoscale template too
small for some requests, both power modes with ``off_when_empty`` on and
off, resort, ``retain_min_nodes`` with a short grace, and a cluster that
grows from one node to ``auto-49``: the sort-once headroom tree doubles
five times, and ``auto-10`` sorts before ``auto-9`` in the power
scheduler's id order.

For each config every algorithm runs ``schedule`` (JSON and CSV) and
``compare`` (CSV and JSON); timed configs also run ``simulate``. Each batch
outcome is checked against ``ref_max_util``, ``ref_load_balance`` or
``ref_power_efficient`` and each timeline against ``ref_timeline``: the
CLI's outputs must be what the package's writers make of the reference's
results. Every output is pinned by its sha256, and each library run must
decide the same with ``record_scans`` on and off.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import replace
from typing import Dict, List

import pytest

from gptsched import (
    ALGORITHMS,
    AllocationOutcome,
    Node,
    NodeTemplate,
    ResourceVector,
    UtilizationVector,
    build_report,
    canonical_json,
    load_cluster_config,
    load_trace,
    report_to_dict,
    run_timeline,
    write_comparison,
    write_report,
)
from gptsched.cli import main
from gptsched.scheduling import ClusterState

from naive_reference import ref_load_balance, ref_max_util, ref_power_efficient, ref_timeline

REQUESTS = 400
SNAPSHOT_INTERVAL = 7.0
# Timed arrivals (8/s) with lognormal(4, 0.5) durations.
TIMED = {"arrival_rate_per_s": 8.0, "duration": {"mu": 4.0, "sigma": 0.5}}
SMALL = {"capacity": {"compute": 500, "memory_gib": 256, "storage_gib": 1000}, "p_idle_w": 60, "p_max_w": 250}
RESIDENT = {"compute": 0.5, "memory": 0.25, "storage": 0.1}

MATRIX: Dict[str, dict] = {
    # Sort-once on two templates; the autoscale template is the first group's.
    "two-templates": {"cluster": [{"count": 3, **SMALL}, {"count": 2}]},
    "two-templates-resort": {
        "cluster": [{"count": 2}, {"count": 2, **SMALL}],
        "scheduler": {"resort_after_each_allocation": True},
        "power": {"mode": "absolute-after", "off_when_empty": False},
    },
    "resident-fixed": {
        "cluster": [{"count": 4, "resident_utilization": RESIDENT}, {"count": 12}],
        "autoscale": {"enabled": False},
        "power": {"off_when_empty": False},
    },
    "absolute-after": {"power": {"mode": "absolute-after"}},
    # Large requests fit no fresh node and are refused.
    "small-autoscale": {"cluster": [{"count": 2}], "autoscale": {"capacity": {"memory_gib": 100}}},
    "growth": {"cluster": [{"count": 1}], "scheduler": {"threshold": 0.5}},
    "timed-retain": {"cluster": [{"count": 6}], "adaptor": {"scale_down_grace_s": 5, "retain_min_nodes": 3}},
    "timed-resort-absolute": {
        "cluster": [{"count": 2, **SMALL}, {"count": 1}],
        "scheduler": {"resort_after_each_allocation": True},
        "power": {"mode": "absolute-after", "off_when_empty": False},
        "adaptor": {"scale_down_grace_s": 20},
    },
    "timed-growth": {"cluster": [{"count": 1}], "adaptor": {"scale_down_grace_s": 30}},
    "timed-fixed": {
        "cluster": [{"count": 4, **SMALL}, {"count": 2}],
        "autoscale": {"enabled": False},
        "adaptor": {"scale_down_grace_s": 10, "retain_min_nodes": 2},
    },
}
for _name, _doc in MATRIX.items():
    if _name.startswith("timed-"):
        _doc["generator"] = TIMED

# sha256 of every output, taken where the reference checks passed.
PINS: Dict[str, str] = {
    "absolute-after/compare.csv": "b2106a6027635da6d6b1c2c6fd4118b6ae38e87f2c2f1e88380b600c56783037",
    "absolute-after/compare.json": "378c0db900cc007fce7c7e5e653024f887f27fddb9eabb95f16a033a54d976ca",
    "absolute-after/schedule-load-balance.csv": "435006a3220c66ce708c828ec347b72e3de598621edcb1e75bf95c389fa7ce17",
    "absolute-after/schedule-load-balance.json": "c24103e3864be20f947aaf2e213adb55698b24280e6de51728ec58d128156857",
    "absolute-after/schedule-max-util.csv": "010ae516ffaaef389a31b7aad96039f840a82cbeffd8e57e27feb6d13ad1facc",
    "absolute-after/schedule-max-util.json": "219f0fda3f3c06c21b217b0017400f513cea80abaec7e2e52934e1cfe498d005",
    "absolute-after/schedule-power.csv": "089169f6b9211834750824c30b211cf2fc8e665e6031cbf27084c9c5ed45714b",
    "absolute-after/schedule-power.json": "53fc5dd5649e47bf58da2ac5ce0c1e3511045683e4c1547ae76b3e7a5e6e5341",
    "growth/compare.csv": "fb99e3d282f8bed22524e5fbd2d40a7af16b7c94751eef34f9d1a151276bed65",
    "growth/compare.json": "8adc3812902828011d46c6706f35d9908675018c2bab6e2b9224025f747b5b5f",
    "growth/schedule-load-balance.csv": "a1393064737666a29fccea7a91a05138816d0b9559aa4ef54a9840a3979b43e4",
    "growth/schedule-load-balance.json": "2ca2a529c349f65728aff99f73aeaa66da6bc3bd35183768c1d59b6796c3e859",
    "growth/schedule-max-util.csv": "38e9d261f01296619cc5d539b07b2c619216c279bb13c280daaf29e14b9f4f68",
    "growth/schedule-max-util.json": "2ff3cdf4f4bfbb3c018d221f62acfba1fc9cfa6897047209228f618c0420c203",
    "growth/schedule-power.csv": "2bf7a2158adb80b403b39bbf6f85ed2942716e17d110cec56cc278808beca484",
    "growth/schedule-power.json": "f8157daa7f5d6125a54a2d827c250a593c8e1a47afaf7a3f260f85bb0b8285b4",
    "resident-fixed/compare.csv": "a2f9766b32acef3e1238ca6a609e250b5de6bb87e2a1dedb75b0f41bad4f1a59",
    "resident-fixed/compare.json": "acbc68afb05f9440900acb5caab72619638502e8b4fca0955d8f1be181cb32d0",
    "resident-fixed/schedule-load-balance.csv": "82697470cd40363e05da081bc536d27df6c6176cf8b5bd8625c9f19ec15c41e1",
    "resident-fixed/schedule-load-balance.json": "431e1b6a332850cabbea265e1bb055d16a2bedc95f011a87cec1887a6b13b594",
    "resident-fixed/schedule-max-util.csv": "e24dfe7d7bccb251056935c4bb3c6ad3a0ab0dfe01051c6091b292fed32a915c",
    "resident-fixed/schedule-max-util.json": "93654b530b1262c037351913be098d9756ddc665c76826e96e83dba9687a8de7",
    "resident-fixed/schedule-power.csv": "ec12d507c0a945519a52a67c81eb9a5d8d95b9fec36bf004cad0dea22e86a95c",
    "resident-fixed/schedule-power.json": "0a84824d1afc8173f17dc4ca18804410e70e6b751221a4063023090d622b2d86",
    "small-autoscale/compare.csv": "aa61d0e45338fe48ac2f76ad569f7e25abd60ceb7e7a97a3d4b285fe945348da",
    "small-autoscale/compare.json": "bf6344e39a1e31b6641a656763e3d6ff69fde22d23c817a40ee62b92f2b8be6c",
    "small-autoscale/schedule-load-balance.csv": "5e442ff2641de250912677521059f9eb1c9e65042c268c98a32bdefe4721c358",
    "small-autoscale/schedule-load-balance.json": "a189cec874d6d74dc2240bef29e305f87a031fd5d9d865a66319e72732b0a851",
    "small-autoscale/schedule-max-util.csv": "03813d430d24eba159f620abffcafbcf643bca66d7ebf306fe098ffd568ab76b",
    "small-autoscale/schedule-max-util.json": "a60dfb227847305295a4521fc30bb40d27efb753c8041607682f03e4b5d67edd",
    "small-autoscale/schedule-power.csv": "44ab7247e4aa1ded509bd4d2cbf2d8977e30156a6c11be51c7813f3d0e46c3b0",
    "small-autoscale/schedule-power.json": "b736d8eb592f879bb74fdeaca8f937cdb798110866be0a8d92e51323ab6aedd9",
    "timed-fixed/compare.csv": "f3dc4b78256dd05bf81c04606e028dd1ea4aed8752103a6164fffd7f735267c7",
    "timed-fixed/compare.json": "8e36315b4bc10ef772262fa20a37fef2272f0e7f16b3f9798d9551b60ca4d539",
    "timed-fixed/schedule-load-balance.csv": "e0c2a6d3d9e60ef93a41133a86ddd8c22ac5ab7aa6b8014a7a7cabf3a46814fc",
    "timed-fixed/schedule-load-balance.json": "1771359a9c03198d0a1e473568001c27f997e3361debcbf0ba6d98d5d0029e84",
    "timed-fixed/schedule-max-util.csv": "ae92fb19e11125f125d18f7b43131958fc35848d4ecb569ecf072b9a25587704",
    "timed-fixed/schedule-max-util.json": "d54b4fd48422e607da8c82afabf732f77ec47e1592116f1306f8ce415322444e",
    "timed-fixed/schedule-power.csv": "4f3f264287402fb1339bead036e531b0a016679d4968f1a1ef8af509ec4a1e67",
    "timed-fixed/schedule-power.json": "b4afb408bb257f3b9351114ac21248b249be74d5e1959df6b12b3b2c5970848c",
    "timed-fixed/simulate-load-balance/report.csv": "613a1dfbbf77d28c28e7811a823c0115784bafad23fcfa987999f6f5959d02d4",
    "timed-fixed/simulate-load-balance/snapshots.csv": "6bdf28ec95457d05222b06b5cc272232f7e1e3b3ee5c58bb21c4aed023e5403d",
    "timed-fixed/simulate-max-util/report.json": "c1ec3889b7b2175985dad23d4fed290acb9288fefe64c603f3f40a2d52b0f24e",
    "timed-fixed/simulate-max-util/snapshots.csv": "cf86ac70f4ff68b678c69feddeb915427132631c82980d036dff0620a7d48136",
    "timed-fixed/simulate-power/report.json": "abcf1d9cf63a4ce02f20395e637fe8f24a7a6c9460d4d2227a8d478658861feb",
    "timed-fixed/simulate-power/snapshots.csv": "b8f56139c1cde7a119567e2e3ada9a64d6e75fd542f539d3d783d56b9de7e76e",
    "timed-growth/compare.csv": "3478c452bdc849cecca4f92b0d1bcdcffb7b2c9148427c281373405fe1ed79f4",
    "timed-growth/compare.json": "1c9c3e769422b0df557d7246fcfd497984e9e956f850b8feb08c4220ae1987b1",
    "timed-growth/schedule-load-balance.csv": "0a70c2735597c4706f57f7c808d53144f416eeadabae6e7af7a72707c19d0b2d",
    "timed-growth/schedule-load-balance.json": "4cbbba6751b19fa5cdc77cc2456fcd864691f2f0e37bae3f7ce6ca22ca0910a7",
    "timed-growth/schedule-max-util.csv": "92d4034c59b7ea3a71bd874a452f7522943af817b3e1d439e2de54e4ab922245",
    "timed-growth/schedule-max-util.json": "69835fcb4f6f7158949f421b962497395241b26ec8453cb8f61d52408e2192a0",
    "timed-growth/schedule-power.csv": "c4eb2031e5c2226e45cb6ea0c4042fe51497c73d1ff7ad97a670618702f3ddd5",
    "timed-growth/schedule-power.json": "451e6fba24bc292889aa94a08088cd6a201dacf439f665e6cc6a619ae82a4ca5",
    "timed-growth/simulate-load-balance/report.csv": "5c2bf5d234130fbea06075dc9d25c25212747613c7901fe25e65714e929c7d3c",
    "timed-growth/simulate-load-balance/snapshots.csv": "92c03f534b8b38d649e5e3be912aca3236773d4008883f1c89cec20b1ced3ba3",
    "timed-growth/simulate-max-util/report.json": "7debded18aa8eabe5842262d2c4346f3f76d27fe317f2ef24e69ff13251081fa",
    "timed-growth/simulate-max-util/snapshots.csv": "3de82d862025e9de9283736be6e772761ce7c4ca92bfca34da76f66088c5e0da",
    "timed-growth/simulate-power/report.json": "fc59ebaf251d640ea22a596f0f28434af93773ce4439d497765d2dbffe2e2ce4",
    "timed-growth/simulate-power/snapshots.csv": "9a3304d3b1f7220a81517a7ab07d24e31a6d88f9b9d16727a01ea2128b551bc0",
    "timed-resort-absolute/compare.csv": "fb7a57a8372258884a663807577a4fad6d8f29a64e747187ef2260c2778e36fd",
    "timed-resort-absolute/compare.json": "41526537da190f9a8c96e046dbdadb17653a06b914b7a7e031b89d50efd99c51",
    "timed-resort-absolute/schedule-load-balance.csv": "457ff829a85bb24a8dc7468abeaac0a1e9fa1634215186a1871b957aa77382ca",
    "timed-resort-absolute/schedule-load-balance.json": "55cf41b7aab3f33462fa74b7eca301bd1a2abab246b70ec421b60c5e49a412a3",
    "timed-resort-absolute/schedule-max-util.csv": "ad377fe7cdc3061c2096cd61f64f08016557efb88509aae30a6dfe28bc93ee99",
    "timed-resort-absolute/schedule-max-util.json": "b2b6f13602a661ca6562dc5f18196542cb67925501f19e8214cd8671f2245390",
    "timed-resort-absolute/schedule-power.csv": "bf76e08badfa2161ab766ff4b304d730dc197ab67dcfd174b03ca6a3dc3f7dbd",
    "timed-resort-absolute/schedule-power.json": "7b297f73fa838faff34ca21186fc23984db9e47c19a1acfb3a9a8d9533de9c7d",
    "timed-resort-absolute/simulate-load-balance/report.csv": "461118fbf8a8f8140e69ac660b22deaf4e78f4b8896fc85d424737c01f5fa90a",
    "timed-resort-absolute/simulate-load-balance/snapshots.csv": "6ca032c57e24498f030dc2a1982cc8857640e45eb18482685ce7bfeecf3f3c8e",
    "timed-resort-absolute/simulate-max-util/report.json": "e050b4594df47e11cad4ac1bebf0c3b72dfc927d9575a13cd7ba9b2261d705a4",
    "timed-resort-absolute/simulate-max-util/snapshots.csv": "780cf8f4b0e8e41b227bf70440b9d1c2e87fce8a6699c1636bb10aa42db054a5",
    "timed-resort-absolute/simulate-power/report.json": "492f9e4a79a92955887010a6265b8e6d7714e3a4d01d6d559501a7cfd7010321",
    "timed-resort-absolute/simulate-power/snapshots.csv": "8ae043bb0f257f747f53f22c69589e62b5f947bb8a5c45f28d207adb84a4b946",
    "timed-retain/compare.csv": "9b75bd4cd26f8d12f8bcd593b87f6b70c5fd22f3c39d05d5b2287da6ac543f88",
    "timed-retain/compare.json": "bfb430a0a163b9d1b655516f0f144d27ae96d2be3f2397ebdb64289e0ed04618",
    "timed-retain/schedule-load-balance.csv": "657c712e0f1d5b96f7794d8e61255fba95a4833507ed5cf61818e1a1b96668a9",
    "timed-retain/schedule-load-balance.json": "65452c2353622798f310f7f5952ed77412c67eb387af09d8f3fee8e75c105e93",
    "timed-retain/schedule-max-util.csv": "d927914bcc947912ecdb4e45d9e808aed60e2f45c731f30b2cd62991029a074e",
    "timed-retain/schedule-max-util.json": "45b2e58685925b734e1641a9bef6cd9f15199de397f2919f7392932fc61f732c",
    "timed-retain/schedule-power.csv": "25a435f909b1558d4d082e597c932bb28fd41f77e6fa09e190652630228737f2",
    "timed-retain/schedule-power.json": "5d213918664450eea72ea56b5b2ffd99281c22ac27c552150e335163ebd8f3d9",
    "timed-retain/simulate-load-balance/report.csv": "239433d1c5f8009ddf4533f083b7010c19f45bb6d60b41b4ea0d1fe96ac9dfe9",
    "timed-retain/simulate-load-balance/snapshots.csv": "2c14fe34c2a47158a3421cc7729554bddb4baa9c4cdc113ea1dd67bea8fb47b0",
    "timed-retain/simulate-max-util/report.json": "1e4bcf9d3d5298f746fcdcba0fdfababd2366b142b3a6536b594bd292efbeec6",
    "timed-retain/simulate-max-util/snapshots.csv": "65f267158a7fad2554f7fb44b7df1a4aef2dcfbc5f6202acb230b72e886bda2a",
    "timed-retain/simulate-power/report.json": "317690f26ad1547421a74383e9b1a9a51a38c785e2181e29fbbd0e2fe9b86e54",
    "timed-retain/simulate-power/snapshots.csv": "3459fc5c8ef7a8ee3987279a602fe1acc7cf20799e232753292619cfecdfa48a",
    "trace/timed": "f62cd1a7d504334cfc73cbed0f5535a0564a1301f974dff55f5a871b7999e223",
    "trace/untimed": "2764c5432176008518a1f3811d144f1cc212b4d039fbcfefcf8e4accceb72151",
    "two-templates-resort/compare.csv": "566d24379f7d207d80570df7a1ffb3b54ad0d8c6aa500f824729fd1d4953328d",
    "two-templates-resort/compare.json": "754be6501b2454394aa909f5d414339f3e0e3585b7a7aea35be530d096578f3f",
    "two-templates-resort/schedule-load-balance.csv": "45c502438f3328e7cd58d664997e5bcc9d74aee9e1b2755d792c1379ae91aea2",
    "two-templates-resort/schedule-load-balance.json": "4f1ea4e431d9ca8f641c1bd71a51562bcf7c2549aaa7bf35266f9bed491351a2",
    "two-templates-resort/schedule-max-util.csv": "1565deaacbdd61da4b95d6336d1b10f27e2d03a3ee97a6072f472e3171899ed9",
    "two-templates-resort/schedule-max-util.json": "de76201a965b21fcea21e045b1957321d19bf1a541f43bc4620d1ca49db1704c",
    "two-templates-resort/schedule-power.csv": "e0e1fa9441465ede9a076af5a744b7c26d476b12512086f0c3d9bdcafbe79a46",
    "two-templates-resort/schedule-power.json": "2ec679c7fbdbcdad7ed23c04cbd54c98cb30b7c035315c66fa02d031690c1ec7",
    "two-templates/compare.csv": "dbf8a71fead3ce5188bc305c76a7efe64902885aacc6ba465947e7c33b018d88",
    "two-templates/compare.json": "2ef675b274c8f36767160276fdaa1817ebce076563bb6daff38be1554dc82140",
    "two-templates/schedule-load-balance.csv": "0230703aab3f4ccd7e358ffa9e8106ca8c7a1614a3eaa0c08fb556b2198e05c7",
    "two-templates/schedule-load-balance.json": "c52b45fcc446447c6bec61efbafc3e561c7b93aca8983ce0bb5135eb10a313cb",
    "two-templates/schedule-max-util.csv": "ce43380a90321f79bb410105c58e66038220d663ce82a8150f0a02442387e335",
    "two-templates/schedule-max-util.json": "edb55d0af07b0a53243562a9a1b8b617821604120e073216ef1136442415cbcb",
    "two-templates/schedule-power.csv": "cdd631d3cf712a59e9e603ca352baa67b8d902fa65f0f588580b8faa1f3c0607",
    "two-templates/schedule-power.json": "06250099be4c5385f786dfeb34a4e9413626fc9d536dfd7729d49f4e73172ae2",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(write, *args, **kwargs) -> str:
    sink = io.StringIO()
    write(*args, sink, **kwargs)
    return sink.getvalue()


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    (out / "timed-config.json").write_text(json.dumps({"generator": TIMED}), encoding="utf-8")
    paths = {"untimed": out / "trace.jsonl", "timed": out / "timed.jsonl"}
    assert main(["gen", "--count", str(REQUESTS), "--seed", "11", "--out", str(paths["untimed"])]) == 0
    assert main(["gen", "--config", str(out / "timed-config.json"), "--count", str(REQUESTS),
                 "--seed", "11", "--out", str(paths["timed"])]) == 0
    return paths


@pytest.fixture(scope="module", params=sorted(MATRIX))
def run(request, traces, tmp_path_factory):
    """One config's CLI runs: its output files by name, and their exit codes."""

    name = request.param
    timed = name.startswith("timed-")
    out = tmp_path_factory.mktemp(name)
    config = out / "config.json"
    config.write_text(json.dumps(MATRIX[name]), encoding="utf-8")
    trace = traces["timed" if timed else "untimed"]
    common = ["--workload", str(trace), "--config", str(config)]
    runs = {}
    for algorithm in ALGORITHMS:
        for fmt in ("json", "csv"):
            runs[f"schedule-{algorithm}.{fmt}"] = ["schedule", *common, "--algorithm", algorithm,
                                                   "--format", fmt]
        if timed:
            fmt = "csv" if algorithm == "load-balance" else "json"
            runs[f"simulate-{algorithm}"] = ["simulate", *common, "--algorithm", algorithm, "--format", fmt,
                                             "--snapshot-interval", str(SNAPSHOT_INTERVAL)]
    for fmt in ("csv", "json"):
        runs[f"compare.{fmt}"] = ["compare", *common, "--format", fmt]
    codes = {key: main([*argv, "--out", str(out / key)]) for key, argv in runs.items()}
    files = {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*")) if path.is_file() and path != config
    }
    return {
        "name": name,
        "timed": timed,
        "config": load_cluster_config(config),
        "workload": load_trace(trace),
        "files": files,
        "codes": codes,
    }


def _reference(algorithm: str, workload, config) -> dict:
    scheduler = config.scheduler
    template, coeffs = scheduler.autoscale_template, config.coefficients
    if algorithm == "power":
        return ref_power_efficient(workload, config.initial_nodes, scheduler.power_policy, template, coeffs)
    reference = ref_max_util if algorithm == "max-util" else ref_load_balance
    return reference(workload, config.initial_nodes, scheduler.threshold.value, template, coeffs,
                     scheduler.resort_after_each_allocation)


def _reference_report(want: dict, config):
    """The report on the reference's cluster, its nodes in the CLI's order:
    the configured nodes, then the created ones."""

    states = {state["id"]: state for state in want["nodes"]}
    nodes = []
    for node_id in [n.id for n in config.initial_nodes] + want["created"]:
        state = states[node_id]
        template = NodeTemplate(ResourceVector(*state["cap"]), state["p_idle"], state["p_max"])
        nodes.append(Node(node_id, template, UtilizationVector(*state["util"]), frozenset(state["allocated"])))
    outcome = AllocationOutcome(want["allocation"], tuple(want["unallocated"]), tuple(want["created"]), ())
    return build_report(outcome, nodes, config.power_policy)


def test_outputs_match_their_pins(run) -> None:
    files = {f"{run['name']}/{key}": _sha256(data) for key, data in run["files"].items()}
    assert files == {key: pin for key, pin in PINS.items() if key.startswith(run["name"] + "/")}


def test_traces_match_their_pins(traces) -> None:
    assert {name: _sha256(path.read_bytes()) for name, path in traces.items()} == {
        name: PINS[f"trace/{name}"] for name in traces
    }


def test_batch_outputs_are_the_naive_reference(run) -> None:
    config, files, codes = run["config"], run["files"], run["codes"]
    reports = []
    for algorithm in ALGORITHMS:
        want = _reference(algorithm, run["workload"], config)
        report = _reference_report(want, config)
        reports.append((algorithm, report))
        doc = json.loads(files[f"schedule-{algorithm}.json"])
        outcome = doc["outcome"]
        assert outcome["allocation"] == dict(sorted(want["allocation"].items()))
        assert outcome["unallocated"] == want["unallocated"]
        assert outcome["created_node_ids"] == want["created"]
        assert doc["report"] == json.loads(canonical_json(report_to_dict(report)))
        csv = _written(write_report, report, "csv", algorithm=algorithm)
        assert files[f"schedule-{algorithm}.csv"].decode() == csv
        code = 3 if want["unallocated"] else 0
        assert codes[f"schedule-{algorithm}.json"] == codes[f"schedule-{algorithm}.csv"] == code
    for fmt in ("csv", "json"):
        assert files[f"compare.{fmt}"].decode() == _written(write_comparison, reports, fmt)
        assert codes[f"compare.{fmt}"] == max(codes.values())


@pytest.mark.parametrize("run", sorted(name for name in MATRIX if name.startswith("timed-")), indirect=True)
def test_timeline_outputs_are_the_naive_reference(run) -> None:
    config, files = run["config"], run["files"]
    scheduler = replace(config.scheduler, record_scans=False)
    for algorithm in ALGORITHMS:
        args = (run["workload"], config.initial_nodes, algorithm, scheduler, config.adaptor, SNAPSHOT_INTERVAL)
        result = run_timeline(*args, coeffs=config.coefficients)
        want = ref_timeline(*args, coeffs=config.coefficients)
        assert result.events == want["events"]
        assert result.snapshots == want["snapshots"]
        assert result.power_steps == want["power_steps"]
        assert result.outcome == want["outcome"]
        assert result.report == want["report"]
        fmt = "csv" if algorithm == "load-balance" else "json"
        key = f"simulate-{algorithm}"
        report = _written(write_report, want["report"], fmt, algorithm=algorithm)
        assert files[f"{key}/report.{fmt}"].decode() == report
        assert files[f"{key}/snapshots.csv"].decode() == _written(write_report, want["snapshots"], "csv")
        assert run["codes"][key] == (3 if want["outcome"].unallocated else 0)


def _decisions(trace) -> List[tuple]:
    return [(r.request_id, r.demand, r.chosen_node_id, r.pct, r.created_node, r.reason) for r in trace]


def test_decisions_do_not_depend_on_record_scans(run) -> None:
    config, workload = run["config"], run["workload"]
    recorded, bare = config.scheduler, replace(config.scheduler, record_scans=False)
    for algorithm, scheduler in ALGORITHMS.items():
        outcomes = []
        for scans in (recorded, bare):
            state = ClusterState(config.initial_nodes, config.power_policy)
            outcomes.append(scheduler(workload, state, scans, coeffs=config.coefficients))
        with_scans, without = outcomes
        assert _decisions(with_scans.trace) == _decisions(without.trace)
        assert all(len(r.scanned) for r in with_scans.trace)
        assert not any(r.scanned or r.power_estimates for r in without.trace)
        if run["timed"]:
            timelines = [
                run_timeline(workload, config.initial_nodes, algorithm, scans, config.adaptor, SNAPSHOT_INTERVAL,
                             coeffs=config.coefficients)
                for scans in (recorded, bare)
            ]
            assert _decisions(timelines[0].outcome.trace) == _decisions(timelines[1].outcome.trace)
            assert timelines[0].report == timelines[1].report
