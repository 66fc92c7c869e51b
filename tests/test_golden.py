"""Golden-trace gate: each case below must reproduce the sha256 digests
recorded before the engine was batched into lanes.

Two digests per case: the rendered trace file, and every traced and final
number at full precision (``float.hex``).  The trace file prints nine
significant digits, so a change in the last bits -- the order of a sum, a
different bisection midpoint -- can leave it untouched; the exact digest
catches that.  The cases cover the three presets at seeds 0-4,
a long run to a tight delta, a large user count, and stochastic runs that
stop early at different rounds (lanes leaving a lockstep batch).
"""

import hashlib
from dataclasses import replace

import pytest

from rateauction import preset, render_trace, run, run_replication

TILE_COPIES = 100
TILED_CAPACITY = 10_000.0
EARLY_STOP_DELTA = 1.0  # normal preset: seeds 0-9 settle between rounds 6 and 16
EARLY_STOP_SEEDS = list(range(10))


def tiled_fixed():
    fixed = preset("fixed")
    return replace(fixed, capacity=TILED_CAPACITY, users=fixed.users * TILE_COPIES)


def early_stop_normal():
    return replace(preset("normal"), delta=EARLY_STOP_DELTA, allow_early_stop=True, max_iterations=50)


def cases():
    """Case name -> scenario, every one run with the default solver tolerance."""
    out = {
        f"{name}-seed{seed}": replace(preset(name), seed=seed)
        for name in ("fixed", "normal", "triangular")
        for seed in range(5)
    }
    out["fixed-delta1e-6-cap200"] = replace(preset("fixed"), delta=1e-6, max_iterations=200)
    out["fixed-tiled100-R10000"] = tiled_fixed()
    for seed in EARLY_STOP_SEEDS:
        out[f"normal-early-stop-seed{seed}"] = replace(early_stop_normal(), seed=seed)
    return out


GOLDEN = {
    "fixed-delta1e-6-cap200": (
        "9d56f26fce4ab56887e0bba95d8b8317ee9ef683c65dab225f25c395e3d88045",
        "1d7cb7d599639a4b92df78ed85dd2f474d4f7796ae81934b1951e4786badf9f1",
    ),
    "fixed-seed0": (
        "f1187e516217d25bd33703b3ed3a47c330cd7628a1a8cde36b07f7bfb34adfdd",
        "7cadefb73c1be595109a06bcacd9f6298ff892ec2727e80892de4c361075b5fb",
    ),
    "fixed-seed1": (
        "f1187e516217d25bd33703b3ed3a47c330cd7628a1a8cde36b07f7bfb34adfdd",
        "7cadefb73c1be595109a06bcacd9f6298ff892ec2727e80892de4c361075b5fb",
    ),
    "fixed-seed2": (
        "f1187e516217d25bd33703b3ed3a47c330cd7628a1a8cde36b07f7bfb34adfdd",
        "7cadefb73c1be595109a06bcacd9f6298ff892ec2727e80892de4c361075b5fb",
    ),
    "fixed-seed3": (
        "f1187e516217d25bd33703b3ed3a47c330cd7628a1a8cde36b07f7bfb34adfdd",
        "7cadefb73c1be595109a06bcacd9f6298ff892ec2727e80892de4c361075b5fb",
    ),
    "fixed-seed4": (
        "f1187e516217d25bd33703b3ed3a47c330cd7628a1a8cde36b07f7bfb34adfdd",
        "7cadefb73c1be595109a06bcacd9f6298ff892ec2727e80892de4c361075b5fb",
    ),
    "fixed-tiled100-R10000": (
        "643b3865d53f4fbae11e7ed976085b1aa0465605a0d02f09aa0c8c94675bbb32",
        "53ba95cbc48fe84fda2b91aa54de477466401e120860a4e9f2e0646ce786f710",
    ),
    "normal-early-stop-seed0": (
        "597d90413e27b0bd70fa1a233633c0672d6ab41497827304f7e36f662c45ffca",
        "24d6387adcbdfe6ac7919803f386dcee2dec2b780ba45f8c2a5ab964a35be3d0",
    ),
    "normal-early-stop-seed1": (
        "b5ce5294849bcccb4ba0363ba9495c9a505f18c54e3efe34a6b22a7d7955e4fa",
        "71ebb0fbc3d541dc57faaddef19f8604f8d59538873474fcbfefc1bd90e39310",
    ),
    "normal-early-stop-seed2": (
        "0feea3ed74b59b76a9bb11581e66db6dbbca12da18ad33fed3b56d1355ed7140",
        "f40fa6c6c9301bfa2fafe7981bccae28dc0f0764e51a274aaf89578cebe93145",
    ),
    "normal-early-stop-seed3": (
        "81416d9b24679ae46785df1b42b4278681a2b607cdbcdc02f84e21883c4f126b",
        "fc55251035744960fc4b036968ef249832dcb97dab1b479227855338df1a8667",
    ),
    "normal-early-stop-seed4": (
        "ea01b4715b41c81c462e43db513ee9e7b6c0e49b7985f22f3250d180b483d41e",
        "5934d5b6798993f657a0f09113cedc68125bfa3b5d84f09bd926d283f507e81c",
    ),
    "normal-early-stop-seed5": (
        "510e20cf6b4ae31539a83402ef4d0e7b311b6fffa7f4c8953c8fddf1ce5c9c57",
        "76de08a44397e38588e23f6a46cd0ac85d3564c9aeab7d15162b5edab1a3602f",
    ),
    "normal-early-stop-seed6": (
        "078b8176887d65fd319f7fa7897322fea3722ba3e7d0c6e14df899203243ebe2",
        "99d996fd6def11300ffc4f187adf61db6210539e00470eb64af2d3e158f9d5ba",
    ),
    "normal-early-stop-seed7": (
        "fe78a88dd6681d6bf026cdac4e75c4c5d6bcf0484459a55b45474a8dfdde9f6a",
        "2f7d3b6c6d9680a0802aa9fb11872fb9c517105f2ba60caedfbc39811f425c98",
    ),
    "normal-early-stop-seed8": (
        "920d30a44aa87f4193f013d19af87506d212a784322482c5ac26956a43165d76",
        "0499cb964dda16e27cb2b1b5cad96afed496dcb50aca655b724bf94ed5e540b2",
    ),
    "normal-early-stop-seed9": (
        "a5cd9239f797e7b01770dc12d56ca12b915c271b63216ef33462be4714b69646",
        "de4ba519cd7edc199c4ae18c3e1648ed544d18c40633a1dd0d70d5dfc2adfdf6",
    ),
    "normal-seed0": (
        "cd5eb1b7fb7edde13aeb1a3c7ff0f625e29bd7881b09f1436a70457110cc2b34",
        "54dabd4a560c52db5ba23c280daa082696a341bfb52128572c5751cbb04e4739",
    ),
    "normal-seed1": (
        "3b172d2288fdf9dc9575142e7f811853c72edda9f5204e2047e672202296b92d",
        "9a726409ed9e08706cdb2229bec157c5a1fc997300c60c62245fcf624dada3c9",
    ),
    "normal-seed2": (
        "fa577332e19cf30d8abbbe98a0913f5fac41ee430f0cf8b0407f94bdb20f6ecf",
        "4f55eab33c9833a98bcc5ee56c446724ccc6de0e392694cfdfeb7d5ce9086803",
    ),
    "normal-seed3": (
        "8eeaf6f33bc2fc920c42cf03b8ecd5ce8b14e941279aa50ee6a675e88eaa72f8",
        "8859641a684026a580ddc736242103ce5bd0d77d8f964824dfb75924251973fb",
    ),
    "normal-seed4": (
        "370dbe8974e30efaee72fa5bde90b56ccc78efef5ee5a745eb699bc0c31fa7e8",
        "e1a66808d7dbca3545999e39e2d4409e98a475b09f74387ceae1de2b4b294170",
    ),
    "triangular-seed0": (
        "799737a5cc400c710a389488edf6af4ed144da064dd2a8f1bcd7955deaef10c5",
        "e08c6d154bcf9401c3818dc8d39f6d9ca0ab7349c197f64e542728d852c8ec1f",
    ),
    "triangular-seed1": (
        "12ed45e63d09cc471f351f95744aab18b281ee71a9da7630ab4b27cdcb5f186d",
        "4653d5f660e3c0044ddf08e7ff996caeb85a2a0083588f4c1d365c73e693f2b8",
    ),
    "triangular-seed2": (
        "4be10a897c8d92735fc18583b84ac1cf14179bad65e58ac9312265bf9f55eb59",
        "bdcb72a4dacdfc52c46026aab9cd45b919c599017b20f27bb00111bcc5217df1",
    ),
    "triangular-seed3": (
        "03083982bac85ba4d6d2a0ba5265c4a102f9811f33c7b61641904f283dbdc9f6",
        "212b503aeb929328a9e003c2b89f6a368785f6c055b18ed015457fe03d96441a",
    ),
    "triangular-seed4": (
        "46bf458c2c7b6f563cc9a7e809200627b9d1506c73fd04613f435680fe114391",
        "532aacc7cb6e0a5e77e4753046113292a6463f73a5a13b12611b568425fbd178",
    ),
}


def exact_text(result) -> str:
    """Every number of the trace and the final allocation, bit for bit."""

    def num(x):
        return "" if x is None else float(x).hex()

    lines = [
        ",".join((str(r.iteration), str(r.user_id), num(r.price), num(r.rate), num(r.bid), num(r.a), num(r.b)))
        for r in result.trace
    ]
    lines.append(num(result.final_price))
    lines.extend(f"{uid},{num(rate)}" for uid, rate in sorted(result.final_rates.items()))
    return "\n".join(lines)


def digests(scenario) -> tuple[str, str]:
    result = run(scenario)
    return tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (render_trace(result), exact_text(result))
    )


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_trace_matches_golden(name):
    assert digests(cases()[name]) == GOLDEN[name]


@pytest.mark.parametrize(
    "scenario,seeds",
    [
        (early_stop_normal(), EARLY_STOP_SEEDS),
        (preset("triangular"), [4, 0, 4, 2]),
        (replace(preset("fixed"), max_iterations=60), [0, 1]),
    ],
    ids=["normal-early-stop", "triangular-repeated-seed", "fixed"],
)
def test_replication_equals_independent_runs(scenario, seeds):
    batched = run_replication(scenario, seeds)
    single = [run(replace(scenario, seed=s)) for s in seeds]
    assert batched == single
