"""Linear power model, on/off behavior, and the power scheduler's delta modes."""

from __future__ import annotations

import pytest

from gptsched import (
    DEFAULT_POWER_POLICY,
    PowerMode,
    PowerPolicy,
    SchedulerConfig,
    node_power,
    schedule_power_efficient,
    total_power,
)

from helpers import node, request, template


def test_linear_interpolation_between_idle_and_max() -> None:
    # p_idle 100, p_max 200, util 0.5 -> 150 W.
    n = node("n1", template(p_idle=100.0, p_max=200.0), util=(0.5, 0.0, 0.0))
    assert node_power(n) == pytest.approx(150.0, abs=1e-12)


def test_empty_node_is_off_by_default_but_idles_when_kept_on() -> None:
    n = node("n1", template(p_idle=100.0, p_max=200.0))
    assert node_power(n) == 0.0
    kept_on = PowerPolicy(off_when_empty=False)
    assert node_power(n, kept_on) == pytest.approx(100.0)


def test_full_utilization_draws_p_max() -> None:
    n = node("n1", template(p_idle=100.0, p_max=400.0), util=(1.0, 0.5, 0.5))
    assert node_power(n) == pytest.approx(400.0)


def _power_estimates(nodes, demand, policy: PowerPolicy = DEFAULT_POWER_POLICY) -> dict:
    """The power scheduler's price of one request on each node, by node id."""

    outcome = schedule_power_efficient([request("r1", *demand)], nodes, SchedulerConfig(power_policy=policy))
    return dict(outcome.trace[0].power_estimates)


def test_incremental_delta_charges_wakeup() -> None:
    # Waking an off node: 100 + 0.2*100 - 0 = 120 W.
    # Adding to a warm node pays only the slope: 0.2 * 100 = 20 W.
    tpl = template(p_idle=100.0, p_max=200.0)
    off = node("n1", tpl)
    warm = node("n2", tpl, util=(0.5, 0.0, 0.0))
    estimates = _power_estimates([off, warm], (20.0, 10.0, 0.0))
    assert estimates == {"n1": pytest.approx(120.0), "n2": pytest.approx(20.0)}


def test_absolute_after_mode_reports_post_allocation_draw() -> None:
    tpl = template(p_idle=100.0, p_max=200.0)
    policy = PowerPolicy(mode=PowerMode.ABSOLUTE_AFTER)
    off = node("n1", tpl)
    warm = node("n2", tpl, util=(0.5, 0.0, 0.0))
    estimates = _power_estimates([off, warm], (20.0, 0.0, 0.0), policy)
    assert estimates == {"n1": pytest.approx(120.0), "n2": pytest.approx(170.0)}


def test_zero_demand_delta_is_zero_on_warm_node() -> None:
    warm = node("n1", template(), util=(0.4, 0.0, 0.0))
    assert _power_estimates([warm], (0.0, 0.0, 0.0)) == {"n1": pytest.approx(0.0)}


def test_total_power_sums_nodes() -> None:
    tpl = template(p_idle=100.0, p_max=200.0)
    nodes = [
        node("n1", tpl, util=(0.5, 0.0, 0.0)),
        node("n2", tpl),  # off
        node("n3", tpl, util=(1.0, 0.0, 0.0)),
    ]
    assert total_power(nodes) == pytest.approx(150.0 + 0.0 + 200.0)
    kept_on = PowerPolicy(off_when_empty=False)
    assert total_power(nodes, kept_on) == pytest.approx(150.0 + 100.0 + 200.0)
