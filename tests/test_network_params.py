"""Unit tests for network parameter sets and presets."""

from repro.network import (
    ATM_DAS,
    DAS_PARAMS,
    FAST_ETHERNET,
    INTERNET_PARAMS,
    INTERNET_SUNDAY,
    MYRINET,
    SLOW_WAN,
    SLOW_WAN_PARAMS,
    mbit,
    usec,
)


def test_unit_helpers():
    assert mbit(8) == 1e6  # 8 Mbit/s == 1 MB/s
    assert usec(1) == 1e-6


def test_with_returns_modified_copy():
    fast = MYRINET.with_(latency=usec(1))
    assert fast.latency == usec(1)
    assert MYRINET.latency == usec(10)  # original untouched
    assert fast.bandwidth == MYRINET.bandwidth


def test_lan_wan_gap_is_two_orders_of_magnitude():
    assert ATM_DAS.latency / MYRINET.latency > 50
    assert MYRINET.bandwidth / ATM_DAS.bandwidth > 40


def test_presets_follow_the_papers_figures():
    # DAS ATM: 4.53 Mbit/s; Internet Sunday: 1.8; slow WAN: 2 (the paper's
    # 10 ms / 2 Mbit/s "slower network" trades latency, not bandwidth).
    assert ATM_DAS.bandwidth > SLOW_WAN.bandwidth > INTERNET_SUNDAY.bandwidth
    assert ATM_DAS.latency < INTERNET_SUNDAY.latency < SLOW_WAN.latency


def test_network_params_with_wan_swaps_only_the_wan():
    assert INTERNET_PARAMS.wan is INTERNET_SUNDAY
    assert INTERNET_PARAMS.lan is DAS_PARAMS.lan
    assert SLOW_WAN_PARAMS.wan is SLOW_WAN
    assert SLOW_WAN_PARAMS.access is FAST_ETHERNET


def test_fast_ethernet_between_lan_and_wan():
    assert MYRINET.bandwidth > FAST_ETHERNET.bandwidth > ATM_DAS.bandwidth
