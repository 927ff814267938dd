"""Tests for the experiments shared infrastructure and CLI."""

from dataclasses import fields

import pytest

from repro.adaptive import PLANNER_KINDS
from repro.experiments.common import (
    ALGORITHM_DEFAULTS,
    SYSTEMS,
    SystemConfig,
    default_algorithm,
    ec2_tcp_network,
    format_table,
)
from repro.cluster import ec2_v100_cluster
from repro.strategies import get_strategy


def test_systems_registry_complete():
    assert set(SYSTEMS) == {"byteps", "ring", "byteps-oss", "ring-oss",
                            "hipress-ps", "hipress-ring"}
    assert SYSTEMS["byteps"].tcp_on_ec2
    assert not SYSTEMS["ring"].tcp_on_ec2


def test_system_properties_follow_the_strategy():
    for config in SYSTEMS.values():
        strategy = get_strategy(config.strategy)
        assert config.compression == strategy.compression
        assert config.planner_kind == PLANNER_KINDS.get(config.strategy)
    assert SYSTEMS["hipress-ps"].planner_kind == "ps_colocated"
    assert SYSTEMS["hipress-ring"].planner_kind == "ring"
    assert not SYSTEMS["byteps-oss"].planner_kind
    assert SYSTEMS["byteps-oss"].compression
    assert not SYSTEMS["ring"].compression


def test_system_config_has_no_bulk_knobs():
    # Bulk synchronization is the plan's decision, not the config's.
    assert [f.name for f in fields(SystemConfig)] == [
        "key", "label", "strategy", "tcp_on_ec2"]
    with pytest.raises(TypeError):
        SystemConfig("x", "X", "casync-ps", use_coordinator=True)


def test_default_algorithm_applies_paper_settings():
    dgc = default_algorithm("dgc")
    assert dgc.rate == ALGORITHM_DEFAULTS["dgc"]["rate"] == 0.001
    tern = default_algorithm("terngrad", bitwidth=8)
    assert tern.bitwidth == 8  # override wins


def test_ec2_tcp_network_degrades():
    cluster = ec2_v100_cluster(4)
    tcp = ec2_tcp_network(cluster)
    assert tcp.network.efficiency < cluster.network.efficiency
    assert tcp.network.latency_us > cluster.network.latency_us
    assert tcp.num_nodes == cluster.num_nodes  # everything else intact


def test_format_table_alignment():
    text = format_table(["a", "long header"], [["x", 1], ["yyyy", 22]])
    lines = text.splitlines()
    assert len(lines) == 4
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # all rows padded to the same width
    assert "long header" in lines[0]


def test_format_table_empty_rows():
    text = format_table(["h1", "h2"], [])
    assert "h1" in text


# ---------------------------------------------------------------- CLI

def test_cli_list(capsys):
    from repro.experiments.__main__ import main
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig13" in out


def test_cli_unknown_artifact():
    from repro.experiments.__main__ import main
    with pytest.raises(SystemExit):
        main(["not-a-figure"])


def test_cli_runs_one_artifact(tmp_path, capsys):
    from repro.experiments.__main__ import main
    assert main(["table6", "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "table6.txt").exists()
    out = capsys.readouterr().out
    assert "Table 6" in out


def test_cli_rerun_is_served_from_the_cache(tmp_path, capsys):
    from repro.experiments.__main__ import main
    argv = ["table6", "--quick", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("[0 executed, 8 cached, 0 failed")


@pytest.mark.parametrize("flag", [["--resume"], ["--timeout", "-1"],
                                  ["--timeout", "0"], ["--timeout", "nan"],
                                  ["--timeout", "inf"]])
def test_cli_rejects_removed_and_bad_flags(flag, tmp_path):
    from repro.experiments.__main__ import main
    with pytest.raises(SystemExit) as exc:
        main(["table6", "--output-dir", str(tmp_path), *flag])
    assert exc.value.code == 2


def test_cli_quick_registry_differs():
    from repro.experiments.runner import artifact_plans
    assert set(artifact_plans(quick=True)) == set(artifact_plans())
