"""``python -m repro.adaptive``: bad input exits 2 through ``parser.error``."""

import pytest

from repro.adaptive.__main__ import main


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_non_positive_node_count_is_a_usage_error(nodes, capsys):
    assert _exit_code(["vgg19", "--nodes", nodes]) == 2
    assert "--nodes must be at least 1" in capsys.readouterr().err


def test_missing_replay_file_is_a_usage_error(tmp_path, capsys):
    assert _exit_code(["vgg19", "--replay",
                       str(tmp_path / "absent.json")]) == 2
    assert "--replay" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"policy": 3}',
    '{"policy": null, "entries": [{"iteration": 0,'
    ' "decisions": {"g": {"algorithm": null}}}]}',
])
def test_malformed_replay_file_is_a_usage_error(text, tmp_path, capsys):
    log = tmp_path / "log.json"
    log.write_text(text)
    assert _exit_code(["vgg19", "--replay", str(log)]) == 2
    assert "cannot read a decision log" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["accordion:threshold=nan",
                                  "bandwidth:smoothing=1.5",
                                  "accordion:treshold=0.5"])
def test_bad_policy_knob_is_a_usage_error(spec, capsys):
    # Every policy is parsed before the first run starts.
    assert _exit_code(["vgg19", "--nodes", "1", "--policy", "fixed:dgc",
                       "--policy", spec]) == 2
    assert "error:" in capsys.readouterr().err


def test_accordion_run_prints_its_table(capsys):
    assert main(["vgg19", "--nodes", "2", "--policy", "accordion",
                 "--iterations", "2"]) == 0
    assert "accordion(conservative=terngrad" in capsys.readouterr().out
