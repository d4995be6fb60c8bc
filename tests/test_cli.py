"""CLI surface: record schema, exit codes, formats, cache behavior."""

import io
import json
import sys

from nilhom.cache import Cache
from nilhom.cli import main


def run_cli(argv, monkeypatch):
    buffer = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buffer)
    code = main(argv)
    return code, buffer.getvalue()


def run_records(argv, monkeypatch):
    code, out = run_cli(argv, monkeypatch)
    records = [json.loads(line) for line in out.splitlines()]
    return code, records


def test_witt_record(monkeypatch):
    code, records = run_records(
        ["witt", "--rank", "2", "--max-degree", "5", "--no-cache"], monkeypatch
    )
    assert code == 0
    (record,) = records
    assert record["command"] == "witt"
    assert record["result"]["dims"] == [2, 1, 2, 3, 6]
    assert record["schema_version"] == 1
    assert record["elapsed_ms"] is None
    assert set(record) == {"command", "params", "result", "elapsed_ms", "schema_version"}


def test_betti_record(monkeypatch):
    code, records = run_records(
        ["betti", "group", "--rank", "2", "--class", "2", "--no-cache"], monkeypatch
    )
    assert code == 0
    assert records[0]["result"]["betti"] == [1, 2, 2, 1]


def test_coinv_record(monkeypatch):
    code, records = run_records(
        ["coinv", "--expr", "wedge(2,std)", "--rank", "2", "--no-cache"], monkeypatch
    )
    assert code == 0
    assert records[0]["result"]["dim"] == 0


def test_bch_record(monkeypatch):
    code, records = run_records(
        ["bch", "-r", "2", "-c", "2", "--u", "1:1", "--v", "2:1", "--no-cache"],
        monkeypatch,
    )
    assert code == 0
    assert records[0]["result"]["coords"] == [["1", "1"], ["2", "1"], ["12", "1/2"]]


def test_bch_rejects_repeated_word(monkeypatch, capsys):
    code, out = run_cli(
        ["bch", "-r", "2", "-c", "2", "--u", "1:1,1:2", "--v", "2:1", "--no-cache"],
        monkeypatch,
    )
    assert code == 1
    assert out == ""
    assert "word 1 is given more than once" in capsys.readouterr().err


def test_word_label_commands_reject_rank_ten(monkeypatch, capsys):
    for argv in (
        ["hall", "-r", "10", "-c", "2"],
        ["bch", "-r", "10", "-c", "2", "--u", "1:1", "--v", "2:1"],
        ["center", "-r", "10", "-c", "2"],
    ):
        code, out = run_cli(argv + ["--format", "csv", "--no-cache"], monkeypatch)
        assert code == 1
        assert out == ""
        assert "above 9" in capsys.readouterr().err
    code, out = run_cli(["hall", "-r", "9", "-c", "1", "--format", "csv", "--no-cache"], monkeypatch)
    assert code == 0
    assert out.splitlines()[1:] == [f"9,1,1,{k}" for k in range(1, 10)]


def test_usage_errors(monkeypatch):
    code, _ = run_cli(["no-such-command"], monkeypatch)
    assert code == 2
    code, _ = run_cli(["witt", "--rank", "2"], monkeypatch)  # missing --max-degree
    assert code == 2


def test_computation_error_exit_code(monkeypatch):
    code, out = run_cli(
        ["coinv", "--expr", "nonsense(", "--rank", "2", "--no-cache"], monkeypatch
    )
    assert code == 1
    assert out == ""


def test_csv_format(monkeypatch):
    code, out = run_cli(
        ["witt", "--rank", "2", "--max-degree", "3", "--format", "csv", "--no-cache"],
        monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,degree,dimension"
    assert lines[1:] == ["2,1,2", "2,2,1", "2,3,2"]


def test_timings_flag(monkeypatch):
    code, records = run_records(
        ["witt", "--rank", "2", "--max-degree", "3", "--no-cache", "--timings"],
        monkeypatch,
    )
    assert code == 0
    assert isinstance(records[0]["elapsed_ms"], int)


def test_cache_round_trip(tmp_path, monkeypatch):
    argv = ["betti", "group", "-r", "2", "-c", "3", "--cache-dir", str(tmp_path)]
    monkeypatch.delenv("NILHOM_CACHE_DIR", raising=False)
    code, cold = run_cli(argv, monkeypatch)
    assert code == 0
    files = list(tmp_path.glob("*.nhc"))
    assert len(files) == 1
    code, warm = run_cli(argv, monkeypatch)
    assert code == 0
    assert warm == cold


def test_cache_corruption_recovers(tmp_path, monkeypatch):
    argv = ["betti", "group", "-r", "2", "-c", "2", "--cache-dir", str(tmp_path)]
    monkeypatch.delenv("NILHOM_CACHE_DIR", raising=False)
    _, first = run_cli(argv, monkeypatch)
    (entry,) = tmp_path.glob("*.nhc")
    blob = bytearray(entry.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    entry.write_bytes(bytes(blob))
    code, second = run_cli(argv, monkeypatch)
    assert code == 0
    assert second == first


def test_cache_env_var_overrides_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("NILHOM_CACHE_DIR", str(env_dir))
    code, _ = run_cli(
        ["betti", "group", "-r", "2", "-c", "2", "--cache-dir", str(flag_dir)],
        monkeypatch,
    )
    assert code == 0
    assert list(env_dir.glob("*.nhc"))
    assert not flag_dir.exists()


def test_cache_schema_mismatch_is_miss(tmp_path):
    cache = Cache(tmp_path)
    cache.put("betti", {"rank": 2}, {"betti": [1]})
    assert cache.get("betti", {"rank": 2}) == {"betti": [1]}
    assert cache.get("betti", {"rank": 3}) is None
    assert cache.get("other", {"rank": 2}) is None


def test_hall_csv(monkeypatch):
    code, out = run_cli(
        ["hall", "-r", "2", "-c", "3", "--format", "csv", "--no-cache"], monkeypatch
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,class,degree,word"
    assert lines[1:] == [
        "2,3,1,1",
        "2,3,1,2",
        "2,3,2,12",
        "2,3,3,112",
        "2,3,3,122",
    ]


def test_center_csv(monkeypatch):
    code, out = run_cli(
        ["center", "-r", "2", "-c", "2", "--format", "csv", "--no-cache"], monkeypatch
    )
    assert code == 0
    assert out.splitlines() == [
        "rank,class,vector,word,coefficient",
        "2,2,0,12,1",
    ]


def test_summand_check_record(monkeypatch):
    code, records = run_records(
        ["summand-check", "-r", "2", "-c", "3", "-d", "2", "--no-cache"], monkeypatch
    )
    assert code == 0
    result = records[0]["result"]
    assert result["mode"] == "dominance"
    assert result["holds"] is True
    assert result["schur_holds"] is True


def test_degree_check_record(monkeypatch):
    code, records = run_records(
        ["degree-check", "-c", "2", "-d", "1", "--max-rank", "4", "--no-cache"],
        monkeypatch,
    )
    assert code == 0
    result = records[0]["result"]
    assert result["within_bound"] is True
    assert result["estimate"] <= 2
