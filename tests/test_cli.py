"""CLI surface: record schema, exit codes, formats, cache behavior."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nilhom.cache
from nilhom import aut, cli, invariants, lie_homology, nilgroup, rep
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


def test_bch_refuses_coefficients_it_cannot_read_exactly(monkeypatch, capsys):
    for u, item in (
        ("1:1e999999999", "1:1e999999999"),
        ("1:1e99999", "1:1e99999"),
        ("1:1/0", "1:1/0"),
        ("1:1,", ""),
    ):
        code, out = run_cli(
            ["bch", "-r", "2", "-c", "3", "--u", u, "--v", "2:1", "--no-cache"], monkeypatch
        )
        assert code == 1
        assert out == ""
        assert f"item {item!r} is not word:coefficient" in capsys.readouterr().err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python reads integers of any length")
def test_bch_refuses_a_coefficient_with_too_many_digits(monkeypatch, capsys):
    item = "1:" + "9" * (sys.get_int_max_str_digits() + 700)
    code, out = run_cli(["bch", "-r", "2", "-c", "3", "--u", item, "--v", "2:1", "--no-cache"], monkeypatch)
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert f"item {item!r} has too many digits" in err
    assert "Traceback" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python prints integers of any length")
def test_bch_names_the_coefficient_it_cannot_print(monkeypatch, capsys):
    nines = "9" * 3000
    code, out = run_cli(
        ["bch", "-r", "2", "-c", "3", "--u", f"1:{nines},2:1", "--v", f"2:{nines},1:1", "--no-cache"],
        monkeypatch,
    )
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert "the coefficient of word 12 " in err
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_result_too_long_to_print_is_an_error_not_a_traceback(monkeypatch, capsys, fmt):
    # the Witt dimension at rank 10^20 in degree 300 has about 6,000 digits
    code, out = run_cli(
        ["witt", "--rank", str(10**20), "--max-degree", "300", "--format", fmt, "--no-cache"], monkeypatch
    )
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == (
        f"nilhom: error: the result holds an integer of more than {sys.get_int_max_str_digits()} digits,"
        " Python's limit for printing an integer\n"
    )


def run_child_at_once(argv):
    """Run nilhom in a child process that must finish within 1 s.

    Work that would not finish fails the 10 s timeout instead of hanging the suite.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nilhom.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert time.perf_counter() - start < 1
    return proc


def test_bch_refuses_an_exponent_at_once():
    proc = run_child_at_once(["bch", "-r", "2", "-c", "3", "--u", "1:1e999999999", "--v", "2:1", "--no-cache"])
    assert proc.returncode == 1
    assert "item '1:1e999999999'" in proc.stderr


def test_betti_refuses_a_degree_past_the_wedge_limit_at_once():
    # all degrees of the 33-dimensional IA(3,3): the widest is refused before any is ranked
    proc = run_child_at_once(["betti", "ia", "-r", "3", "-c", "3", "--no-cache"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "nilhom: error: degree 16 of a 33-dimensional algebra has 1,166,803,110 wedges,"
        " above the limit of 10,000,000 per degree\n"
    )


def test_coinv_refuses_a_lie_layer_past_its_weight_limit_at_once():
    # C(2003, 3) weights of total 2000 at rank 4: refused before any is listed
    proc = run_child_at_once(["coinv", "--expr", "lie(2000)", "-r", "4", "--no-cache"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "nilhom: error: lie(2000) at rank 4 has 1,337,337,001 weights of total 2000, above the limit of 100,000\n"
    )


def test_coinv_refuses_a_lie_layer_whose_counts_hold_too_many_bits_at_once():
    # 50,001 weights, under the weight limit, but counts of up to 50,000 bits each
    proc = run_child_at_once(["coinv", "--expr", "lie(50000)", "-r", "2", "--no-cache"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("nilhom: error: lie(50000) at rank 2 holds 50,001 counts")


def test_coinv_counts_a_wide_wedge_at_once():
    # C(33, 6) = 1,107,568 wedges, counted by weight rather than listed
    proc = run_child_at_once(["coinv", "--expr", "wedge(6, hom(std, lie[2..3]))", "-r", "3", "--no-cache"])
    assert proc.returncode == 0
    assert '"dim":38' in proc.stdout


def test_bch_reads_integers_fractions_and_decimals(monkeypatch):
    code, records = run_records(
        ["bch", "-r", "2", "-c", "2", "--u", "1:-0.5, 12 : 3/04", "--v", "2:2.,1:.25", "--no-cache"],
        monkeypatch,
    )
    assert code == 0
    assert records[0]["result"]["coords"] == [["1", "-1/4"], ["2", "2"], ["12", "1/4"]]


def test_word_label_commands_reject_rank_ten(monkeypatch, capsys):
    for argv in (
        ["hall", "-r", "10", "-c", "2"],
        ["bch", "-r", "10", "-c", "2", "--u", "1:1", "--v", "2:1"],
        ["center", "-r", "10", "-c", "2"],
        ["dynkin-check", "-r", "12", "--max-degree", "2"],
    ):
        code, out = run_cli(argv + ["--format", "csv", "--no-cache"], monkeypatch)
        assert code == 1
        assert out == ""
        assert "above 9" in capsys.readouterr().err
    code, out = run_cli(["hall", "-r", "9", "-c", "1", "--format", "csv", "--no-cache"], monkeypatch)
    assert code == 0
    assert out.splitlines()[1:] == [f"9,1,1,{k}" for k in range(1, 10)]


def test_witt_rejects_a_negative_max_degree(monkeypatch, capsys):
    code, out = run_cli(["witt", "-r", "2", "--max-degree", "-3", "--no-cache"], monkeypatch)
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == "nilhom: error: max degree must be non-negative\n"
    code, records = run_records(["witt", "-r", "2", "--max-degree", "0", "--no-cache"], monkeypatch)
    assert code == 0
    assert records[0]["result"] == {"dims": []}


def test_dynkin_check_rejects_a_max_degree_below_one(monkeypatch, capsys):
    for max_degree in ("0", "-3"):
        code, out = run_cli(["dynkin-check", "-r", "2", "--max-degree", max_degree, "--no-cache"], monkeypatch)
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == "nilhom: error: max degree must be at least 1\n"


def test_degree_check_needs_two_ranks(monkeypatch, capsys):
    # the estimate fits a polynomial to b_d at ranks 0..max_rank, so it needs two values
    for max_rank in ("0", "-2"):
        argv = ["degree-check", "-c", "2", "-d", "1", "--max-rank", max_rank, "--no-cache"]
        code, out = run_cli(argv, monkeypatch)
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == "nilhom: error: max rank must be at least 1\n"
    argv = ["degree-check", "-c", "2", "-d", "1", "--max-rank", "1", "--no-cache"]
    code, records = run_records(argv, monkeypatch)
    assert code == 0
    assert records[0]["result"]["dims"] == [0, 1]


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


def test_out_of_memory_exits_1_with_a_message(monkeypatch, capsys):
    def exhausted(**params):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "betti", exhausted)
    code, out = run_cli(["betti", "group", "--rank", "2", "--class", "2", "--no-cache"], monkeypatch)
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == "nilhom: error: out of memory\n"


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


def test_cache_entry_of_another_version_is_a_miss(tmp_path, monkeypatch):
    cache = Cache(tmp_path)
    monkeypatch.setattr(nilhom.cache, "__version__", "0.0.1")
    cache.put("betti", {"rank": 2}, {"betti": [1]})
    assert cache.get("betti", {"rank": 2}) == {"betti": [1]}
    monkeypatch.undo()
    assert nilhom.cache.__version__ == nilhom.__version__
    assert cache.get("betti", {"rank": 2}) is None


def test_cache_store_failure_still_prints_the_result(tmp_path, monkeypatch, capsys):
    # a cache directory that is a regular file: the result is computed and
    # printed, and the failed store is only a warning
    monkeypatch.delenv("NILHOM_CACHE_DIR", raising=False)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    argv = ["betti", "group", "-r", "2", "-c", "2"]
    code, fresh = run_cli(argv + ["--no-cache"], monkeypatch)
    assert code == 0
    code, out = run_cli(argv + ["--cache-dir", str(blocker)], monkeypatch)
    assert code == 0
    assert out == fresh
    assert capsys.readouterr().err.startswith("nilhom: warning: ")


def test_selftest_store_failure_still_prints_every_record(tmp_path, monkeypatch, capsys):
    # the betti_cache check stores its payload; a cache directory that is a
    # regular file makes that store fail, which is a warning, not a failed run
    monkeypatch.delenv("NILHOM_CACHE_DIR", raising=False)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code, fresh = run_cli(["selftest", "--no-cache"], monkeypatch)
    assert code == 0
    capsys.readouterr()
    code, out = run_cli(["selftest", "--cache-dir", str(blocker)], monkeypatch)
    assert code == 0
    assert out == fresh
    err = capsys.readouterr().err
    assert err.startswith("nilhom: warning: result not cached: ")
    assert err.count("\n") == 1


def _record(body: bytes) -> bytes:
    """Seal a body as a cache record with a valid digest."""
    return nilhom.cache.MAGIC + hashlib.sha256(body).digest() + body


def _forged_entry_is_a_miss_and_is_rewritten(tmp_path, forge) -> None:
    """Replace a stored entry by forge(key, payload): a miss, which the next store overwrites."""
    cache = Cache(tmp_path)
    cache.put("betti", {"rank": 2}, {"betti": [1]})
    (entry,) = tmp_path.glob("*.nhc")
    good = entry.read_bytes()
    key, _, payload = good[40:].partition(b"\n")
    entry.write_bytes(forge(key, payload))
    assert cache.get("betti", {"rank": 2}) is None
    cache.put("betti", {"rank": 2}, {"betti": [1]})
    assert entry.read_bytes() == good
    assert cache.get("betti", {"rank": 2}) == {"betti": [1]}


def test_cache_forged_key_line_is_a_miss(tmp_path):
    # the digest holds, but the key line names another computation
    def forge(key, payload):
        other = key.replace(b'"rank":2', b'"rank":3')
        assert other != key
        return _record(other + b"\n" + payload)

    _forged_entry_is_a_miss_and_is_rewritten(tmp_path, forge)


def test_cache_record_with_no_separator_is_a_miss(tmp_path):
    # the digest holds, but no newline ends the key
    _forged_entry_is_a_miss_and_is_rewritten(tmp_path, lambda key, payload: _record(key + payload))
    _forged_entry_is_a_miss_and_is_rewritten(tmp_path, lambda key, payload: _record(key))


def test_cache_payload_altered_under_its_old_digest_is_a_miss(tmp_path):
    # the altered payload still decodes, and only the digest tells
    def forge(key, payload):
        assert payload == b'{"betti":[1]}'
        return _record(key + b"\n" + payload)[:-3] + b"2]}"

    _forged_entry_is_a_miss_and_is_rewritten(tmp_path, forge)


def test_cache_record_under_another_magic_is_a_miss(tmp_path):
    def forge(key, payload):
        return b"NHCACHE3" + _record(key + b"\n" + payload)[len(nilhom.cache.MAGIC) :]

    _forged_entry_is_a_miss_and_is_rewritten(tmp_path, forge)


def test_cache_entry_in_the_sectioned_layout_is_a_miss(tmp_path):
    # the earlier NHCACHE1 layout: a section count, two length-prefixed
    # sections (key, payload) and a trailing digest, all of them valid
    def forge(key, payload):
        body = b"NHCACHE1" + (2).to_bytes(4, "big")
        for section in (key, payload):
            body += len(section).to_bytes(8, "big") + section
        return body + hashlib.sha256(body).digest()

    _forged_entry_is_a_miss_and_is_rewritten(tmp_path, forge)


def _forge_payload(entry, payload: bytes) -> None:
    """Keep the entry's key line, replace its payload, and reseal it with a valid digest."""
    key = entry.read_bytes()[40:].partition(b"\n")[0]
    entry.write_bytes(_record(key + b"\n" + payload))


def test_cache_too_deeply_nested_payload_is_a_miss(tmp_path, monkeypatch):
    # the digest and the key line hold, but decoding a 200,000-deep JSON
    # array raises RecursionError; that must read as a miss, not an error
    deep = b"[" * 200_000 + b"]" * 200_000
    cache = Cache(tmp_path / "direct")
    cache.put("betti", {"rank": 2}, {"betti": [1]})
    (entry,) = (tmp_path / "direct").glob("*.nhc")
    _forge_payload(entry, deep)
    assert cache.get("betti", {"rank": 2}) is None

    argv = ["betti", "group", "-r", "2", "-c", "2", "--cache-dir", str(tmp_path / "cli")]
    monkeypatch.delenv("NILHOM_CACHE_DIR", raising=False)
    code, first = run_cli(argv, monkeypatch)
    assert code == 0
    (entry,) = (tmp_path / "cli").glob("*.nhc")
    good = entry.read_bytes()
    _forge_payload(entry, deep)
    code, second = run_cli(argv, monkeypatch)
    assert code == 0
    assert second == first
    assert entry.read_bytes() == good  # recomputed and stored again


def test_cache_write_failure_keeps_old_entry(tmp_path, monkeypatch):
    cache = Cache(tmp_path)
    cache.put("betti", {"rank": 2}, {"betti": [1]})
    real_fdopen = os.fdopen

    class HalfWrite:
        def __init__(self, fd, mode):
            self.fh = real_fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(os, "fdopen", HalfWrite)
    with pytest.raises(OSError):
        cache.put("betti", {"rank": 2}, {"betti": [1, 2, 2, 1]})
    monkeypatch.undo()
    assert cache.get("betti", {"rank": 2}) == {"betti": [1]}
    assert [p.suffix for p in tmp_path.iterdir()] == [".nhc"]


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


def test_summand_check_at_class_one(monkeypatch):
    # IA(r, 1) is the zero algebra, so H_q equals Λ^q(0): the bound L_{2..1} is empty
    for r in (2, 3):
        for q in (0, 1):
            code, records = run_records(
                ["summand-check", "-r", str(r), "-c", "1", "-d", str(q), "--no-cache"], monkeypatch
            )
            assert code == 0
            assert records[0]["result"] == {"rank": r, "cls": 1, "degree": q, "mode": "equality", "holds": True}


def test_degree_check_record(monkeypatch):
    code, records = run_records(
        ["degree-check", "-c", "2", "-d", "1", "--max-rank", "4", "--no-cache"],
        monkeypatch,
    )
    assert code == 0
    result = records[0]["result"]
    assert result["within_bound"] is True
    assert result["estimate"] <= 2


# CSV output of every command on small inputs, header included
CSV_GOLDEN = {
    "witt -r 3 --max-degree 4": [
        "rank,degree,dimension",
        "3,1,3",
        "3,2,3",
        "3,3,8",
        "3,4,18",
    ],
    "hall -r 3 -c 2": [
        "rank,class,degree,word",
        "3,2,1,1",
        "3,2,1,2",
        "3,2,1,3",
        "3,2,2,12",
        "3,2,2,13",
        "3,2,2,23",
    ],
    "bch -r 2 -c 3 --u 1:1,12:1/2 --v 2:-1,112:3": [
        "rank,class,word,coefficient",
        "2,3,1,1",
        "2,3,2,-1",
        "2,3,112,35/12",
        "2,3,122,-1/6",
    ],
    "lcs-ranks -r 2 -c 4": [
        "rank,class,degree,rank_value",
        "2,4,1,2",
        "2,4,2,1",
        "2,4,3,2",
        "2,4,4,3",
    ],
    "center -r 2 -c 3": [
        "rank,class,vector,word,coefficient",
        "2,3,0,112,1",
        "2,3,1,122,1",
    ],
    "betti group -r 2 -c 2": [
        "target,rank,class,degree,betti",
        "group,2,2,0,1",
        "group,2,2,1,2",
        "group,2,2,2,2",
        "group,2,2,3,1",
    ],
    "betti lie -r 2 -c 3 -d 2": [
        "target,rank,class,degree,betti",
        "lie,2,3,2,3",
    ],
    "weighted-betti group -r 2 -c 3 -d 2": [
        "target,rank,class,degree,weight,multiplicity",
        "group,2,3,2,1|3,1",
        "group,2,3,2,2|2,1",
        "group,2,3,2,3|1,1",
    ],
    "dynkin-check -r 2 --max-degree 3": [
        "rank,max_degree,checked,failures",
        "2,3,5,",
    ],
    "summand-check -r 2 -c 3 -d 1": [
        "rank,class,degree,mode,holds",
        "2,3,1,dominance,True",
    ],
    "coinv --expr const(2) -r 2": [
        "expr,rank,dim",
        "const(2),2,2",
    ],
    "degree-check -c 2 -d 1 --max-rank 3": [
        "class,degree,max_rank,estimate,bound,within_bound",
        "2,1,3,1,2,True",
    ],
    "selftest": ["check,status"] + [
        f"{name},pass"
        for name in (
            "witt_lyndon",
            "bch_group_law",
            "bch_commutator",
            "lcs_ranks",
            "center",
            "betti_heisenberg",
            "betti_symmetry",
            "dynkin_retract",
            "ia_ledger",
            "summand_c2",
            "summand_2_3",
            "coinvariants",
            "conjugation_consistency",
            "degree_bound",
            "betti_cache",
        )
    ],
}


@pytest.mark.parametrize("command", sorted(CSV_GOLDEN))
def test_csv_golden(command, monkeypatch):
    code, out = run_cli(command.split() + ["--format", "csv", "--no-cache"], monkeypatch)
    assert code == 0
    assert out.splitlines() == CSV_GOLDEN[command]


def test_every_command_has_a_csv_golden():
    assert {command.split()[0] for command in CSV_GOLDEN} == set(cli._HANDLERS)


# sha256 of the JSON records (params and result) of each CSV_GOLDEN command line
JSON_GOLDEN = {
    "bch -r 2 -c 3 --u 1:1,12:1/2 --v 2:-1,112:3": "babb430ab4aeb5d0a3d3f61919c3340231e50b786fcd0f232493befe6c4025e0",
    "betti group -r 2 -c 2": "3e27198f1257920475585ba65a362fc98c8df8515052a32b5015170d52325b5d",
    "betti lie -r 2 -c 3 -d 2": "492b9d0ae6ae931fe9999f2327db4d008e202bf4512c3fc0c6465f5821c9d5f7",
    "center -r 2 -c 3": "4708482fabd778533e967deece3dc5a80551f066049927a8726e621860bf9052",
    "coinv --expr const(2) -r 2": "acca6753695b90c3d380fd9b3ff742e99a6e6a12f8bea9497c08668fc706d27d",
    "degree-check -c 2 -d 1 --max-rank 3": "76afef500313a132758d2a2c2f4744d1d8d55f6dbcc30588c239b84eb83d2787",
    "dynkin-check -r 2 --max-degree 3": "cc9dab8ff8ef28aa783d5e15bb31fcbd2ac343078cc3c845ffdd7daca4e9a4a3",
    "hall -r 3 -c 2": "4745b19de7bd5c18e54ee3cb2e40c84313a85b0adba8b582dad40326a97dc114",
    "lcs-ranks -r 2 -c 4": "43a4c1e1a762763302fb07f8ca8dac195259bcba9b7d3bfb24513f71d2e09a6b",
    "selftest": "74648a0fa549db66718860552772bdf412473a0f1249deb655a98c9c647f3c11",
    "summand-check -r 2 -c 3 -d 1": "8b217f6738ad13b3d49e96ec139d21b49e33469c3c8714db63f5b3078a538611",
    "weighted-betti group -r 2 -c 3 -d 2": "1b6a6ada2ea13fdb3dbeac97428cedf5a4585ca40a74c9e16a5ce5ced3768b6b",
    "witt -r 3 --max-degree 4": "b32c37d9129151269ff28ec91f4f1990d3543c74708f97b8d9e5293c2f1f3c11",
}


def test_json_golden_cold_and_warm_and_only_declared_commands_cached(tmp_path, monkeypatch):
    monkeypatch.delenv("NILHOM_CACHE_DIR", raising=False)
    for command in sorted(CSV_GOLDEN):
        for _cold_then_warm in range(2):
            code, out = run_cli(command.split() + ["--cache-dir", str(tmp_path)], monkeypatch)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == JSON_GOLDEN[command], command
    kinds = []
    for entry in tmp_path.glob("*.nhc"):
        blob = entry.read_bytes()  # the key JSON starts after the magic and the digest, at byte 40
        kinds.append(json.loads(blob[40:].partition(b"\n")[0])["kind"])
    # the two betti lines and selftest's betti_cache check each leave a betti entry
    assert sorted(kinds) == ["betti", "betti", "betti", "degree-check", "weighted-betti"]


# sha256 of `nilhom --help`, then of `nilhom <command> --help` for each command
HELP_GOLDEN = {
    "--help": "ec802cf2b3bb598689375b0157333f147239ff87183d262214170808871993ff",
    "bch --help": "f88b322599b962cc7dc501793af515f8fef85697854f87fad9ddc05d66e27d95",
    "betti --help": "2773f359a2f24e637d67a196ca59c44b3ed69dcdd85b2fb8028c6b56ff0f9af5",
    "center --help": "eced361dcf69438d1144115a6dc43c9f52ad569cd01cf522927dba74914f7962",
    "coinv --help": "0a09cfb36f059999b2f3244b93930df9c8207cbd791ef8bed7d37c3fb5d565aa",
    "degree-check --help": "3e9703daf37e15191e6c192929518fb46957d9f94ddcd78a2f269d9da2fd260b",
    "dynkin-check --help": "edaba4b011408e54bba4ceee761fe29cce36dbae4765409bcce0eb44e6a5d48a",
    "hall --help": "74731de4dabab954d7d5d77bf2b4cb9e58908b7edfc75e4afa63208723f05ba5",
    "lcs-ranks --help": "094ae868d853747c8ffe2bcbf2fb0dc921e26f49884bf34adcaf6a1fc22f93ec",
    "selftest --help": "875fa7eeb21458b94447c36cedb6aaacb170e623770615ef87914dfaca6ee27a",
    "summand-check --help": "e1e4a2b0fbd32d4cb6000b80a4d88f7a26fdfcd2511ae004f798f7b7cbc1515b",
    "weighted-betti --help": "d0c2622e5d3c05face471cf6b9f9221c8689243b637ed10b662fab774f1b1a4d",
    "witt --help": "a06aa67015628d0348b387406967dbc4e199b06c64f83effab6404c1f31dde12",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse words help differently by version")
@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_golden(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run_cli(command.split(), monkeypatch)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_GOLDEN[command]


def test_selftest_golden_digest(monkeypatch):
    # selftest records are part of the output contract, byte for byte
    code, out = run_cli(["selftest", "--no-cache"], monkeypatch)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "74648a0fa549db66718860552772bdf412473a0f1249deb655a98c9c647f3c11"


def test_selftest_reports_a_failing_check(monkeypatch):
    real = invariants.witt_dimension
    monkeypatch.setattr(
        invariants, "witt_dimension", lambda r, n: real(r, n) + ((r, n) == (2, 3))
    )
    code, records = run_records(["selftest", "--no-cache"], monkeypatch)
    assert code == 1
    results = {record["result"]["check"]: record["result"] for record in records}
    assert len(results) == 15
    assert results["witt_lyndon"]["status"] == "fail"
    assert results["witt_lyndon"]["detail"] == {"rank": 2, "degree": 3}
    assert results["betti_heisenberg"]["status"] == "pass"


@pytest.fixture(scope="module")
def selftest_registry():
    """{check: (invariant, args, kwargs)} exactly as selftest calls each one, betti_cache aside."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in invariants.__all__:
            real = getattr(invariants, name)
            mp.setattr(invariants, name, lambda *a, _real=real, **k: calls.append((_real, a, k)) or (True, {}))
        mp.setattr(cli, "_betti_cache_check", lambda cache: (True, {}))
        _, records = run_records(["selftest", "--no-cache"], mp)
    names = [record["result"]["check"] for record in records][:-1]
    assert records[-1]["result"]["check"] == "betti_cache" and len(names) == len(calls) == 14
    return dict(zip(names, calls))


def _witt_off_at(case):
    return lambda real: lambda r, n: real(r, n) + ((r, n) == case)


# (check, layer module, attribute, stand-in built from the real attribute, detail
# of the first failing case): one row for each way an invariant can fail
REGISTRY_FAILURES = [
    ("witt_lyndon", invariants, "witt_dimension", _witt_off_at((2, 3)), {"rank": 2, "degree": 3}),
    ("bch_group_law", nilgroup, "multiply", lambda real: lambda a, b: real(a, real(b, b)),
     {"rank": 2, "cls": 2, "law": "associativity"}),
    ("bch_group_law", nilgroup, "multiply", lambda real: lambda a, b: a, {"rank": 2, "cls": 2, "law": "unit"}),
    ("bch_group_law", nilgroup, "inverse", lambda real: lambda u: u, {"rank": 2, "cls": 2, "law": "inverse"}),
    ("bch_commutator", nilgroup, "group_commutator", lambda real: lambda a, b: real(b, a), {"cls": 2}),
    ("lcs_ranks", nilgroup, "lcs_ranks", lambda real: lambda r, c: real(r, c)[:-1] if r == 3 else real(r, c),
     {"rank": 3, "cls": 2}),
    ("center", nilgroup, "center_basis", lambda real: lambda r, c: real(r, c)[1:] if c == 3 else real(r, c),
     {"rank": 2, "cls": 3}),
    ("betti_heisenberg", lie_homology, "group_betti", lambda real: lambda r, c: [1, 2, 3, 1],
     {"betti": [1, 2, 3, 1]}),
    ("betti_symmetry", lie_homology, "group_betti", lambda real: lambda r, c: [1, r, 0],
     {"rank": 3, "cls": 2, "betti": [1, 3, 0]}),
    ("dynkin_retract", invariants, "dynkin", lambda real: lambda tensor, basis: real(tensor, basis).scaled(2),
     {"rank": 2, "word": "1"}),
    ("ia_ledger", invariants, "witt_dimension", _witt_off_at((3, 2)), {"rank": 3, "cls": 2, "dim": 9}),
    ("ia_ledger", lie_homology, "nilpotency_class", lambda real: lambda g: real(g) + 1,
     {"rank": 2, "cls": 3, "reason": "nilpotency"}),
    ("summand_c2", rep, "evaluate", lambda real: lambda e, r: real(e, r) if r == 2 else rep.WeightModule(r, {}),
     {"rank": 3, "degree": 0}),
    ("summand_2_3", rep, "evaluate", lambda real: lambda e, r: rep.WeightModule(r, {}) if e.power == 2 else real(e, r),
     {"degree": 2}),
    ("coinvariants", rep, "coinvariants_dim", lambda real: lambda e, r: real(e, r) + (r == 3),
     {"expr": "std", "rank": 3}),
    ("coinvariants", rep, "coinvariants_dim", lambda real: lambda e, r: real(e, r) if e != rep.Const(3) else 0,
     {"expr": "const(3)", "rank": 2}),
    ("conjugation_consistency", aut, "gl_conjugation_on_ia",
     lambda real: lambda a, r, c: real(a, r, c).scaled(-1) if c == 3 else real(a, r, c), {"rank": 2, "cls": 3}),
    ("degree_bound", rep, "degree_estimate", lambda real: lambda dims: (3, False),
     {"dims": [0, 1, 2, 3, 4], "estimate": 3}),
]


@pytest.mark.parametrize("check, layer, attr, stand_in, detail", REGISTRY_FAILURES,
                         ids=[f"{row[0]}-{row[2]}" for row in REGISTRY_FAILURES])
def test_every_registry_check_names_its_first_failing_case(
    selftest_registry, check, layer, attr, stand_in, detail, monkeypatch
):
    invariant, args, kwargs = selftest_registry[check]
    monkeypatch.setattr(layer, attr, stand_in(getattr(layer, attr)))
    ok, got = invariant(*args, **kwargs)
    assert ok is False
    assert got == detail


def test_selftest_fails_on_a_stored_betti_entry_that_disagrees(tmp_path, monkeypatch):
    # selftest's betti_cache check reads the betti subcommand's entry; a wrong
    # payload stored there fails that check, and only that check
    monkeypatch.delenv("NILHOM_CACHE_DIR", raising=False)
    params = {"target": "group", "rank": 2, "cls": 3, "degree": None}
    Cache(tmp_path).put("betti", params, {"betti": [1, 2, 3]})
    code, records = run_records(["selftest", "--cache-dir", str(tmp_path)], monkeypatch)
    assert code == 1
    results = {record["result"]["check"]: record["result"] for record in records}
    assert len(results) == 15
    assert results.pop("betti_cache") == {
        "check": "betti_cache",
        "status": "fail",
        "detail": {"reason": "cache disagrees with recomputation"},
    }
    assert all(result["status"] == "pass" for result in results.values())
