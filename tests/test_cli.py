import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

from loupe import records
from loupe.cli import cli, main
from loupe.lamstar import TailNotDecaying
from loupe.records import (CorruptRecord, ResultRecord, cache_lookup,
                           cache_store, canonical_json, config_hash)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv(records.CACHE_ENV, str(tmp_path / "cache"))
    return tmp_path / "cache"


HARM = ["harmonic", "--domain", "annulus(1,10)", "--z", "2",
        "--target", "circle(0,0,10)", "--n", "2000", "--seed", "1"]

# run in a fresh interpreter: which modules an import loads is
# process-wide state that this test session has already changed
SCIPY_ON_DEMAND = f"""
import sys
import loupe.cli
from loupe import lamstar, loops
assert "scipy" not in sys.modules
loupe.cli.cli.main({HARM!r}, standalone_mode=False)
assert "scipy" not in sys.modules
loops.loop_mass_circles(0.1, 10.0)
assert "scipy" in sys.modules
assert lamstar.integrate is loops.integrate
"""


class TestRecords:
    def test_canonical_json_sorted_and_complex(self):
        s = canonical_json({"b": 1, "a": 2 + 3j})
        assert s == '{"a":{"im":3.0,"re":2.0},"b":1}'

    def test_canonical_json_non_finite(self):
        s = canonical_json({"x": float("nan"), "y": float("inf")})
        assert json.loads(s) == {"x": "nan", "y": "inf"}

    def test_config_hash_order_independent(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_artifact_excludes_wall_time(self):
        rec = ResultRecord({"n": 1}, "demo", {"v": 0.5}, wall_time=1.23)
        art = json.loads(rec.artifact_json())
        assert "wall_time" not in art
        assert art["result"] == {"v": 0.5}
        assert json.loads(rec.cache_json())["wall_time"] == 1.23

    def test_cache_roundtrip_field_for_field(self, cache):
        rec = ResultRecord({"n": 3, "seed": 0}, "demo", {"v": [1.0, 2.0]},
                           wall_time=0.1)
        path = cache_store(rec)
        assert path is not None
        back = cache_lookup({"seed": 0, "n": 3})
        assert back is not None
        assert back.config == rec.config
        assert back.command == rec.command
        assert back.payload == rec.payload
        assert back.wall_time == rec.wall_time
        assert back.config_digest == rec.config_digest

    def test_cache_miss_on_changed_config(self, cache):
        cache_store(ResultRecord({"n": 3}, "demo", {"v": 1}, 0.0))
        assert cache_lookup({"n": 4}) is None

    def test_corrupt_record_skipped_with_warning(self, cache):
        rec = ResultRecord({"n": 3}, "demo", {"v": 1}, 0.0)
        path = cache_store(rec)
        with open(path, "w") as fh:
            fh.write("{not json")
        with pytest.warns(CorruptRecord):
            assert cache_lookup({"n": 3}) is None

    def test_digest_mismatch_rejected(self, cache):
        rec = ResultRecord({"n": 3}, "demo", {"v": 1}, 0.0)
        path = cache_store(rec)
        raw = json.load(open(path))
        raw["config"] = {"n": 99}
        with open(path, "w") as fh:
            json.dump(raw, fh)
        # stored under the old digest but hashing the tampered config differs
        with pytest.warns(CorruptRecord):
            assert cache_lookup({"n": 3}) is None

    def test_concurrent_stores_leave_one_record(self, cache, monkeypatch):
        rec = ResultRecord({"n": 5}, "demo", {"v": [1.0, 2.0]}, 0.5)
        # both writers finish their temp file and pass the existence check
        # before either publishes it (by os.link, or by os.replace)
        both_written = threading.Barrier(2, timeout=10)

        def after_both(publish):
            def held(src, dst):
                both_written.wait()
                return publish(src, dst)
            return held

        for name in ("link", "replace"):
            monkeypatch.setattr(records.os, name,
                                after_both(getattr(records.os, name)))
        errors = []

        def store():
            try:
                cache_store(rec)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=store) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert errors == []
        assert sorted(p.name for p in cache.glob("*.json")) == [
            rec.config_digest + ".json"]
        assert list(cache.glob("*.tmp")) == []
        assert cache_lookup({"n": 5}).payload == rec.payload
        index = (cache / "index.jsonl").read_text().splitlines()
        assert [json.loads(line)["digest"] for line in index] == [
            rec.config_digest]

    def test_no_cache_dir_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(records.CACHE_ENV, raising=False)
        assert cache_lookup({"n": 1}) is None
        assert cache_store(ResultRecord({"n": 1}, "d", {}, 0.0)) is None


class TestArtifacts:
    def test_byte_identical_reruns(self, runner, cache):
        a = runner.invoke(cli, HARM, catch_exceptions=False)
        b = runner.invoke(cli, HARM, catch_exceptions=False)
        assert a.exit_code == 0 and b.exit_code == 0
        assert a.stdout == b.stdout
        assert "(cached)" not in a.stderr
        assert "(cached)" in b.stderr

    def test_artifact_roundtrips_and_matches_record(self, runner, cache):
        res = runner.invoke(cli, HARM, catch_exceptions=False)
        art = json.loads(res.stdout)
        assert art["command"] == "harmonic"
        assert art["config"]["seed"] == 1
        est = art["result"]["estimate"]
        assert 0.25 < est["value"] < 0.35
        rec = cache_lookup(art["config"])
        assert rec is not None and rec.payload == art["result"]

    def test_seed_changes_artifact_and_misses_cache(self, runner, cache):
        a = runner.invoke(cli, HARM, catch_exceptions=False)
        alt = HARM[:-1] + ["2"]
        b = runner.invoke(cli, alt, catch_exceptions=False)
        assert "(cached)" not in b.stderr
        assert a.stdout != b.stdout

    def test_out_writes_file(self, runner, tmp_path):
        out = tmp_path / "res.json"
        res = runner.invoke(cli, HARM + ["--out", str(out)],
                            catch_exceptions=False)
        assert res.exit_code == 0
        assert json.loads(out.read_text())["command"] == "harmonic"
        assert res.stdout == ""

    def test_respaced_literals_hit_the_cache(self, runner, cache):
        a = runner.invoke(cli, HARM, catch_exceptions=False)
        spaced = [{"annulus(1,10)": " Annulus( 1, 10 )",
                   "circle(0,0,10)": "circle(0, 0,\t10)"}.get(x, x)
                  for x in HARM]
        b = runner.invoke(cli, spaced, catch_exceptions=False)
        assert "(cached)" not in a.stderr
        assert "(cached)" in b.stderr
        assert b.stdout == a.stdout

    def test_corrupt_cache_recomputes(self, runner, cache):
        res = runner.invoke(cli, HARM, catch_exceptions=False)
        digest = config_hash(json.loads(res.stdout)["config"])
        (cache / (digest + ".json")).write_text("garbage")
        with pytest.warns(CorruptRecord):
            again = runner.invoke(cli, HARM, catch_exceptions=False)
        assert again.exit_code == 0
        assert again.stdout == res.stdout


class TestCommands:
    def test_bubble_concentric_mode(self, runner):
        res = runner.invoke(cli, ["bubble", "--r", "100", "--seed", "0"],
                            catch_exceptions=False)
        v = json.loads(res.stdout)["result"]["rho"]["value"]
        assert abs(v * 2.0 * math.log(100.0) - 1.0) < 0.01

    def test_loop_mass_fast_path(self, runner):
        res = runner.invoke(cli, ["loop-mass", "--set", "circle(0,0,1)",
                                  "--set", "circle(0,0,100)", "--domain",
                                  "exterior(0,0,0.01)", "--seed", "3"],
                            catch_exceptions=False)
        est = json.loads(res.stdout)["result"]["estimate"]
        assert abs(est["value"] - math.log(2.0)) < 0.02

    def test_capacity_of_disk(self, runner):
        res = runner.invoke(cli, ["capacity", "--set", "closed_disk(0,0,0.5)",
                                  "--n", "4000", "--seed", "2"],
                            catch_exceptions=False)
        est = json.loads(res.stdout)["result"]["estimate"]
        assert abs(est["value"] - math.log(0.5)) < 4.0 * est["stderr"] + 1e-3

    def test_lambda_star_with_tables(self, runner, tmp_path):
        csvp, svgp = tmp_path / "t.csv", tmp_path / "t.svg"
        res = runner.invoke(cli, ["lambda-star", "--v1", "circle(0,0,1)",
                                  "--v2", "circle(0,0,10)", "--depth", "6",
                                  "--seed", "0", "--csv", str(csvp),
                                  "--svg", str(svgp)],
                            catch_exceptions=False)
        assert res.exit_code == 0
        lines = csvp.read_text().strip().splitlines()
        assert lines[0] == "r,renormalized,stderr"
        assert len(lines) == 7
        assert svgp.read_text().startswith("<svg")
        table = json.loads(res.stdout)["result"]["extrapolation"]["table"]
        assert len(table) == 6

    def test_sle_sample(self, runner):
        res = runner.invoke(cli, ["sle", "sample", "--kappa", "2", "--t",
                                  str(math.exp(-3.0)), "--dt", "1e-3",
                                  "--seed", "4"], catch_exceptions=False)
        p = json.loads(res.stdout)["result"]
        assert p["capacity"] == -3.0
        assert math.exp(-3.0) <= p["radius"] <= 4.2 * math.exp(-3.0)

    def test_config_file_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nseed = 7\nn = 2000\n")
        args = ["harmonic", "--config", str(cfg), "--domain", "annulus(1,10)",
                "--z", "2", "--target", "circle(0,0,10)"]
        res = runner.invoke(cli, args, catch_exceptions=False)
        assert res.exit_code == 0
        conf = json.loads(res.stdout)["config"]
        assert conf["seed"] == 7 and conf["n"] == 2000

    def test_explicit_option_beats_config_file(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n")
        res = runner.invoke(cli, ["bubble", "--r", "10", "--config", str(cfg),
                                  "--seed", "9"], catch_exceptions=False)
        assert json.loads(res.stdout)["config"]["seed"] == 9

    def test_verify_suites_pass(self, runner):
        for suite in ("kernels", "geometry", "engine"):
            res = runner.invoke(cli, ["verify", suite],
                                catch_exceptions=False)
            assert res.exit_code == 0
            assert "FAIL" not in res.stdout


class TestExitCodes:
    def _run_main(self, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["loupe", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        return exc.value.code

    def test_missing_seed_is_config_error(self, monkeypatch):
        assert self._run_main(monkeypatch, ["bubble", "--r", "10"]) == 2

    def test_bad_literal_is_config_error(self, monkeypatch):
        code = self._run_main(monkeypatch, HARM[:2] + ["circle(0,0,1)"]
                              + HARM[3:])
        assert code == 2

    def test_space_inside_a_number_is_config_error(self, monkeypatch, cache):
        # the cache key drops whitespace, but the literal is parsed as given:
        # "1 0" is no number, even with circle(0,0,10)'s record cached
        assert CliRunner().invoke(cli, HARM).exit_code == 0
        target = HARM.index("--target") + 1
        argv = HARM[:target] + ["circle(0,0,1 0)"] + HARM[target + 1:]
        assert self._run_main(monkeypatch, argv) == 2

    @pytest.mark.parametrize("option,literal", [
        ("--domain", "disk(0,0,inf)"), ("--target", "circle(0,0,nan)"),
        ("--z", "nan")])
    def test_non_finite_literal_is_config_error(self, monkeypatch, option,
                                                literal):
        argv = ["harmonic", "--domain", "disk(0,0,2)", "--z", "0.5",
                "--target", "circle(0,0,1)", "--n", "1000", "--seed", "1"]
        argv[argv.index(option) + 1] = literal
        assert self._run_main(monkeypatch, argv) == 2

    def test_wrong_kind_literal_is_config_error(self, monkeypatch):
        # a domain literal where a compact set is required
        code = self._run_main(monkeypatch,
                              ["capacity", "--set", "disk(0,0,1)",
                               "--n", "100", "--seed", "0"])
        assert code == 2

    def test_kappa_out_of_range_is_config_error(self, monkeypatch):
        code = self._run_main(monkeypatch,
                              ["sle", "sample", "--kappa", "9", "--t", "0.1",
                               "--seed", "0"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["bubble", "--z", "1", "--domain", "exterior(0,0,1)", "--domain2",
         "annulus(1,10)", "--n", "0", "--seed", "1"],
        ["sle", "modulus", "--kappa", "2", "--t", "0.01", "--domain",
         "disk(0,0,1)", "--n", "0", "--seed", "1"],
        # one walker per radius would leave the stderr to a variance floor
        ["sle", "modulus", "--kappa", "2", "--t", "0.01", "--domain",
         "disk(0,0,1)", "--n", "7", "--seed", "1"],
        ["loop-mass", "--set", "circle(0,0,1)", "--set", "circle(0,0,2)",
         "--domain", "exterior(0,0,0.5)", "--force-mc", "--n-per-node", "0",
         "--seed", "1"],
    ], ids=["bubble", "sle-modulus", "sle-modulus-one-per-radius",
            "loop-mass"])
    def test_too_few_samples_is_config_error(self, monkeypatch, argv):
        assert self._run_main(monkeypatch, argv) == 2

    def test_numeric_contract_error_is_exit_3(self, monkeypatch):
        def boom(*a, **k):
            raise TailNotDecaying("synthetic")

        monkeypatch.setattr("loupe.cli.hitting_prob", boom)
        assert self._run_main(monkeypatch, HARM) == 3

    def test_success_returns_none(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["loupe", "bubble", "--r", "10",
                                          "--seed", "0"])
        main()
        out = capsys.readouterr().out
        assert json.loads(out)["command"] == "bubble"


def test_scipy_loads_only_for_quadrature():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != records.CACHE_ENV}
    env["PYTHONPATH"] = str(src)
    res = subprocess.run([sys.executable, "-c", SCIPY_ON_DEMAND], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
