"""CLI tool: subcommands, artifacts, error handling."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.stl.io import load_ptp


def test_info_prints_module_summary(capsys):
    assert main(["info", "--module", "sp_core", "--width", "8"]) == 0
    out = capsys.readouterr().out
    assert "sp_core" in out
    assert "collapsed stuck-at" in out


def test_info_unknown_module():
    with pytest.raises(SystemExit):
        main(["info", "--module", "warp_scheduler"])


def test_generate_writes_ptp_directory(tmp_path, capsys):
    out_dir = str(tmp_path / "imm")
    assert main(["generate", "--ptp", "IMM", "--seed", "5", "--sbs", "4",
                 "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "program.asm"))
    ptp = load_ptp(out_dir)
    assert ptp.name == "IMM"
    assert len(ptp.sb_hints) == 4


def test_generate_unknown_ptp(tmp_path):
    with pytest.raises(SystemExit, match="SFU_IMM"):
        main(["generate", "--ptp", "SFU_IMM", "--out", str(tmp_path)])


def test_analyze_text_report(capsys):
    assert main(["analyze", "--module", "decoder_unit"]) == 0
    out = capsys.readouterr().out
    assert "TESTABILITY decoder_unit" in out
    assert "untestable        : 86 proven (86 UT002)" in out
    assert "testable          : 3081" in out


def test_closed_stdout_exits_1_without_traceback():
    """``repro analyze | head -1``: a reader that closes the pipe early
    gets exit status 1 and no BrokenPipeError traceback on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "analyze", "--module",
         "decoder_unit"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


def test_analyze_json_covers_all_modules(capsys):
    import json

    assert main(["analyze", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [doc["module"] for doc in data] == \
        ["decoder_unit", "sfu", "sp_core"]
    # Seed counts of the three modules at the default width.
    expected = {"decoder_unit": (86, 3081), "sfu": (2454, 12915),
                "sp_core": (1041, 9745)}
    for doc in data:
        assert set(doc) == {"module", "gates", "nets", "observed", "faults",
                            "untestable_by_kind", "proofs"}
        assert set(doc["faults"]) == {"total", "testable", "untestable"}
        assert (doc["faults"]["untestable"],
                doc["faults"]["testable"]) == expected[doc["module"]]
        assert doc["faults"]["testable"] + doc["faults"]["untestable"] == \
            doc["faults"]["total"]
        assert len(doc["proofs"]) == doc["faults"]["untestable"]
        assert sum(doc["untestable_by_kind"].values()) == \
            doc["faults"]["untestable"]


def test_compact_static_prune_strict_smoke(tmp_path, capsys):
    """The CI soundness smoke: strict mode cross-checks every pruned
    fault against the cone reference engine and the metrics record the
    triage."""
    import json

    src_dir = str(tmp_path / "src")
    out_dir = str(tmp_path / "out")
    metrics_path = str(tmp_path / "metrics.json")
    main(["generate", "--ptp", "IMM", "--seed", "5", "--sbs", "4",
          "--out", src_dir])
    capsys.readouterr()
    assert main(["compact", "--ptp-dir", src_dir, "--out", out_dir,
                 "--static-prune", "strict",
                 "--no-evaluate", "--jobs", "1", "--no-cache",
                 "--metrics-out", metrics_path]) == 0
    capsys.readouterr()
    with open(metrics_path) as handle:
        metrics = json.load(handle)
    assert metrics["static"]["prune_mode"] == "strict"
    assert metrics["static"]["faults_pruned_static"] > 0
    assert metrics["static"]["cross_checked"] == \
        metrics["static"]["faults_pruned_static"]


def test_compact_round_trip(tmp_path, capsys):
    src_dir = str(tmp_path / "src")
    out_dir = str(tmp_path / "out")
    main(["generate", "--ptp", "IMM", "--seed", "5", "--sbs", "6",
          "--out", src_dir])
    capsys.readouterr()
    assert main(["compact", "--ptp-dir", src_dir, "--out", out_dir,
                 "--no-evaluate", "--reports"]) == 0
    out = capsys.readouterr().out
    assert "PTP IMM" in out
    compacted = load_ptp(out_dir)
    original = load_ptp(src_dir)
    assert compacted.size <= original.size
    reports = os.path.join(out_dir, "reports")
    for name in ("trace.txt", "patterns.vcde", "fault_sim.txt",
                 "labeled.txt"):
        path = os.path.join(reports, name)
        assert os.path.getsize(path) > 0


def test_repro_error_exits_2_with_one_line_diagnostic(tmp_path, capsys):
    """Any ReproError must become exit code 2 + a one-line stderr
    diagnostic, never an unhandled traceback."""
    code = main(["compact", "--ptp-dir", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("repro: ReportError:")
    assert "Traceback" not in err


def _write_stl(tmp_path, capsys):
    from repro.stl import SelfTestLibrary, generate_imm, generate_mem
    from repro.stl.io import save_stl

    stl_dir = str(tmp_path / "stl")
    save_stl(SelfTestLibrary([generate_imm(seed=5, num_sbs=4),
                              generate_mem(seed=5, num_sbs=4)]), stl_dir)
    capsys.readouterr()
    return stl_dir


def test_campaign_subcommand_end_to_end(tmp_path, capsys):
    stl_dir = _write_stl(tmp_path, capsys)
    out_dir = str(tmp_path / "out")
    assert main(["campaign", "--stl-dir", stl_dir, "--out", out_dir,
                 "--no-evaluate"]) == 0
    out = capsys.readouterr().out
    assert "CAMPAIGN decoder_unit" in out
    assert "compacted" in out
    assert os.path.exists(os.path.join(out_dir, "campaign.json"))
    from repro.stl.io import load_stl

    compacted = load_stl(out_dir)
    assert [p.name for p in compacted] == ["IMM_compacted",
                                           "MEM_compacted"]


def test_campaign_resume_skips_completed(tmp_path, capsys):
    stl_dir = _write_stl(tmp_path, capsys)
    out_dir = str(tmp_path / "out")
    main(["campaign", "--stl-dir", stl_dir, "--out", out_dir,
          "--no-evaluate"])
    capsys.readouterr()
    assert main(["campaign", "--stl-dir", stl_dir, "--out", out_dir,
                 "--no-evaluate", "--resume"]) == 0
    out = capsys.readouterr().out
    assert out.count("skipped") == 2


def test_campaign_resume_without_checkpoint_exits_2(tmp_path, capsys):
    stl_dir = _write_stl(tmp_path, capsys)
    code = main(["campaign", "--stl-dir", stl_dir,
                 "--out", str(tmp_path / "fresh"), "--resume"])
    assert code == 2
    assert "CheckpointError" in capsys.readouterr().err


def test_campaign_failed_ptp_exits_1(tmp_path, capsys):
    stl_dir = _write_stl(tmp_path, capsys)
    code = main(["campaign", "--stl-dir", stl_dir,
                 "--out", str(tmp_path / "out"),
                 "--no-evaluate", "--max-trace-cycles", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "CycleBudgetError" in out


def test_compact_reports_parse_back(tmp_path, capsys, du_module):
    src_dir = str(tmp_path / "src")
    out_dir = str(tmp_path / "out")
    main(["generate", "--ptp", "MEM", "--seed", "5", "--sbs", "5",
          "--out", src_dir])
    main(["compact", "--ptp-dir", src_dir, "--out", out_dir,
          "--no-evaluate", "--reports"])
    capsys.readouterr()
    from repro.core.patterns import parse_pattern_report
    from repro.core.reports import parse_fault_sim_report
    from repro.gpu.trace import parse_trace_report

    reports = os.path.join(out_dir, "reports")
    with open(os.path.join(reports, "trace.txt")) as handle:
        assert parse_trace_report(handle.read())
    with open(os.path.join(reports, "patterns.vcde")) as handle:
        assert parse_pattern_report(handle.read(), du_module).count > 0
    with open(os.path.join(reports, "fault_sim.txt")) as handle:
        header, rows = parse_fault_sim_report(handle.read())
        assert rows


# -- exec subsystem flags (--jobs / --cache-dir / --no-cache / --metrics) ---

def test_compact_warm_cache_and_metrics(tmp_path, capsys):
    src_dir = str(tmp_path / "src")
    cache_dir = str(tmp_path / "cache")
    main(["generate", "--ptp", "IMM", "--seed", "5", "--sbs", "5",
          "--out", src_dir])
    capsys.readouterr()
    assert main(["compact", "--ptp-dir", src_dir,
                 "--out", str(tmp_path / "out1"), "--jobs", "2",
                 "--cache-dir", cache_dir,
                 "--metrics-out", str(tmp_path / "m1.json")]) == 0
    capsys.readouterr()
    assert main(["compact", "--ptp-dir", src_dir,
                 "--out", str(tmp_path / "out2"), "--jobs", "2",
                 "--cache-dir", cache_dir,
                 "--metrics-out", str(tmp_path / "m2.json")]) == 0
    out = capsys.readouterr().out
    assert "RUN METRICS" in out
    import json

    warm = json.loads((tmp_path / "m2.json").read_text())
    assert warm["cache"]["hits"] >= 1
    assert warm["cache"]["misses"] == 0
    cold = json.loads((tmp_path / "m1.json").read_text())
    assert cold["cache"]["puts"] >= 1
    # Identical compaction either way.
    from repro.stl.io import load_ptp as _load

    assert list(_load(str(tmp_path / "out1")).program) == list(
        _load(str(tmp_path / "out2")).program)


def test_campaign_emits_metrics(tmp_path, capsys):
    stl_dir = _write_stl(tmp_path, capsys)
    out_dir = str(tmp_path / "out")
    cache_dir = str(tmp_path / "cache")
    assert main(["campaign", "--stl-dir", stl_dir, "--out", out_dir,
                 "--no-evaluate", "--jobs", "2",
                 "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "RUN METRICS" in out
    assert "metrics at" in out
    import json

    metrics_path = os.path.join(out_dir, "metrics.json")
    assert os.path.exists(metrics_path)
    with open(metrics_path) as handle:
        document = json.load(handle)
    assert document["fault_sim"]["runs"]


def test_campaign_no_cache_runs_without_cache_dir(tmp_path, capsys):
    stl_dir = _write_stl(tmp_path, capsys)
    out_dir = str(tmp_path / "out")
    assert main(["campaign", "--stl-dir", stl_dir, "--out", out_dir,
                 "--no-evaluate", "--no-cache",
                 "--cache-dir", str(tmp_path / "never")]) == 0
    out = capsys.readouterr().out
    assert "0 hit(s), 0 miss(es)" in out
    assert not os.path.exists(str(tmp_path / "never"))


def test_compact_pool_flags(tmp_path, capsys):
    """--jobs 2 streams through a real pool and --jobs 1 runs inline;
    both compact identically and only the first spawns workers."""
    src_dir = str(tmp_path / "src")
    main(["generate", "--ptp", "IMM", "--seed", "5", "--sbs", "5",
          "--out", src_dir])
    capsys.readouterr()
    assert main(["compact", "--ptp-dir", src_dir,
                 "--out", str(tmp_path / "pooled"), "--jobs", "2",
                 "--no-cache",
                 "--metrics-out", str(tmp_path / "pooled.json")]) == 0
    assert main(["compact", "--ptp-dir", src_dir,
                 "--out", str(tmp_path / "inline"), "--jobs", "1",
                 "--no-cache",
                 "--metrics-out", str(tmp_path / "inline.json")]) == 0
    capsys.readouterr()
    import json

    pooled = json.loads((tmp_path / "pooled.json").read_text())
    inline = json.loads((tmp_path / "inline.json").read_text())
    # Each pooled run (stage 3 and both stage-5 evaluations) forks its
    # own two workers.
    assert pooled["fault_sim"]["runs"] == 3
    assert pooled["pool"]["workers_spawned"] == 2 * 3
    assert pooled["pool"]["chunks_dispatched"] >= 2
    assert inline["pool"] == {}
    assert inline["pool"].get("workers_spawned", 0) == 0
    from repro.stl.io import load_ptp as _load

    assert list(_load(str(tmp_path / "pooled")).program) == list(
        _load(str(tmp_path / "inline")).program)


def test_help_documents_exec_flags(capsys):
    for command in ("compact", "campaign"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--no-cache" in out
        assert "--jobs" in out
        assert "--cache-dir" in out
        assert "--metrics-out" in out
        for removed in ("--chunk-size", "--no-pool", "--rank", "--engine"):
            assert removed not in out


@pytest.mark.parametrize("command", ["compact", "campaign"])
@pytest.mark.parametrize("flag", [["--rank", "scoap"],
                                  ["--chunk-size", "64"], ["--no-pool"]],
                         ids=["rank", "chunk-size", "no-pool"])
def test_removed_exec_flags_are_rejected(tmp_path, capsys, command, flag):
    source = "--ptp-dir" if command == "compact" else "--stl-dir"
    with pytest.raises(SystemExit) as excinfo:
        main([command, source, str(tmp_path), "--out",
              str(tmp_path / "out")] + flag)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_lint_clean_ptp_exits_0(tmp_path, capsys):
    ptp_dir = str(tmp_path / "imm")
    main(["generate", "--ptp", "IMM", "--seed", "5", "--sbs", "4",
          "--out", ptp_dir])
    capsys.readouterr()
    assert main(["lint", "--ptp-dir", ptp_dir]) == 0
    out = capsys.readouterr().out
    assert "IMM: 0 error(s)" in out
    assert "lint: 1 PTP(s), 0 error(s)" in out


def test_lint_stl_dir_json_output(tmp_path, capsys):
    import json

    stl_dir = _write_stl(tmp_path, capsys)
    assert main(["lint", "--stl-dir", stl_dir, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["errors"] == 0
    assert [p["ptp"] for p in data["ptps"]] == ["IMM", "MEM"]
    for ptp in data["ptps"]:
        for diag in ptp["diagnostics"]:
            assert diag["severity"] == "warning"


def test_lint_json_rule_counts_summary(tmp_path, capsys):
    import json

    stl_dir = _write_stl(tmp_path, capsys)
    assert main(["lint", "--stl-dir", stl_dir, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    # The per-rule-id block aggregates the diagnostic arrays exactly.
    expected = {}
    for ptp in data["ptps"]:
        for diag in ptp["diagnostics"]:
            expected[diag["rule"]] = expected.get(diag["rule"], 0) + 1
    assert data["rule_counts"] == expected
    assert sum(data["rule_counts"].values()) == \
        data["errors"] + data["warnings"]


def test_lint_broken_ptp_exits_1(tmp_path, capsys):
    ptp_dir = str(tmp_path / "mem")
    main(["generate", "--ptp", "MEM", "--seed", "5", "--sbs", "4",
          "--out", ptp_dir])
    capsys.readouterr()
    asm_path = os.path.join(ptp_dir, "program.asm")
    with open(asm_path) as handle:
        lines = handle.read().splitlines()
    # Drop the EXIT: execution now falls off the end (CFG002 + CFG003).
    lines = [line for line in lines if line.strip() != "EXIT"]
    with open(asm_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert main(["lint", "--ptp-dir", ptp_dir]) == 1
    out = capsys.readouterr().out
    assert "CFG002" in out or "CFG003" in out


def test_lint_missing_dir_exits_2(tmp_path, capsys):
    assert main(["lint", "--ptp-dir", str(tmp_path / "nope")]) == 2
    assert "repro:" in capsys.readouterr().err


def test_compact_verify_strict_flag(tmp_path, capsys):
    src_dir = str(tmp_path / "src")
    out_dir = str(tmp_path / "out")
    main(["generate", "--ptp", "IMM", "--seed", "5", "--sbs", "4",
          "--out", src_dir])
    capsys.readouterr()
    assert main(["compact", "--ptp-dir", src_dir, "--out", out_dir,
                 "--no-evaluate", "--verify", "strict"]) == 0
    assert "verify" in capsys.readouterr().out
