import contextlib
import io
import math
from dataclasses import MISSING, fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from couplesim import (
    STATES,
    FeedbackConfig,
    Model,
    ModelParams,
    SweepSpec,
    build_couple_kernel,
    cli,
    encode,
    individual_kernel,
)
from couplesim.cli import _resolve, build_parser, main
from couplesim.output import write_meta


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trajectory_stdout_format(capsys, tmp_path):
    out = tmp_path / "traj"
    code, stdout, _ = run_cli(
        capsys,
        "trajectory", "--model", "1", "--a1", "0.3", "--a2", "0.3",
        "--steps", "5", "--seed", "42", "--out", str(out),
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "t=0, s1=1 s2=0"
    for t, line in enumerate(lines):
        assert line.startswith(f"t={t}, s1=")
    assert out.with_suffix(".txt").read_text().strip().splitlines() == lines
    csv_lines = out.with_suffix(".csv").read_text().strip().splitlines()
    assert csv_lines[0] == "t,s1,s2"
    assert len(csv_lines) == 7
    meta = (tmp_path / "traj_meta.txt").read_text()
    assert "seed = 42" in meta


def test_trajectory_zero_steps(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(
        capsys, "trajectory", "--model", "1", "--p1", "0.3", "--p2", "0.3", "--steps", "0"
    )
    assert code == 0
    assert stdout.strip().splitlines() == ["t=0, s1=1 s2=0"]
    assert (tmp_path / "trajectory.txt").exists()  # default output prefix


def test_trajectory_rejects_out_of_range_param(capsys):
    code, _, stderr = run_cli(
        capsys, "trajectory", "--model", "1", "--a1", "1.5", "--a2", "0.3"
    )
    assert code == 2
    assert "[0, 1]" in stderr


def test_evolve_calm_chain(capsys, tmp_path):
    out = tmp_path / "dist"
    code, _, _ = run_cli(
        capsys,
        "evolve", "--model", "1", "--p1", "0", "--p2", "0",
        "--steps", "3", "--out", str(out),
    )
    assert code == 0
    lines = out.with_suffix(".csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:] == [f"p_{s1}_{s2}" for s1 in (-1, 0, 1, 2) for s2 in (-1, 0, 1, 2)]
    assert len(lines) == 5
    final = [float(x) for x in lines[-1].split(",")[1:]]
    assert final[header[1:].index("p_0_0")] == 1.0
    for line in lines[1:]:
        row = [float(x) for x in line.split(",")[1:]]
        assert abs(sum(row) - 1.0) < 1e-9


def test_evolve_long_run_absorbs(capsys, tmp_path):
    out = tmp_path / "dist"
    code, _, _ = run_cli(
        capsys,
        "evolve", "--model", "1", "--p1", "0.5", "--p2", "0.5",
        "--steps", "200", "--out", str(out),
    )
    assert code == 0
    lines = out.with_suffix(".csv").read_text().strip().splitlines()
    header = lines[0].split(",")[1:]
    final = dict(zip(header, (float(x) for x in lines[-1].split(",")[1:])))
    absorbed = final["p_0_0"] + final["p_2_2"] + final["p_2_-1"] + final["p_-1_2"]
    assert absorbed >= 1 - 1e-6


def test_audit_kernel_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "audit-kernel", "--model", "1", "--param", "0.3")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "s_self,s_partner,s_next,probability"
    rows = [line.split(",") for line in lines[1:]]
    row_10 = sorted(float(r[3]) for r in rows if r[0] == "1" and r[1] == "0")
    assert row_10 == pytest.approx([0.075, 0.225, 0.7], abs=1e-15)
    sums = {}
    for s_self, s_partner, _, p in rows:
        sums[(s_self, s_partner)] = sums.get((s_self, s_partner), 0.0) + float(p)
    assert len(sums) == 16
    assert all(abs(total - 1.0) < 1e-12 for total in sums.values())


def test_audit_kernel_support_row(capsys):
    code, stdout, _ = run_cli(capsys, "audit-kernel", "--model", "2", "--param", "0.5")
    assert code == 0
    rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
    row = sorted(float(r[3]) for r in rows if r[0] == "1" and r[1] == "-1")
    assert row == [0.5, 0.5]


def test_audit_kernel_couple_dump(capsys):
    code, stdout, _ = run_cli(
        capsys, "audit-kernel", "--model", "1", "--param", "0.3", "--couple"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "s1,s2,s1_next,s2_next,probability"
    sums = {}
    for line in lines[1:]:
        s1, s2, _, _, p = line.split(",")
        sums[(s1, s2)] = sums.get((s1, s2), 0.0) + float(p)
    assert len(sums) == 16
    assert all(abs(total - 1.0) < 1e-12 for total in sums.values())


def _audit_lines(model, couple, p1, p2):
    """The audit CSV lines, built by nested loops over STATES in row-major order."""
    if couple:
        kernel = build_couple_kernel(ModelParams(Model(model), p1, p2))
        lines = ["s1,s2,s1_next,s2_next,probability"]
        entries = (((s1, s2, t1, t2), kernel[encode((s1, s2)), encode((t1, t2))])
                   for s1 in STATES for s2 in STATES for t1 in STATES for t2 in STATES)
    else:
        kernel = individual_kernel(Model(model), p1)
        lines = ["s_self,s_partner,s_next,probability"]
        entries = (((s, sp, nxt), kernel[s + 1, sp + 1, nxt + 1])
                   for s in STATES for sp in STATES for nxt in STATES)
    for states, p in entries:
        if p != 0.0:
            lines.append(",".join([*map(str, states), repr(float(p))]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("couple", [False, True], ids=["individual", "couple"])
@pytest.mark.parametrize("model", [1, 2])
def test_audit_kernel_rows_in_order_byte_for_byte(capsys, tmp_path, model, couple):
    args = ["audit-kernel", "--model", str(model), "--param", "0.81"]
    if couple:
        args += ["--couple", "--param2", "0.3"]
    expected = _audit_lines(model, couple, 0.81, 0.3)
    code, stdout, _ = run_cli(capsys, *args)
    assert code == 0
    assert stdout == expected
    out = tmp_path / "audit.csv"
    code, stdout, _ = run_cli(capsys, *args, "--out", str(out))
    assert code == 0
    assert stdout == f"wrote {out}\n"
    assert out.read_bytes() == expected.encode("ascii")


def test_sweep_outputs_and_rerun_identity(capsys, tmp_path):
    args = [
        "sweep", "--scenario", "model1-plain", "--resolution", "5",
        "--plain-steps", "80", "--pgm",
    ]
    dir1, dir2 = tmp_path / "one", tmp_path / "two"
    assert run_cli(capsys, *args, "--outdir", str(dir1))[0] == 0
    assert run_cli(capsys, *args, "--outdir", str(dir2), "--threads", "2")[0] == 0
    names = ["normal", "separation", "male_violence", "female_violence", "v1", "v2"]
    for name in names:
        assert (dir1 / f"{name}.csv").exists()
        assert (dir1 / f"{name}.pgm").read_bytes().startswith(b"P5\n5 5\n255\n")
        assert (dir1 / f"{name}.csv").read_bytes() == (dir2 / f"{name}.csv").read_bytes()
        assert (dir1 / f"{name}.pgm").read_bytes() == (dir2 / f"{name}.pgm").read_bytes()
    assert (dir1 / "combined.csv").read_bytes() == (dir2 / "combined.csv").read_bytes()
    combined = (dir1 / "combined.csv").read_text().strip().splitlines()
    assert combined[0] == "p1,p2,field,value"
    assert len(combined) == 1 + 5 * 5 * len(names)
    matrix = (dir1 / "normal.csv").read_text().strip().splitlines()
    assert matrix[0].split(",")[0] == "p1"
    assert len(matrix) == 6


def test_sweep_rejects_bad_scenario(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--scenario", "bogus")
    assert code == 2


def test_selfconsistent_trace(capsys, tmp_path):
    out = tmp_path / "sc"
    code, stdout, _ = run_cli(
        capsys,
        "selfconsistent", "--model", "1", "--p1", "0.5", "--p2", "0.5",
        "--turns", "4", "--out", str(out),
    )
    assert code == 0
    assert "final p1=" in stdout
    lines = out.with_suffix(".csv").read_text().strip().splitlines()
    assert lines[0].startswith("turn,p1,p2,v1,v2,normal,")
    assert len(lines) == 6  # header + turns + 1


def test_config_file_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("model = 1\np1 = 0.0\np2 = 0.0\nsteps = 2\nseed = 9\n")
    code, stdout, _ = run_cli(capsys, "trajectory", "--config", str(config))
    assert code == 0
    assert stdout.strip().splitlines() == [
        "t=0, s1=1 s2=0",
        "t=1, s1=-1 s2=-1",
        "t=2, s1=0 s2=0",
    ]
    # explicit flags override the file
    code, stdout, _ = run_cli(capsys, "trajectory", "--config", str(config), "--steps", "0")
    assert code == 0
    assert stdout.strip().splitlines() == ["t=0, s1=1 s2=0"]


def test_config_file_syntax(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# a whole-line comment\n"
        "\n"
        "scenario = 'model2-plain'\n"
        "resolution = 3  # a trailing comment\n"
        "plain-steps = \"4\"\n"
        "   \n"
        "pgm = true\n"
        "outdir = run#2\n"
    )
    cfg = _resolve(build_parser().parse_args(["sweep", "--config", str(config)]), "sweep")
    assert (cfg["scenario"], cfg["resolution"], cfg["plain_steps"]) == ("model2-plain", 3, 4)
    assert cfg["pgm"] is True
    assert cfg["outdir"] == "run"  # `#` starts a comment anywhere on the line
    config.write_text("pgm = off\n")
    assert _resolve(build_parser().parse_args(["sweep", "--config", str(config)]), "sweep")[
        "pgm"] is False


def test_config_file_switches_on_a_run(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("couple = yes\nparam = 0.5\n")
    code, stdout, _ = run_cli(capsys, "audit-kernel", "--config", str(config))
    assert code == 0
    assert stdout.splitlines()[0] == "s1,s2,s1_next,s2_next,probability"
    config.write_text(f"scenario = model1-plain\nresolution = 3\nplain_steps = 2\n"
                      f"outdir = {tmp_path / 'sweep'}\npgm = yes\n")
    assert run_cli(capsys, "sweep", "--config", str(config))[0] == 0
    assert (tmp_path / "sweep" / "separation.pgm").exists()


def test_config_line_without_equals_exits_2_with_its_place(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("model = 1\n\nsteps 5\n")
    code, _, stderr = run_cli(capsys, "trajectory", "--config", str(config))
    assert code == 2
    assert f"{config}:3: expected 'key = value'" in stderr


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("model = 1\nbananas = 7\n")
    code, _, stderr = run_cli(capsys, "trajectory", "--config", str(config))
    assert code == 2
    assert "bananas" in stderr


@pytest.mark.parametrize(
    "command,suffixes",
    [("trajectory", (".txt", ".csv")), ("evolve", (".csv",)), ("selfconsistent", (".csv",))],
)
def test_dotted_out_prefix_keeps_its_name(capsys, tmp_path, command, suffixes):
    for prefix in ("traj_a0.3", "traj_a0.5"):
        assert run_cli(capsys, command, "--out", str(tmp_path / prefix))[0] == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        prefix + suffix for prefix in ("traj_a0.3", "traj_a0.5")
        for suffix in (*suffixes, "_meta.txt")
    )


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_unwritable_outdir_exits_3(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code, _, stderr = run_cli(
        capsys,
        "sweep", "--scenario", "model1-plain", "--resolution", "3",
        "--plain-steps", "5", "--outdir", str(blocker),
    )
    assert code == 3
    assert "runtime error" in stderr


def test_unwritable_outdir_fails_before_computing(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output directory was made")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    code, _, stderr = run_cli(
        capsys, "sweep", "--scenario", "model2-sc-gender", "--outdir", str(blocker)
    )
    assert code == 3
    assert "runtime error" in stderr and "sweep ran" not in stderr


OUT_RUNS = [("trajectory", "sample_trajectory"), ("evolve", "evolve_trace"),
            ("selfconsistent", "self_consistent_run"), ("audit-kernel", "individual_kernel")]


# "" and "." name no file (exit 2); "blocker/x" needs a directory where a file
# is (exit 3). audit-kernel writes to stdout for "", so only the last applies.
@pytest.mark.parametrize(
    "command,run,prefix",
    [pytest.param(command, run, prefix, id=f"{command}-{run}-{name}")
     for command, run in OUT_RUNS
     for prefix, name in (("", "empty"), (".", "dot"), ("blocker/x", "blocked"))
     if command != "audit-kernel" or name == "blocked"],
)
def test_out_prefix_without_a_file_name_fails_before_computing(
    capsys, tmp_path, monkeypatch, command, run, prefix
):
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran before its files were named")

    monkeypatch.setattr(cli, run, no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("a file, not a directory")
    code, stdout, stderr = run_cli(capsys, command, "--out", prefix)
    assert code == (3 if prefix == "blocker/x" else 2)
    assert stdout == "" and "ran before" not in stderr
    assert [path.name for path in tmp_path.iterdir()] == ["blocker"]


@pytest.mark.parametrize(
    "command,argv",
    [("trajectory", ["--steps", "2"]), ("evolve", ["--steps", "2"]),
     ("selfconsistent", ["--turns", "1", "--inner-steps", "2"]), ("audit-kernel", [])],
    ids=["trajectory", "evolve", "selfconsistent", "audit-kernel"],
)
def test_out_makes_its_directory(capsys, tmp_path, command, argv):
    out = tmp_path / "no" / "such" / "x"
    code, _, stderr = run_cli(capsys, command, *argv, "--out", str(out))
    assert code == 0, stderr
    assert any(out.parent.iterdir())


def test_audit_kernel_rejects_param2_outside_unit_without_couple(capsys, tmp_path):
    # the fuzz test below covers --couple
    config = tmp_path / "run.cfg"
    config.write_text("param2 = 5\n")
    for argv in (["--param2", "5"], ["--config", str(config)]):
        code, stdout, stderr = run_cli(capsys, "audit-kernel", *argv)
        assert code == 2, argv
        assert stdout == "" and "param2 must lie in [0, 1]" in stderr


@pytest.mark.parametrize(
    "argv,config_text",
    [(["--start", "foo"], None), (["--start", "1,2,3"], None), ([], "start = foo\n")],
    ids=["flag-foo", "flag-1,2,3", "config-foo"],
)
def test_malformed_start_exits_2(capsys, tmp_path, argv, config_text):
    if config_text is not None:
        config = tmp_path / "run.cfg"
        config.write_text(config_text)
        argv = ["--config", str(config)]
    code, _, stderr = run_cli(capsys, "trajectory", *argv, "--out", str(tmp_path / "t"))
    assert code == 2
    assert "start must look like '1,0'" in stderr


@pytest.mark.parametrize("missing", ["no/such/file.cfg", "."])
def test_unreadable_config_exits_2(capsys, tmp_path, missing):
    code, _, stderr = run_cli(capsys, "trajectory", "--config", str(tmp_path / missing))
    assert code == 2
    assert "cannot read config file" in stderr


def test_non_utf8_config_exits_2_as_unreadable(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"model = 1\nseed = \xff\xfe\n")
    code, _, stderr = run_cli(capsys, "trajectory", "--config", str(config))
    assert code == 2
    assert "cannot read config file" in stderr


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_thread(capsys, tmp_path, threads):
    outdir = tmp_path / "out"
    code, _, stderr = run_cli(
        capsys, "sweep", "--resolution", "2", "--threads", threads, "--outdir", str(outdir)
    )
    assert code == 2
    assert "workers must be at least 1" in stderr
    assert not outdir.exists()


# Every command's option strings and choices, in help order.
SURFACE = {
    "trajectory": [
        ("--config", None), ("--model", [1, 2]), ("--p1 --a1 --s1", None),
        ("--p2 --a2 --s2", None), ("--steps", None), ("--seed", None), ("--start", None),
        ("--out", None),
    ],
    "evolve": [
        ("--config", None), ("--model", [1, 2]), ("--p1 --a1 --s1", None),
        ("--p2 --a2 --s2", None), ("--steps", None), ("--start", None), ("--out", None),
    ],
    "selfconsistent": [
        ("--config", None), ("--model", [1, 2]), ("--p1 --a1 --s1", None),
        ("--p2 --a2 --s2", None), ("--vc", None), ("--inner-steps", None), ("--turns", None),
        ("--gender-mode", ["blind", "specific"]), ("--engine", ["exact", "monte-carlo"]),
        ("--ensemble-size", None), ("--seed", None), ("--start", None), ("--out", None),
    ],
    "sweep": [
        ("--config", None),
        ("--scenario", ["model1-plain", "model1-sc-blind", "model1-sc-gender",
                        "model2-plain", "model2-sc-blind", "model2-sc-gender"]),
        ("--resolution", None), ("--runs-per-cell", None),
        ("--engine", ["exact", "monte-carlo"]), ("--ensemble-size", None), ("--seed", None),
        ("--vc", None), ("--inner-steps", None), ("--turns", None), ("--plain-steps", None),
        ("--start", None), ("--threads", None), ("--outdir", None), ("--pgm", None),
    ],
    "audit-kernel": [
        ("--config", None), ("--model", [1, 2]), ("--param", None), ("--param2", None),
        ("--couple", None), ("--out", None),
    ],
}
SWITCHES = {"--config", "--pgm", "--couple"}

# Two distinct non-default values per option: one for the file, one for the flag.
SAMPLES = {
    "model": ("2", "1"), "p1": ("0.25", "0.75"), "p2": ("0.125", "0.625"),
    "steps": ("7", "3"), "seed": ("5", "-2"), "start": ("0,2", "-1,1"), "out": ("a", "b"),
    "vc": ("0.2", "0.05"), "inner_steps": ("4", "9"), "turns": ("6", "2"),
    "gender_mode": ("specific", "blind"), "engine": ("monte-carlo", "exact"),
    "ensemble_size": ("50", "70"), "scenario": ("model2-plain", "model1-sc-blind"),
    "resolution": ("3", "4"), "runs_per_cell": ("2", "3"), "plain_steps": ("9", "11"),
    "threads": ("2", "3"), "outdir": ("d", "e"), "param": ("0.25", "0.75"),
    "param2": ("0.125", "0.625"),
}


def _subparsers():
    return build_parser()._subparsers._group_actions[0].choices


def test_parser_surface_is_pinned():
    surface = {
        command: [
            (" ".join(action.option_strings), action.choices and list(action.choices))
            for action in sub._actions if action.dest != "help"
        ]
        for command, sub in _subparsers().items()
    }
    assert surface == SURFACE


def test_cli_keys_are_the_run_descriptions_fields():
    sweep = {"master_seed" if key == "seed" else key: option
             for key, option in cli._SCHEMAS["sweep"].items()
             if key not in ("threads", "outdir", "pgm")}
    selfconsistent = cli._SCHEMAS["selfconsistent"]
    assert list(sweep) == [f.name for f in fields(SweepSpec)]
    names = [f.name for f in fields(FeedbackConfig)]
    assert [key for key in selfconsistent if key in names] == names
    for command in ("trajectory", "evolve", "selfconsistent"):
        assert {f.name for f in fields(ModelParams)} <= set(cli._SCHEMAS[command])
    for cls, schema in ((SweepSpec, sweep), (FeedbackConfig, selfconsistent)):
        for f in fields(cls):
            if f.default is not MISSING:
                assert schema[f.name].default == getattr(f.default, "value", f.default), f.name


def _meta_lines(tmp_path, command, *argv):
    path = tmp_path / "meta.txt"
    write_meta(path, _resolve(build_parser().parse_args([command, *argv]), command))
    return path.read_text().splitlines()


@pytest.mark.parametrize(
    "command,key",
    [(command, flags.split()[0][2:].replace("-", "_")) for command, options in SURFACE.items()
     for flags, _ in options if flags not in SWITCHES],
)
def test_flag_and_config_key_give_the_same_meta_line(tmp_path, command, key):
    flag = "--" + key.replace("_", "-")
    in_file, on_line = SAMPLES[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {in_file}\n")
    default = _meta_lines(tmp_path, command)
    from_file = _meta_lines(tmp_path, command, "--config", str(config))
    assert from_file == _meta_lines(tmp_path, command, f"{flag}={in_file}")
    changed = [i for i, (a, b) in enumerate(zip(default, from_file)) if a != b]
    assert len(changed) == 1 and from_file[changed[0]].startswith(f"{key} = ")
    flag_wins = _meta_lines(tmp_path, command, "--config", str(config), f"{flag}={on_line}")
    assert flag_wins == _meta_lines(tmp_path, command, f"{flag}={on_line}") != from_file


def test_default_sweep_meta_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "sweep")[0] == 0
    assert (tmp_path / "sweep-model1-plain" / "meta.txt").read_text() == (
        "scenario = model1-plain\n"
        "resolution = 51\n"
        "runs_per_cell = \n"
        "engine = exact\n"
        "ensemble_size = 1000\n"
        "seed = 0\n"
        "vc = 0.1\n"
        "inner_steps = 20\n"
        "turns = 20\n"
        "plain_steps = \n"
        "start = (1, 0)\n"
        "threads = 1\n"
        "outdir = \n"
        "pgm = false\n"
    )


# Text that no converter accepts: no digits, no "nan"/"inf", nothing a
# config line strips or comments out.
_NONSENSE = st.text(alphabet="abcxyz.,;:+-_!?%", max_size=8)
_OUTSIDE_UNIT = st.floats().filter(lambda x: not 0.0 <= x <= 1.0).map(repr)
_NOT_INT = st.one_of(_NONSENSE, st.floats().filter(math.isfinite).map(repr))


def _ints_below(bound):
    return st.one_of(_NOT_INT, st.integers(max_value=bound - 1).map(str))


_BAD_STATE = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(
    lambda pair: not all(-1 <= s <= 2 for s in pair))

# For every option validation can reject, values it must reject.
REJECTED = {
    "model": st.one_of(_NONSENSE, st.integers().filter(lambda n: n not in (1, 2)).map(str)),
    **dict.fromkeys(("p1", "p2", "vc", "param", "param2"), st.one_of(_NONSENSE, _OUTSIDE_UNIT)),
    **dict.fromkeys(("steps", "plain_steps"), _ints_below(0)),
    **dict.fromkeys(("inner_steps", "turns", "ensemble_size", "runs_per_cell", "threads"),
                    _ints_below(1)),
    "resolution": st.one_of(_ints_below(2), st.integers(min_value=202).map(str)),
    "seed": _NOT_INT,
    "start": st.one_of(_NONSENSE, _BAD_STATE.map(lambda pair: "%d,%d" % pair)),
    **dict.fromkeys(("gender_mode", "engine", "scenario", "pgm", "couple"), _NONSENSE),
}


def _valid_base(command, directory):
    """The command with any output kept inside `directory` (--couple: the couple kernel too)."""
    couple = ["--couple"] if command == "audit-kernel" else []
    flag = "--outdir" if command == "sweep" else "--out"
    return [command, *couple, f"{flag}={directory / command}"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_CASES = st.sampled_from(
    [(command, key) for command, schema in cli._SCHEMAS.items() for key in schema if key in REJECTED]
).flatmap(lambda option: st.tuples(st.just(option), REJECTED[option[1]]))


@given(_CASES)
@example((("trajectory", "p1"), "--"))  # argparse reads `--p1=--` as [] without converting it
def test_rejected_values_exit_2_as_flag_and_config_line(fuzz_dir, case):
    (command, key), value = case
    config = fuzz_dir / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    base = _valid_base(command, fuzz_dir)
    for argv in (base + [f"--{key.replace('_', '-')}={value}"], base + ["--config", str(config)]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code == 2, (argv, stderr.getvalue())
