"""End-to-end command-line checks through main() with captured output,
and through ``python -m ranklab`` where a fresh interpreter matters."""

import csv
import inspect
import io
import json
import os
import shlex
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import run_python
from ranklab.bounds import emit_barrier_curves
from ranklab.cli import _BOUNDS, build_parser, main
from ranklab.codefile import loads_code
from ranklab.codes import GabidulinCode, LinearCode
from ranklab.harness import content_hash, run_ensemble
from ranklab.listdec import DEFAULT_MC_CENTERS, max_list_size
from ranklab.rankmetric import ball_volume, kq_constant

README = Path(__file__).resolve().parents[1] / "README.md"


def run_json(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    return json.loads(out)


def test_volume_json_envelope(capsys):
    payload = run_json(capsys, ["volume", "--q", "2", "--m", "2", "--n", "2", "--r", "1"])
    assert payload["schema"] == "ranklab.volume/1"
    assert payload["inputs"]["q"] == 2
    assert payload["content_hash"] == content_hash(payload["inputs"])
    assert payload["result"]["exact"] == "10"
    assert payload["result"]["lower"] == "8"
    assert payload["result"]["strict_ok"] is True
    assert "seed" not in payload


def test_volume_csv(capsys):
    assert main(["volume", "--q", "2", "--m", "2", "--n", "2", "--r", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert {"q", "m", "n", "r", "exact", "lower", "strict_ok"} <= set(header)
    row = dict(zip(header, lines[1].split(",")))
    assert row["exact"] == "10"


def test_volume_past_the_float_range(capsys):
    # q^m = 2^32 is in range; the upper bound's float is not, so it is null
    payload = run_json(capsys, ["volume", "--q", "2", "--m", "32", "--n", "32", "--r", "31"])
    assert payload["result"]["upper_hi_float"] is None
    assert int(payload["result"]["lower"]) == 2**1023
    argv = ["volume", "--q", "2", "--m", "32", "--n", "32", "--r", "32", "--format", "csv"]
    assert main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split(",")[header.split(",").index("upper_hi_float")] == ""


def test_volume_out_of_range_exits_2(capsys):
    assert main(["volume", "--q", "2", "--m", "2", "--n", "2", "--r", "5"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        "volume --q 2305843009213693951 --m 1 --n 1 --r 0",
        "sample --kind random --q 2305843009213693951 --m 1 --n 1 --size 1",
        "sample --kind random --field 2305843009213693951/1:0,1 --n 1 --size 1",
    ],
)
def test_a_base_too_large_to_factor_exits_2_at_once(capsys, args):
    # 2^61 - 1 is prime; trial division up to its square root took minutes
    start = time.perf_counter()
    assert main(args.split()) == 2
    assert time.perf_counter() - start < 5
    assert "no prime factor up to 2^20" in capsys.readouterr().err


def test_bounds_singleton(capsys):
    payload = run_json(
        capsys, ["bounds", "--name", "singleton", "--q", "2", "--m", "3", "--n", "3", "--d", "2"]
    )
    assert payload["schema"] == "ranklab.bounds/1"
    assert payload["result"]["value"] == 6
    assert payload["inputs"]["name"] == "singleton"


def test_bounds_theta(capsys):
    payload = run_json(
        capsys, ["bounds", "--name", "theta_threshold", "--rate", "1/2", "--eps", "1/10"]
    )
    assert payload["result"]["value"] == "5/6"


def test_bounds_hamming(capsys):
    payload = run_json(
        capsys,
        ["bounds", "--name", "hamming", "--code-size", "8", "--q", "2", "--m", "3", "--n", "3", "--d", "3"],
    )
    assert payload["result"]["satisfied"] is True
    assert payload["result"]["details"]["ball"] == 50


BOUND_ARGS = {
    "q": ("2", 2), "m": ("3", 3), "n": ("3", 3), "d": ("2", 2), "code_size": ("8", 8),
    "delta": ("1/4", Fraction(1, 4)), "b": ("1/2", Fraction(1, 2)), "rate": ("1/2", Fraction(1, 2)),
    "rho": ("1/3", Fraction(1, 3)), "eps": ("1/10", Fraction(1, 10)),
}


def test_bounds_missing_parameter_exits_2(capsys):
    assert main(["bounds", "--name", "singleton", "--q", "2", "--m", "3"]) == 2
    assert "needs --n" in capsys.readouterr().err
    # every bound, each of its flags left out in turn
    for name, (_, params) in _BOUNDS.items():
        for missing in params:
            flag = f"--{missing.replace('_', '-')}"
            argv = ["bounds", "--name", name]
            for pname in params:
                if pname != missing:
                    argv += [f"--{pname.replace('_', '-')}", BOUND_ARGS[pname][0]]
            assert main(argv) == 2, (name, missing)
            assert f"needs {flag}" in capsys.readouterr().err


def test_the_bounds_flags_are_the_parameters_of_the_bounds():
    # declared from _BOUNDS, each parameter once, parsed as an int or a Fraction
    commands = build_parser()._subparsers._group_actions[0].choices
    shared = {action.dest for action in commands["curves"]._actions} - {"b", "grid"}
    dests = [action.dest for action in commands["bounds"]._actions if action.dest not in shared | {"name"}]
    assert sorted(dests) == sorted(BOUND_ARGS)
    assert dests == list(dict.fromkeys(p for _, params in _BOUNDS.values() for p in params))
    argv = ["bounds", "--name", "hamming"]
    for pname, (text, _) in BOUND_ARGS.items():
        argv += [f"--{pname.replace('_', '-')}", text]
    args = build_parser().parse_args(argv)
    for pname, (_, value) in BOUND_ARGS.items():
        assert getattr(args, pname) == value and type(getattr(args, pname)) is type(value), pname


def test_bounds_gv_lower_refuses_an_aspect_ratio_above_one(capsys):
    # b = n/m, and the package holds n <= m
    assert main(["bounds", "--name", "gv_lower", "--delta", "1/4", "--b", "3"]) == 2
    assert "b must lie in [0, 1], got 3" in capsys.readouterr().err


def test_bounds_unknown_name_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["bounds", "--name", "mystery"])


def test_sample_stdout_round_trip(capsys):
    assert main(["sample", "--kind", "random", "--q", "2", "--m", "3", "--n", "2", "--size", "8"]) == 0
    first = capsys.readouterr().out
    code = loads_code(first)
    assert code.size == 8
    assert main(["sample", "--kind", "random", "--q", "2", "--m", "3", "--n", "2", "--size", "8"]) == 0
    assert capsys.readouterr().out == first  # same default seed, same bytes
    assert main(
        ["sample", "--kind", "random", "--q", "2", "--m", "3", "--n", "2", "--size", "8", "--seed", "1"]
    ) == 0
    assert capsys.readouterr().out != first


def test_sample_refuses_more_words_than_the_cap(capsys):
    # as reading a code refuses one past the cap; 16 words are the whole of
    # F_{2^2}^2, which sample_random_code lists without drawing
    for argv in (
        ["--q", "2", "--m", "4", "--n", "2", "--size", "101", "--cap", "100"],
        ["--q", "2", "--m", "2", "--n", "2", "--size", "16", "--cap", "15"],
    ):
        assert main(["sample", "--kind", "random", *argv]) == 2
        assert "above the cap of" in capsys.readouterr().err


def test_sample_kinds_and_field_flag(capsys):
    assert main(["sample", "--kind", "random_linear", "--q", "2", "--m", "3", "--n", "2", "--k", "3"]) == 0
    assert isinstance(loads_code(capsys.readouterr().out), LinearCode)
    assert main(["sample", "--kind", "gabidulin", "--field", "2/3:1,1,0,1", "--n", "3", "--k", "2"]) == 0
    code = loads_code(capsys.readouterr().out)
    assert isinstance(code, GabidulinCode)
    assert code.points == (1, 2, 4)


def test_sample_gabidulin_over_f16_to_the_8(capsys):
    # finding the (16, 8) modulus by trial division took minutes
    assert main(["sample", "--kind", "gabidulin", "--q", "16", "--m", "8", "--n", "1", "--k", "1"]) == 0
    code = loads_code(capsys.readouterr().out)
    assert code.ctx.descriptor() == "2^4:1,1,0,0,1/8:2,1,0,1,0,0,0,0,1"


def test_sample_to_file(tmp_path, capsys):
    out = tmp_path / "code.rankcode"
    assert main(
        ["sample", "--kind", "gabidulin", "--q", "2", "--m", "2", "--n", "2", "--k", "1", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert loads_code(out.read_text()).designed_distance == 2


def test_sample_input_validation(capsys):
    assert main(["sample", "--kind", "random", "--q", "2", "--m", "3", "--n", "2"]) == 2
    assert "--size" in capsys.readouterr().err
    assert main(["sample", "--kind", "random", "--n", "2", "--size", "4"]) == 2
    assert "--field" in capsys.readouterr().err
    for kind in ("random_linear", "gabidulin"):
        assert main(["sample", "--kind", kind, "--q", "2", "--m", "3", "--n", "2"]) == 2
        assert f"kind={kind} needs --k" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["3", "0", "300000000"])
def test_sample_random_refuses_a_bad_length_before_any_draw(monkeypatch, capsys, n):
    # n > m wrote a file listdecode refused, n = 0 wrote one, and n = 3 * 10^8
    # computed the space q^(mn) for minutes
    monkeypatch.setattr("ranklab.codes.draws", lambda *args: pytest.fail("drew from the stream"))
    start = time.perf_counter()
    assert main(["sample", "--kind", "random", "--q", "2", "--m", "2", "--n", n, "--size", "1"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"need 1 <= n <= m, got n = {n}, m = 2" in captured.err


def sample_file(tmp_path, capsys, argv, name="c.rankcode"):
    path = tmp_path / name
    assert main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_listdecode_exhaustive(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "random", "--q", "2", "--m", "2", "--n", "2", "--size", "4"]
    )
    payload = run_json(capsys, ["listdecode", "--code", path, "--radius", "1"])
    assert payload["schema"] == "ranklab.listdecode/1"
    assert payload["seed"] == 0
    result = payload["result"]
    assert result["exhaustive"] is True
    assert result["centers_tried"] == 16
    assert result["l_max"] >= result["pigeonhole_lb"] >= 3
    assert Fraction(result["loose_closed_form"]) == 1
    assert "list_cap" not in result


def test_listdecode_rho_and_cap_verdict(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "random", "--q", "2", "--m", "2", "--n", "2", "--size", "4"]
    )
    payload = run_json(
        capsys, ["listdecode", "--code", path, "--rho", "1/2", "--list-cap", "16"]
    )
    result = payload["result"]
    assert result["radius_s"] == 1  # floor(1/2 * 2)
    assert result["list_cap"] == 16
    assert result["list_decodable"] is True


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_listdecode_list_cap_below_one_exit_2(tmp_path, capsys, cap):
    # is_list_decodable and experiment reject such a cap too
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "random", "--q", "2", "--m", "2", "--n", "2", "--size", "4"]
    )
    assert main(["listdecode", "--code", path, "--radius", "1", "--list-cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "list cap must be at least 1" in captured.err


def test_listdecode_montecarlo(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "gabidulin", "--q", "2", "--m", "4", "--n", "4", "--k", "1"]
    )
    payload = run_json(
        capsys,
        ["listdecode", "--code", path, "--radius", "1", "--mode", "montecarlo", "--centers", "20"],
    )
    assert payload["result"]["exhaustive"] is False


def test_listdecode_negative_centers_exit_2(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "random", "--q", "2", "--m", "2", "--n", "2", "--size", "4"]
    )
    argv = ["listdecode", "--code", path, "--radius", "1", "--mode", "montecarlo", "--centers", "-5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "centers" in captured.err


@pytest.mark.parametrize("mode", ["exhaustive", "montecarlo"])
def test_listdecode_workers_below_one_exit_2(tmp_path, capsys, mode):
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "random_linear", "--q", "2", "--m", "2", "--n", "2", "--k", "2"]
    )
    argv = ["listdecode", "--code", path, "--radius", "1", "--mode", mode, "--workers", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers" in captured.err


def test_experiment_workers_below_one_exit_2(capsys):
    argv = ["experiment", "--kind", "random", "--q", "2", "--m", "2", "--n", "2", "--rate", "1/2",
            "--radius", "1", "--list-cap", "4", "--trials", "2", "--workers", "-3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers" in captured.err


def test_listdecode_missing_file_exits_2(capsys):
    assert main(["listdecode", "--code", "/nonexistent/x.rankcode", "--radius", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_listdecode_needs_a_radius(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "random", "--q", "2", "--m", "2", "--n", "2", "--size", "2"]
    )
    assert main(["listdecode", "--code", path]) == 2
    assert "--radius" in capsys.readouterr().err


def test_experiment_json(capsys):
    payload = run_json(
        capsys,
        [
            "experiment", "--kind", "random", "--q", "2", "--m", "3", "--n", "2",
            "--rate", "1/2", "--radius", "1", "--list-cap", "5", "--trials", "10",
            "--seed", "5",
        ],
    )
    assert payload["schema"] == "ranklab.experiment/1"
    assert payload["seed"] == 5
    assert payload["inputs"]["rate_target"] == "1/2"
    result = payload["result"]
    assert len(result["outcomes"]) == 10
    assert result["realized"] == {"log_size": 3, "rate": "1/2"}
    assert "wall_time_s" in result
    fraction = Fraction(result["failure_fraction"])
    assert 0 <= fraction <= 1


def test_experiment_rejects_bad_rate(capsys):
    assert main(
        [
            "experiment", "--kind", "random", "--q", "2", "--m", "3", "--n", "2",
            "--rate", "7/2", "--radius", "1", "--list-cap", "5", "--trials", "2",
        ]
    ) == 2
    assert "rate_target" in capsys.readouterr().err


def test_curves_csv(capsys):
    assert main(["curves", "--b", "1/2", "--grid", "5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rho,singleton,gv,rho_float,singleton_float,gv_float"
    assert len(lines) == 6
    assert lines[1] == "0,1,1,0.0,1.0,1.0"
    assert lines[3].startswith("1/2,1/2,3/8,")


def test_experiment_csv_cells_read_back_as_json(capsys):
    # a nested cell is compact JSON, so csv + json.loads give back the
    # values the JSON report holds; scalar cells keep their str() form
    argv = ["experiment", "--kind", "random", "--q", "2", "--m", "3", "--n", "2", "--rate", "1/3",
            "--radius", "1", "--list-cap", "2", "--trials", "3", "--seed", "5"]
    result = run_json(capsys, argv)["result"]
    assert main([*argv, "--format", "csv"]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    for name in ("spec", "realized", "outcomes", "metadata"):
        assert json.loads(row[name]) == result[name]
    assert row["outcomes"].startswith('[{"exact":true,"failed":true,"index":0,')
    assert (row["schema"], row["failures"], row["failure_fraction"]) == (result["schema"], "3", "1")


def test_curves_json_rows(capsys):
    payload = run_json(capsys, ["curves", "--b", "1/2", "--grid", "5"])
    rows = payload["result"]["rows"]
    assert len(rows) == 5
    assert rows[2]["gv"] == "3/8"


def test_curves_domain_error_exits_2(capsys):
    assert main(["curves", "--b", "3/2"]) == 2
    assert "b must lie in [0, 1], got 3/2" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["curves", "--b", "x"])
    assert info.value.code == 2
    assert "not a rational number: 'x'" in capsys.readouterr().err


def test_coset_check(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys,
        ["sample", "--kind", "random_linear", "--q", "2", "--m", "2", "--n", "2", "--k", "2"],
    )
    payload = run_json(capsys, ["coset-check", "--code", path, "--radius", "1"])
    assert payload["schema"] == "ranklab.coset-check/1"
    result = payload["result"]
    assert result["identity_ok"] is True
    assert result["meets_average_bound"] is True
    assert result["ball"] == "10"


def test_coset_check_rejects_nonlinear_codes(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "random", "--q", "2", "--m", "2", "--n", "2", "--size", "4"]
    )
    assert main(["coset-check", "--code", path, "--radius", "1"]) == 2
    assert "linear" in capsys.readouterr().err


def test_subcommand_is_required():
    with pytest.raises(SystemExit):
        main([])


# runs ``python -m ranklab`` and names every module loaded by its exit
MODULE_PROBE = (
    "import atexit, runpy, sys; "
    "atexit.register(lambda: print('MODULES', *sorted(sys.modules), file=sys.stderr)); "
    "runpy.run_module('ranklab', run_name='__main__', alter_sys=True)"
)


@pytest.mark.parametrize(
    "args, unused",
    [
        ("volume --q 2 --m 6 --n 4 --r 2", ("harness", "listdec", "codes")),
        ("bounds --name hamming --code-size 64 --q 2 --m 4 --n 3 --d 3", ("harness", "listdec", "codes")),
        ("sample --kind random_linear --q 2 --m 4 --n 3 --k 3", ("harness", "listdec")),
        ("curves --b 1/2 --grid 101", ("harness", "listdec", "codes")),
    ],
)
def test_subcommand_loads_only_what_it_runs(args, unused):
    proc = run_python(["-c", MODULE_PROBE, *args.split()], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.rsplit("MODULES", 1)[1].split())
    assert "ranklab.cli" in loaded
    assert not {f"ranklab.{name}" for name in unused} & loaded
    assert not {name for name in loaded if name.startswith(("concurrent", "multiprocessing"))}


def test_listdecode_worker_pool_prints_the_same_bytes(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys,
        ["sample", "--kind", "random_linear", "--q", "2", "--m", "4", "--n", "3", "--k", "3"],
    )
    outs = []
    for workers in ("1", "2"):
        proc = run_python(
            ["-m", "ranklab", "listdecode", "--code", path, "--radius", "1", "--workers", workers],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["result"]["exhaustive"] is True


@pytest.mark.parametrize("args", ["curves --b 1/2 --grid 2001", "volume --q 2 --m 2 --n 2 --r 1"])
def test_closed_stdout_exits_1_without_an_error_line(args):
    # the reader is gone before the first write; the curves table fails
    # mid-report, the short volume report only at the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python(["-m", "ranklab", *args.split()], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def readme_commands():
    """The ``ranklab`` commands of README's "Command line" block, each with
    its continuation lines joined."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("ranklab ")]


def test_readme_command_line_examples_exit_0(tmp_path):
    # in order, in one directory: later commands read the files earlier
    # ones write; child processes, so each runs as a user would run it
    commands = readme_commands()
    assert {argv[1] for argv in commands} == {
        "volume", "bounds", "sample", "listdecode", "experiment", "curves", "coset-check",
    }
    for argv in commands:
        proc = run_python(["-m", "ranklab", *argv[1:]], cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)


def default_of(func, name):
    return inspect.signature(func).parameters[name].default


def test_the_radius_flags_are_declared_once():
    # listdecode, experiment and coset-check share one --radius and one --rho,
    # and volume and experiment one required --q, --m and --n
    commands = build_parser()._subparsers._group_actions[0].choices
    flags = {}
    for name in ("listdecode", "experiment", "coset-check"):
        for action in commands[name]._actions:
            if action.dest in ("radius", "rho"):
                flags.setdefault(action.dest, set()).add(id(action))
                assert action.help and action.default is None
    for name in ("volume", "experiment"):
        for action in commands[name]._actions:
            if action.dest in ("q", "m", "n"):
                flags.setdefault(action.dest, set()).add(id(action))
                assert action.required and action.type is int
    assert {dest: len(ids) for dest, ids in flags.items()} == {"radius": 1, "rho": 1, "q": 1, "m": 1, "n": 1}


def test_parser_defaults_are_the_library_defaults():
    # the CLI echoes and hashes its defaults, so each must be the value the
    # library would use when the option is left out
    parse = build_parser().parse_args
    listdecode = parse(["listdecode", "--code", "c.rankcode"])
    assert listdecode.centers == DEFAULT_MC_CENTERS == default_of(max_list_size, "centers")
    assert listdecode.seed == default_of(max_list_size, "seed")
    assert listdecode.workers == default_of(max_list_size, "workers") == default_of(run_ensemble, "workers")
    volume = parse(["volume", "--q", "2", "--m", "2", "--n", "2", "--r", "1"])
    assert volume.kq_tol == default_of(ball_volume, "kq_tol") == default_of(kq_constant, "tol")
    assert parse(["curves", "--b", "1/2"]).grid == default_of(emit_barrier_curves, "grid_points")
