"""End-to-end command-line checks through main() with captured output."""

import json
from fractions import Fraction

import pytest

from ranklab.cli import main
from ranklab.codefile import loads_code
from ranklab.codes import GabidulinCode, LinearCode
from ranklab.harness import content_hash


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


def test_volume_out_of_range_exits_2(capsys):
    assert main(["volume", "--q", "2", "--m", "2", "--n", "2", "--r", "5"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_bounds_missing_parameter_exits_2(capsys):
    assert main(["bounds", "--name", "singleton", "--q", "2", "--m", "3"]) == 2
    assert "needs --n" in capsys.readouterr().err


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


def test_listdecode_montecarlo(tmp_path, capsys):
    path = sample_file(
        tmp_path, capsys, ["sample", "--kind", "gabidulin", "--q", "2", "--m", "4", "--n", "4", "--k", "1"]
    )
    payload = run_json(
        capsys,
        ["listdecode", "--code", path, "--radius", "1", "--mode", "montecarlo", "--centers", "20"],
    )
    assert payload["result"]["exhaustive"] is False


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


def test_curves_json_rows(capsys):
    payload = run_json(capsys, ["curves", "--b", "1/2", "--grid", "5"])
    rows = payload["result"]["rows"]
    assert len(rows) == 5
    assert rows[2]["gv"] == "3/8"


def test_curves_domain_error_exits_2(capsys):
    assert main(["curves", "--b", "3/2"]) == 2
    capsys.readouterr()


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
