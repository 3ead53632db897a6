"""Byte-for-byte CLI output at fixed seeds, against ``tests/golden/*.out``.

Each case runs ``main`` in-process from a scratch directory that holds
code files written by ``sample`` at fixed seeds.  The files go under
relative names because ``--code`` is echoed into ``inputs`` and so into
``content_hash``.  ``wall_time_s`` is the one value that differs from run
to run; it is masked in JSON and in the last CSV column.

A change meant to alter report bytes regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and shows the diff.
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from ranklab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CODES = {
    "explicit.code": "sample --kind random --q 2 --m 4 --n 3 --size 16 --seed 1",
    "linear.code": "sample --kind random_linear --q 3 --m 3 --n 2 --k 1 --seed 2",
    "gabidulin.code": "sample --kind gabidulin --q 2 --m 4 --n 4 --k 2",
    "odd.code": "sample --kind random --q 3 --m 3 --n 3 --size 25 --seed 7",
    "odd_keyed.code": "sample --kind random --q 3 --m 4 --n 4 --size 9 --seed 1",
    "odd_linear.code": "sample --kind random_linear --q 3 --m 3 --n 3 --k 6 --seed 2",
    "q4_linear.code": "sample --kind random_linear --q 4 --m 3 --n 3 --k 2 --seed 2",
}

EXPERIMENT_RANDOM = (
    "experiment --kind random --q 2 --m 3 --n 2 --rate 1/3 --radius 1 --list-cap 2 --trials 3"
    " --seed 5"
)
EXPERIMENT_LINEAR = (
    "experiment --kind random_linear --q 2 --m 3 --n 3 --rate 1/3 --rho 1/3 --list-cap 4"
    " --trials 3 --seed 6"
)
VOLUME = "volume --q 2 --m 4 --n 3 --r 2"
CURVES = "curves --b 1/2 --grid 5"
MONTE_CARLO = "listdecode --code {}.code --mode montecarlo --radius {} --centers {} --seed 3"

CASES = {
    "volume": VOLUME,
    "volume_csv": VOLUME + " --format csv",
    "volume_kq_tol": "volume --q 3 --m 5 --n 4 --r 3 --kq-tol 1/1000",
    "curves": CURVES,
    "curves_csv": CURVES + " --format csv",
    "bounds_singleton": "bounds --name singleton --q 2 --m 3 --n 3 --d 2",
    "bounds_hamming": "bounds --name hamming --code-size 4 --q 2 --m 3 --n 3 --d 3",
    "bounds_hamming_large": "bounds --name hamming --code-size 65536 --q 2 --m 16 --n 16 --d 16",
    "bounds_gv_lower": "bounds --name gv_lower --delta 1/3 --b 1/2",
    "bounds_alpha_exact": "bounds --name alpha_exact --delta 1/4",
    "bounds_singleton_barrier": "bounds --name singleton_barrier --rate 1/3",
    "bounds_gv_barrier": "bounds --name gv_barrier --rho 1/4 --b 1/2",
    "bounds_theta_threshold": "bounds --name theta_threshold --rate 1/2 --eps 1/10",
    "sample_random": CODES["explicit.code"],
    "sample_random_linear": CODES["linear.code"],
    "sample_gabidulin": CODES["gabidulin.code"],
    "sample_descriptor": "sample --kind random --field 2/3:1,1,0,1 --n 2 --size 5 --seed 4",
    "listdecode_explicit": "listdecode --code explicit.code --radius 1",
    "listdecode_explicit_workers": "listdecode --code explicit.code --radius 1 --workers 2",
    "listdecode_linear": "listdecode --code linear.code --radius 1 --list-cap 3",
    "listdecode_gabidulin": "listdecode --code gabidulin.code --rho 1/2",
    "listdecode_explicit_csv": "listdecode --code explicit.code --radius 2 --format csv",
    # |C| * |B_1| = 16 * 106 fits the neighbourhood cap
    "listdecode_mc_neighbourhood": MONTE_CARLO.format("explicit", 1, 50),
    # far routes, named for the route each took when its output was frozen:
    # the coset tally, the per-center scan, the set probe and (odd q) the
    # restricted scatter, since replaced by the probe; no report depends
    # on the route
    "listdecode_mc_coset": MONTE_CARLO.format("gabidulin", 1, 50),
    "listdecode_mc_scan": MONTE_CARLO.format("explicit", 2, 20),
    "listdecode_mc_probe": MONTE_CARLO.format("explicit", 2, 600),
    "listdecode_mc_scatter": MONTE_CARLO.format("odd", 1, 200),
    # odd q: the keyed probe, and the coset tally for p = 3 and for q = 4
    "listdecode_mc_odd_keyed_probe": MONTE_CARLO.format("odd_keyed", 1, 1000),
    "listdecode_mc_odd_coset": MONTE_CARLO.format("odd_linear", 1, 200),
    "listdecode_mc_q4_coset": MONTE_CARLO.format("q4_linear", 1, 200),
    "experiment_random": EXPERIMENT_RANDOM,
    "experiment_random_csv": EXPERIMENT_RANDOM + " --format csv",
    "experiment_linear": EXPERIMENT_LINEAR,
    "experiment_linear_csv": EXPERIMENT_LINEAR + " --format csv",
    # the ambient space exceeds the cap, so every trial is Monte Carlo
    "experiment_montecarlo": EXPERIMENT_RANDOM + " --cap 32",
    "coset_check": "coset-check --code linear.code --radius 1",
    "coset_check_csv": "coset-check --code linear.code --rho 1/2 --format csv",
}


def mask(text: str) -> str:
    """Replace each ``wall_time_s`` value: a JSON key, or the last CSV column."""
    text = re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": "*"', text)
    header, _, rows = text.partition("\n")
    if header.endswith(",wall_time_s"):
        rows = "".join(row.rpartition(",")[0] + ",*\n" for row in rows.splitlines())
        text = f"{header}\n{rows}"
    return text


def write_codes() -> None:
    for name, command in CODES.items():
        assert main([*command.split(), "--out", name]) == 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        write_codes()
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    assert main(CASES[name].split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert mask(captured.out) == (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == sorted(CASES)


def regenerate(workdir: Path) -> None:
    """Write every golden file from the current checkout."""
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(workdir)
    write_codes()
    for name, command in sorted(CASES.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(command.split()) == 0
        (GOLDEN / f"{name}.out").write_text(mask(out.getvalue()), encoding="utf-8", newline="\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
