"""Byte-for-byte regression of the CLI at default flags.

``golden/<case>.stdout`` holds the standard output of ``dfreud <argv>`` and
``golden/<case>.stderr``, where present, its standard error; a missing
``.stderr`` file means the command writes nothing there.  The files were
captured from the package before the Barnes G, double-scaling and cache
refactors, so any digit those refactors moved would show up here.  The one
deliberate changes since are the ``value`` column of the three ``logdet``
displays, which used to be summed at the ambient 15-digit precision, and
``beta_double``, which exited 2 at N = 1 (r = n/N > 1 from n = 2) until
``--method double`` took N = n-max when ``--N`` is not given.
``sweep_largen`` was captured before the large-n string solve went from a
2x2 LU solve to one residual per order; it and ``beta_largen`` hold that
solve's digits.  Both run at alpha = 0, where every alternating coefficient
vanishes, so ``beta_largen_alpha`` and ``sweep_largen_alpha`` (alpha = 3/2)
hold the parity split; they were captured before the solve dropped its
sigma-pair series for one plain series per parity.  All four stayed the same
when the solve went on to form only the t^k coefficient at order k.  ``moments`` and
``moments_small_s`` (s = 0.01, N = 5, 40th order, where the forward moment
recurrence cancelled about 27 digits) were captured before the closed-form
table ran its recurrence downward from the top two moments.
``beta_double_small_s`` (s = 0.01) was captured before the double-scaling a0,
a0' and a0'' came from one cancellation-free root of the fluid quadratic.
``beta_hankel_s0`` (s = 0, alpha = 5/2, N = 3) was captured while ``beta --method
hankel`` still printed the exact closed form at s = 0 instead of running the
Hankel route there.  ``moments_json`` and ``hankel_det_json`` pin the JSON
meta (the moment table's source and digits, the pivots' ``digits_used``); they
were captured while those values were still fields of the result records.
``beta_largen_n300`` (s = 0.7, alpha = 1.2, N = 0.6) and ``beta_dpi_n300`` (100
digits, s = 0.5, alpha = 3/2, which leaves the cone at n = 177 and pads with nan)
run at the sizes of the benchmark's large-n and dP_I tables; they were captured
before both loops ran on libmp values in place of an mpf per operation.
"""
from pathlib import Path

import pytest

from dfreud.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "beta_hankel": (("beta", "--method", "hankel"), 0),
    "beta_hankel_s0": (("beta", "--method", "hankel", "--s", "0", "--alpha", "5/2",
                        "--N", "3", "--n-max", "30"), 0),
    "beta_dpi": (("beta", "--method", "dpi"), 0),
    "beta_smalls": (("beta", "--method", "smalls"), 0),
    "beta_largen": (("beta", "--method", "largen"), 0),
    "beta_double": (("beta", "--method", "double"), 0),  # N defaults to n-max: r <= 1
    "beta_double_small_s": (("beta", "--method", "double", "--s", "0.01"), 0),
    "hankel_det": (("hankel-det",), 0),
    "logdet_dlogds": (("logdet", "--quantity", "dlogds"), 0),
    "logdet_ratio_10": (("logdet", "--quantity", "ratio_10"), 0),
    "logdet_D0": (("logdet", "--quantity", "D0"), 0),
    "logdet_D1": (("logdet", "--quantity", "D1"), 0),
    "sweep_largen": (("sweep", "--method", "largen"), 0),
    "beta_largen_alpha": (("beta", "--method", "largen", "--alpha", "3/2", "--s", "0.3",
                           "--N", "2"), 0),
    "sweep_largen_alpha": (("sweep", "--method", "largen", "--alpha", "3/2"), 0),
    "moments": (("moments",), 0),
    "moments_small_s": (("moments", "--s", "0.01", "--alpha", "2.1", "--N", "5",
                         "--max-order", "40"), 0),
    "moments_json": (("moments", "--format", "json", "--max-order", "4"), 0),
    "hankel_det_json": (("hankel-det", "--format", "json", "--n", "4"), 0),
    "beta_largen_n300": (("beta", "--method", "largen", "--n-max", "300", "--s", "0.7",
                          "--alpha", "1.2", "--N", "0.6"), 0),
    "beta_dpi_n300": (("beta", "--method", "dpi", "--n-max", "300", "--digits", "100",
                       "--s", "0.5", "--alpha", "1.5"), 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    argv, expected_code = CASES[case]
    code = main(list(argv))
    out = capsys.readouterr()
    err_path = GOLDEN / f"{case}.stderr"
    assert code == expected_code
    assert out.out == (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8")
    assert out.err == (err_path.read_text(encoding="utf-8") if err_path.exists() else "")
