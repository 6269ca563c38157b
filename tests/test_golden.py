"""The committed toy outputs reproduce byte for byte from the current code."""

from pathlib import Path

from iterboot.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "toy_kappa2.cfg"
GOLDEN = ROOT / "out" / "toy_kappa2"


def test_toy_kappa2_regenerates_byte_for_byte(tmp_path, capsys):
    # Serial and pooled runs give identical output by design, so the
    # pooled run regenerates the serially produced goldens.
    args = ["--config", str(CONFIG), "--out", str(tmp_path)]
    assert main(["analytic", *args]) == 0
    assert main(["simulate", *args, "--traces", "1", "--workers", "2"]) == 0
    golden = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == golden
    for name in golden:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
