import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def test_identity_listing_covers_every_output_and_no_path(tmp_path):
    """tools/identity.py hashes every file each run writes but timings.csv,
    and its listing does not depend on the directory it runs in."""
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.listing(tmp_path / "a")
    hashed = [line.split("  ")[1] for line in first]
    written = [f"{run.name}/{out.name}" for run in (tmp_path / "a" / "out").iterdir()
               for out in run.iterdir() if out.name != "timings.csv"]
    assert sorted(hashed) == sorted(written)
    assert tool.listing(tmp_path / "b") == first
