"""Every output of the CLI on the seeded corpus is what the committed
manifest pins (see output_manifest.py)."""
import output_manifest


def test_outputs_match_the_manifest(tmp_path):
    want = output_manifest.read()
    got = output_manifest.compute(tmp_path)
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing = sorted(want.keys() - got.keys())
    added = sorted(got.keys() - want.keys())
    assert not (changed or missing or added), (
        f"outputs differ from tests/output_manifest.txt; changed: {changed}, "
        f"no longer produced: {missing}, new: {added}.  A declared output change "
        f"regenerates it with `PYTHONPATH=src python tests/output_manifest.py`.")
