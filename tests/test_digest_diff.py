"""`tools/digest_diff.py` on two small synthetic perfbench records."""

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "digest_diff", ROOT / "tools" / "digest_diff.py")
digest_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_diff)

RECORD = {
    "studies": [
        {"sid": "r0.c0.0", "rc": 0, "ok": True, "digest": "aa", "ms": 1.0},
        {"sid": "r0.c0.1", "rc": 3, "ok": False, "ms": 2.0},
        {"sid": "r0.c1.0", "rc": 0, "ok": True, "digest": "bb", "ms": 3.0},
    ],
    "result": {"correct": True, "attempted": 3, "failed": 1,
               "metrics": {"studies_per_s": {"value": 1.0, "unit": "1/s"}}},
}


def _run(tmp_path, capsys, new):
    paths = []
    for name, rec in (("old.json", RECORD), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(rec))
    rc = digest_diff.main([str(p) for p in paths])
    return rc, capsys.readouterr().out.splitlines()


def test_same_studies_agree_whatever_their_timing(tmp_path, capsys):
    new = copy.deepcopy(RECORD)
    for study in new["studies"]:
        study["ms"] *= 2
    new["result"]["metrics"]["studies_per_s"]["value"] = 0.5
    assert _run(tmp_path, capsys, new) == (0, [])


def test_every_changed_study_and_total_is_listed(tmp_path, capsys):
    new = copy.deepcopy(RECORD)
    new["studies"][0]["digest"] = "cc"
    new["studies"][1].update(rc=0, ok=True, digest="dd")
    del new["studies"][2]
    new["studies"].append({"sid": "r1.c0.0", "rc": 0, "ok": True,
                           "digest": "ee", "ms": 1.0})
    new["result"].update(correct=False, failed=0)
    assert _run(tmp_path, capsys, new) == (1, [
        "r0.c0.0: digest aa -> cc",
        "r0.c0.1: rc 3 -> 0",
        "r0.c0.1: digest None -> dd",
        "r0.c1.0: only in old",
        "r1.c0.0: only in new",
        "failed: 1 -> 0",
        "correct: True -> False",
    ])


def test_unreadable_record_is_exit_2(tmp_path, capsys):
    assert digest_diff.main([str(tmp_path / "missing.json"),
                             str(tmp_path / "missing.json")]) == 2
    assert digest_diff.main([]) == 2


def _regressions(tmp_path, capsys, new):
    rc, lines = _run(tmp_path, capsys, new)
    assert rc == 1 and lines     # every change shows without the mode
    paths = [str(tmp_path / "old.json"), str(tmp_path / "new.json")]
    rc = digest_diff.main(["--regressions"] + paths)
    return rc, capsys.readouterr().out.splitlines()


def test_regressions_ignore_a_mended_study_and_new_studies(tmp_path, capsys):
    """A study that failed in the parent may change, and a study only the
    change ran is no regression."""
    new = copy.deepcopy(RECORD)
    new["studies"][1].update(rc=0, ok=True, digest="dd")
    new["studies"].append({"sid": "r1.c0.0", "rc": 0, "ok": True,
                           "digest": "ee", "ms": 1.0})
    new["result"].update(failed=0, attempted=4)
    assert _regressions(tmp_path, capsys, new) == (0, [])


def test_regressions_list_changed_ok_studies_and_more_failures(tmp_path,
                                                              capsys):
    new = copy.deepcopy(RECORD)
    new["studies"][0]["digest"] = "cc"
    new["studies"][2].update(rc=3, ok=False)
    del new["studies"][2]["digest"]
    new["result"].update(failed=2, correct=False)
    assert _regressions(tmp_path, capsys, new) == (1, [
        "r0.c0.0: digest aa -> cc",
        "r0.c1.0: rc 0 -> 3",
        "r0.c1.0: digest bb -> None",
        "failed: 1 -> 2",
    ])


def test_regressions_list_an_ok_study_that_did_not_run(tmp_path, capsys):
    new = copy.deepcopy(RECORD)
    del new["studies"][0]
    assert _regressions(tmp_path, capsys, new) == (1, ["r0.c0.0: only in old"])
