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
        {"sid": "r0.c0.1", "rc": 3, "ok": False, "ms": 2.0,
         "reason": "exit 3: error: diverged"},
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
    del new["studies"][1]["reason"]
    del new["studies"][2]
    new["studies"].append({"sid": "r1.c0.0", "rc": 0, "ok": True,
                           "digest": "ee", "ms": 1.0})
    new["result"].update(correct=False, failed=0)
    assert _run(tmp_path, capsys, new) == (1, [
        "r0.c0.0: digest aa -> cc",
        "r0.c0.1: rc 3 -> 0",
        "r0.c0.1: digest None -> dd",
        "r0.c0.1: reason exit 3: error: diverged -> None",
        "r0.c1.0: only in old",
        "r1.c0.0: only in new",
        "failed: 1 -> 0",
        "correct: True -> False",
    ])


def test_a_failed_study_keeps_its_reason(tmp_path, capsys):
    """Same exit codes and the same messages: a failure's `error:` line is
    compared, and a study that failed in both records is listed when its
    line changes."""
    new = copy.deepcopy(RECORD)
    new["studies"][1]["reason"] = "exit 3: error: not converged"
    new["studies"][2].update(rc=2, ok=False, reason="exit 2: error: bad")
    del new["studies"][2]["digest"]
    new["result"].update(failed=2)
    assert _run(tmp_path, capsys, new) == (1, [
        "r0.c0.1: reason exit 3: error: diverged -> exit 3: error: not "
        "converged",
        "r0.c1.0: rc 0 -> 2",
        "r0.c1.0: digest bb -> None",
        "r0.c1.0: reason None -> exit 2: error: bad",
        "failed: 1 -> 2",
    ])


def test_a_traceback_reason_is_not_compared(tmp_path, capsys):
    """A study whose run raised has rc None and a traceback for a reason:
    the traceback's line numbers change with any edit of the code."""
    old = copy.deepcopy(RECORD)
    old["studies"][1].update(rc=None, reason="exit None: Traceback (line 1)")
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    new = copy.deepcopy(old)
    new["studies"][1]["reason"] = "exit None: Traceback (line 2)"
    for path, rec in zip(paths, (old, new)):
        path.write_text(json.dumps(rec))
    assert digest_diff.main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out == ""


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
    del new["studies"][1]["reason"]
    new["studies"].append({"sid": "r1.c0.0", "rc": 0, "ok": True,
                           "digest": "ee", "ms": 1.0})
    new["result"].update(failed=0, attempted=4)
    assert _regressions(tmp_path, capsys, new) == (0, [])


def test_regressions_ignore_a_failed_study_whose_reason_changes(tmp_path,
                                                               capsys):
    new = copy.deepcopy(RECORD)
    new["studies"][1]["reason"] = "exit 3: error: not converged"
    assert _regressions(tmp_path, capsys, new) == (0, [])


def test_regressions_list_changed_ok_studies_and_more_failures(tmp_path,
                                                              capsys):
    new = copy.deepcopy(RECORD)
    new["studies"][0]["digest"] = "cc"
    new["studies"][2].update(rc=3, ok=False, reason="exit 3: error: bad")
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
