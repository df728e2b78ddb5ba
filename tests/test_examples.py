"""The examples that carry the covert-channel and keylogging demos run.

``examples/quickstart.py`` is the covert link with ECC end to end, and
``examples/keylogger.py`` the Section V attack including its live
(streaming) latency report; both are loaded from their files and their
``main()`` output is checked.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _run_main(name, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name))["main"]()
    return capsys.readouterr().out


def test_quickstart_exfiltrates_the_secret(capsys):
    out = _run_main("quickstart.py", capsys)
    assert "received    : b'launch code: 0000'" in out
    assert "secret exfiltrated successfully" in out


def test_keylogger_reports_timeline_and_live_latency(capsys):
    out = _run_main("keylogger.py", capsys)
    assert "recovered word lengths" in out
    assert "online event(s), detection latency mean=" in out
