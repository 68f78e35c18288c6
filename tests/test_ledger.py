"""The output ledger (tests/ledger.py): every command line prints what
tests/ledger.txt holds, byte for byte, with the same exit code."""

import ledger
import test_command_sweep as sweep


def test_the_ledger_holds_every_line_in_order():
    assert list(ledger.read()) == ledger.LINES


def test_the_ledger_runs_every_leaf_command():
    for words in sweep.leaves():
        for json in ("", " --json"):
            line = f"{' '.join(words)} {sweep.SWEEP[words]}{json}"
            assert line in ledger.LINES, line


def test_every_command_prints_what_the_ledger_holds(tmp_path):
    want = ledger.read()
    changed = []
    for line in ledger.LINES:
        runs = ledger.replay(line, str(tmp_path))
        changed += [f"{line} ({kind} run): {got} != {want[line]}"
                    for kind, got in zip(("cold", "warm"), runs)
                    if got != want[line]]
    assert not changed, "\n".join(changed)
