"""Run the README's CLI walkthrough at small scale under a line tracer and
print, for each function of ``src/recoverylab``, the lines no command
reached.

Every command goes through ``recoverylab.cli.main`` in one process, in a
temporary directory, with 15 training steps per stage: gen-nominal,
gen-recovery (plain and ``--pure-failure``), train-value, label, train-rai
(plain and ``--no-history-reset``), train-vcr, eval (6 seeds, 1 seed under
E3, and clean mode), report, stats, collect-induced, scaling and one
ablate.  ``sys.settrace`` records the lines run in files under
``src/recoverylab``.  The run took about 3 s on a shared 2-core VM.
Usage, from a checkout:

    python tools/traffic.py

A line listed is one the walkthrough never reaches, not dead code: tests
and the Python API reach some of them.  Exits 1 if a command fails.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "recoverylab"


def walkthrough(root: Path) -> list[list[str]]:
    """The commands, in order, writing under ``root``."""
    d = {name: str(root / name) for name in ("expert", "rec", "fail", "lab-expert", "lab-rec", "lab-fail",
                                             "induced", "reports", "suites")}
    ckpt = {name: str(root / f"{name}.json") for name in ("value", "phase1", "raw", "full")}
    config = root / "small.cfg"
    config.write_text("bc_steps = 15\nrefine_steps = 15\nalign_steps = 15\n")
    c = ["--config", str(config)]
    evaluate = ["eval", *c, "--policy", ckpt["full"], "--expert-data", d["expert"], "--seed", "100000",
                "--out", d["reports"]]
    suite = [*c, "--expert-n", "4", "--rec-base", "1", "--failures-n", "1", "--trials", "2", "--out", d["suites"]]
    return [
        ["gen-nominal", *c, "--n", "8", "--seed", "0", "--out", d["expert"]],
        ["gen-recovery", *c, "--error", "E2", "--n", "3", "--seed", "10000", "--out", d["rec"]],
        ["gen-recovery", *c, "--error", "E2", "--n", "2", "--seed", "70000", "--pure-failure", "--out", d["fail"]],
        ["train-value", *c, "--data", d["expert"], "--out", ckpt["value"]],
        ["label", *c, "--data", d["expert"], "--value", ckpt["value"], "--out", d["lab-expert"]],
        ["label", *c, "--data", d["rec"], "--value", ckpt["value"], "--out", d["lab-rec"]],
        ["label", *c, "--data", d["fail"], "--value", ckpt["value"], "--out", d["lab-fail"]],
        ["train-rai", *c, "--expert", d["expert"], "--recovery", d["rec"], "--out", ckpt["phase1"]],
        ["train-rai", *c, "--expert", d["expert"], "--recovery", d["rec"], "--no-history-reset",
         "--out", ckpt["raw"]],
        ["train-vcr", *c, "--data", ",".join([d["lab-expert"], d["lab-rec"], d["lab-fail"]]),
         "--init", ckpt["phase1"], "--out", ckpt["full"]],
        [*evaluate, "--trials", "6", "--name", "standard"],
        [*evaluate, "--trials", "1", "--error", "E3", "--name", "e3"],
        [*evaluate, "--trials", "2", "--mode", "clean", "--name", "clean"],
        ["report", "--in", str(Path(d["reports"]) / "standard.json"), "--out", d["reports"]],
        ["stats", "--data", d["rec"]],
        ["collect-induced", *c, "--policy", ckpt["phase1"], "--n", "2", "--seed", "40000",
         "--expert-data", d["expert"], "--out", d["induced"]],
        ["scaling", *suite],
        ["ablate", "--which", "history-reset", *suite],
    ]


def trace(reached: dict[tuple, set[int]]):
    """A ``sys.settrace`` function that adds each line run in a file under
    ``SRC`` to ``reached[(file name, qualified name, first line)]``."""
    src = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            reached.setdefault((code.co_filename, code.co_qualname, code.co_firstlineno), set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    return call


def functions(path: Path):
    """Every function code object compiled from ``path``, nested ones too."""
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
        if code.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a module or class body
            yield code


def ranges(lines: list[int]) -> str:
    """``lines``, sorted, as comma-separated runs such as ``3-5, 9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    reached: dict[tuple, set[int]] = {}
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        commands = walkthrough(Path(tmp))
        sys.path.insert(0, str(SRC.parent))  # this checkout's package, traced from its import on
        sys.settrace(trace(reached))
        try:
            from recoverylab.cli import main as cli_main

            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli_main(argv) != 0:
                        failed.append(argv[0])
        finally:
            sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        for code in sorted(functions(path), key=lambda code: code.co_firstlineno):
            lines = {line for _, _, line in code.co_lines() if line is not None and line != code.co_firstlineno}
            seen = reached.get((str(path), code.co_qualname, code.co_firstlineno))
            missed = sorted(lines - (seen or set()))
            if missed:
                where = "never run" if seen is None else ranges(missed)
                print(f"{path.name}:{code.co_firstlineno} {code.co_qualname}: {where}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
