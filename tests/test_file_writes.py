"""Every file mamimo writes goes through ``dataio.write_atomic``.

A writer of its own brings back what ``write_atomic`` rules out: a file
truncated in place, so that a failed write leaves part of a file (an
``index.csv`` without its ``# rows`` count, cut at a line boundary, loads as
a smaller data set), and files of one data set created with different modes.
So no module under ``src/mamimo/`` may open a file for writing outside
``write_atomic``. Its reader twin: ``CSI1`` is the one binary format, so no
module but ``dataio.py`` opens a file in binary read mode.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mamimo"
# calls that write a file whatever their arguments
WRITE_CALLS = {"write_text", "write_bytes", "mkstemp", "NamedTemporaryFile", "tofile", "savetxt"}
# calls that read a file's bytes whatever their arguments
READ_CALLS = {"read_bytes", "fromfile", "memmap"}


def _open_mode(call: ast.Call, owner: str | None):
    """The mode node of an ``open``/``fdopen`` call, or None if it passes none
    (read only). ``open(file, mode)``, ``io.open`` and ``os.fdopen`` take it
    second, a method such as ``Path.open(mode)`` first."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    pos = 0 if isinstance(call.func, ast.Attribute) and owner not in ("io", "os") else 1
    return call.args[pos] if len(call.args) > pos else None


def _calls(tree: ast.AST):
    """(node, name, owner) of every call of a name or attribute in ``tree``;
    ``owner`` is the name before the dot, if any."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            yield node, func.id, None
        elif isinstance(func, ast.Attribute):
            yield node, func.attr, func.value.id if isinstance(func.value, ast.Name) else None


def file_writes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, call) of every call in ``tree`` that may write a file."""
    found = []
    for node, name, owner in _calls(tree):
        if name in WRITE_CALLS or (owner == "os" and name == "open"):
            writes = True
        elif name in ("open", "fdopen"):
            mode = _open_mode(node, owner)
            read_only = (mode is None or isinstance(mode, ast.Constant)
                         and isinstance(mode.value, str) and not set(mode.value) & set("wax+"))
            writes = not read_only
        else:
            writes = False
        if writes:
            found.append((node.lineno, ast.unparse(node.func)))
    return found


def binary_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, call) of every call in ``tree`` that reads a file's bytes: an
    ``open``/``fdopen`` whose mode is a read-only binary constant, or a READ_CALL."""
    found = []
    for node, name, owner in _calls(tree):
        mode = _open_mode(node, owner) if name in ("open", "fdopen") else None
        if name in READ_CALLS or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                                  and "b" in mode.value and not set(mode.value) & set("wax+")):
            found.append((node.lineno, ast.unparse(node.func)))
    return found


@pytest.mark.parametrize("code", [
    'open(p, "w")', 'open(p, mode="ab")', 'open(p, "r+b")', "open(p, m)", 'Path(p).open("x")',
    'io.open(p, "wt")', 'os.fdopen(fd, "wb")', "os.open(p, os.O_RDONLY)", 'p.write_text("a")',
    'p.write_bytes(b"")', "tempfile.mkstemp()", "h.tofile(p)", "np.savetxt(p, h)",
])
def test_scanner_finds_a_write(code):
    assert len(file_writes(ast.parse(code))) == 1


@pytest.mark.parametrize("code", [
    "open(p)", 'open(p, "rb")', 'open(p, newline="", encoding="utf-8")', "Path(p).open()",
    'Path(p).open("rb")', 'os.fdopen(fd, "rb")', "fh.readinto(buf)", "os.fstat(fd)",
    'sock.makefile("rb")',
])
def test_scanner_passes_a_read(code):
    assert file_writes(ast.parse(code)) == []


def test_only_write_atomic_writes_files():
    offenders = []
    atomic_writes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        if path.name == "dataio.py":
            atomic = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "write_atomic")
            inside = set(range(atomic.lineno, atomic.end_lineno + 1))
        for line, call in file_writes(tree):
            (atomic_writes if line in inside else offenders).append(f"{path.name}:{line}: {call}")
    assert atomic_writes, "the scan no longer sees write_atomic's own writes"
    assert not offenders, "files written outside dataio.write_atomic"


@pytest.mark.parametrize("code", [
    'open(p, "rb")', 'open(p, mode="br")', 'Path(p).open("rb")', 'io.open(p, "rb")',
    'os.fdopen(fd, "rb")', "p.read_bytes()", 'np.fromfile(p, "<f4")', "np.memmap(p)",
])
def test_scanner_finds_a_binary_read(code):
    assert len(binary_reads(ast.parse(code))) == 1


@pytest.mark.parametrize("code", [
    "open(p)", 'open(p, "r")', 'open(p, newline="", encoding="utf-8")', 'open(p, "wb")',
    'open(p, "r+b")', "Path(p).open()", 'sock.makefile("rb")', "fh.readinto(buf)",
])
def test_scanner_passes_other_opens(code):
    assert binary_reads(ast.parse(code)) == []


def test_only_dataio_reads_binary_files():
    reads = {path.name: binary_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert reads.pop("dataio.py"), "the scan no longer sees read_sample's own read"
    offenders = [f"{name}:{line}: {call}" for name, found in reads.items() for line, call in found]
    assert not offenders, "files read in binary outside dataio.py"
