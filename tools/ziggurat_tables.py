"""Write ``src/pfol/_ziggurat.py``: numpy's 256-layer normal ziggurat tables.

numpy's ``Generator.standard_normal`` runs the Marsaglia & Tsang (2000)
ziggurat on three static tables, ``ki_double`` (uint64 acceptance bounds),
``wi_double`` (layer widths) and ``fi_double`` (the density at each layer's
edge, for the wedge test). They ship inside numpy as the ``.rodata`` of
member ``src_distributions_distributions.c.o`` of the installed static
library ``numpy/random/lib/libnpyrandom.a``. This script reads them from
there by symbol name (a plain ar archive and ELF64 object parser, no tools
beyond Python and numpy) and writes them as exact literals: integers and
``float.hex`` strings. The tail's two constants are inlined in numpy's code,
not stored under a symbol, so they are written from numpy's source literals.

Run from the repository root::

    python tools/ziggurat_tables.py            # rewrite src/pfol/_ziggurat.py
    python tools/ziggurat_tables.py --check    # exit 1 if the committed file differs
"""

from __future__ import annotations

import argparse
import pathlib
import struct
import sys

import numpy as np

MEMBER = "src_distributions_distributions.c.o"
OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "pfol" / "_ziggurat.py"


def archive_path() -> pathlib.Path:
    return pathlib.Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def ar_member(data: bytes, name: str) -> bytes:
    """Bytes of member ``name`` of a System V / GNU ar archive."""
    if data[:8] != b"!<arch>\n":
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(data):
        header = data[pos:pos + 60]
        raw, size = header[:16].decode().rstrip(), int(header[48:58])
        body = data[pos + 60:pos + 60 + size]
        pos += 60 + size + (size & 1)
        if raw == "//":
            long_names = body
            continue
        if raw.startswith("/") and raw[1:].isdigit():
            start = int(raw[1:])
            raw = long_names[start:long_names.index(b"\n", start)].decode()
        if raw.rstrip("/") == name:
            return body
    raise KeyError(f"no member {name!r} in the archive")


def elf_symbol(obj: bytes, symbol: str) -> tuple[str, bytes]:
    """(section name, bytes) of a sized symbol in a little-endian ELF64 relocatable object."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise ValueError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", obj, 0x3A)
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize) for i in range(shnum)]

    def name_at(table: int, offset: int) -> str:
        start = sections[table][4] + offset
        return obj[start:obj.index(b"\0", start)].decode()

    for sec in sections:
        if sec[1] != 2:  # SHT_SYMTAB
            continue
        _, _, _, _, sym_off, sym_size, strtab, _, _, entsize = sec
        for at in range(sym_off, sym_off + sym_size, entsize):
            st_name, _, _, st_shndx, st_value, st_size = struct.unpack_from("<IBBHQQ", obj, at)
            if name_at(strtab, st_name) == symbol:
                home = sections[st_shndx]
                start = home[4] + st_value
                return name_at(shstrndx, home[0]), obj[start:start + st_size]
    raise KeyError(f"no symbol {symbol!r} in the object")


def read_tables(archive: pathlib.Path) -> tuple[list[int], list[float], list[float]]:
    obj = ar_member(archive.read_bytes(), MEMBER)
    tables = {}
    for symbol, fmt in (("ki_double", "<256Q"), ("wi_double", "<256d"), ("fi_double", "<256d")):
        section, raw = elf_symbol(obj, symbol)
        if section != ".rodata" or len(raw) != 2048:
            raise ValueError(f"{symbol}: {len(raw)} bytes in {section}, expected 2048 in .rodata")
        tables[symbol] = list(struct.unpack(fmt, raw))
    return tables["ki_double"], tables["wi_double"], tables["fi_double"]


def _hex_lines(values: list[float]) -> str:
    return "\n".join("    " + " ".join(f'"{v.hex()}",' for v in values[i:i + 3]) for i in range(0, 256, 3))


def render(ki: list[int], wi: list[float], fi: list[float]) -> str:
    ki_lines = "\n".join("    " + " ".join(f"{v:#015x}," for v in ki[i:i + 4]) for i in range(0, 256, 4))
    return f'''"""numpy's normal ziggurat tables ``ki_double``, ``wi_double`` and ``fi_double`` (numpy {np.__version__}).

Written by ``tools/ziggurat_tables.py`` from the ``.rodata`` of member
``{MEMBER}`` of numpy's ``numpy/random/lib/libnpyrandom.a``;
do not edit. Layer i of a 64-bit draw w (i = w & 0xff) accepts
r = (w >> 9) & (2^52 - 1) when r < KI[i], with the value x = +-r * WI[i].
Otherwise layer 0 draws from the tail beyond R, with INV_R = 1 / R, and
layer i > 0 accepts x when FI[i] + (FI[i - 1] - FI[i]) * u < exp(-x * x / 2)
for the next uniform u.
"""

import numpy as np

KI = np.array([
{ki_lines}
], dtype=np.uint64)

WI = np.array([float.fromhex(h) for h in (
{_hex_lines(wi)}
)])

FI = np.array([float.fromhex(h) for h in (
{_hex_lines(fi)}
)])

R = 3.6541528853610087963519472518  # ziggurat_nor_r
INV_R = 0.27366123732975827203338247596  # ziggurat_nor_inv_r
'''


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed file instead of writing it")
    args = parser.parse_args(argv)
    text = render(*read_tables(archive_path()))
    if args.check:
        same = OUT.read_text() == text
        print(f"{OUT.name}: {'matches' if same else 'DIFFERS from'} numpy {np.__version__}")
        return 0 if same else 1
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
