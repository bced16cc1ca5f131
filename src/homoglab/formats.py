"""Graph file formats: graph6 and a plain edge list.

graph6 is the standard 6-bit ASCII encoding (upper triangle, column major).
The edge list format is a header line ``p <n>`` followed by one ``u v``
line per edge, 0-based.
"""

from __future__ import annotations

from .errors import FormatError
from .graphs import Graph

__all__ = [
    "graph_to_graph6",
    "graph_from_graph6",
    "graph_to_edgelist",
    "graph_from_edgelist",
    "read_graph",
    "write_graph",
    "FORMATS",
]

_G6_HEADER = ">>graph6<<"

# The six bits, high bit first, of each graph6 body character.
_G6_BITS = {c + 63: f"{c:06b}" for c in range(64)}

# Largest order of the 4-byte graph6 order field, and so the largest order
# the graph6 writer encodes and the reader accepts; the edge-list reader
# rejects anything above it before a single vertex is allocated.
_MAX_ORDER = 258047


def graph_to_graph6(g: Graph) -> str:
    n = g.n
    if n > _MAX_ORDER:
        raise FormatError(f"graph6 writer supports at most {_MAX_ORDER} vertices")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    # The body lists column j (the bits of mask j below j, vertex 0 first)
    # for j = 1..n-1, padded with zeros to 6-bit characters, high bit first.
    bits = "".join(f"{g.masks[j]:0{n}b}"[::-1][:j] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise FormatError("empty graph6 input")
    if s.startswith("~~"):  # the 8-byte order field, for orders above _MAX_ORDER
        raise FormatError(f"graph6 orders above {_MAX_ORDER} ('~~' header) are not supported")
    if min(s) < "?" or max(s) > "~":
        raise FormatError("graph6 input contains bytes outside 63..126")
    if s[0] == "~":
        if len(s) < 4:
            raise FormatError("truncated graph6 order field")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError(
            f"graph6 body length {len(body)} does not match order {n}"
        )
    # Column j is the next j body bits, vertex 0 first.  Reversed once, the
    # body lists the columns from the end, each with vertex 0 last, so
    # column j is the j bits ending where column j - 1 begins, read as a
    # binary number.  Each member of column j also gains j in its own
    # mask.  Padding bits are ignored.
    bits = body.translate(_G6_BITS)[::-1]
    masks = [0] * n
    end = len(bits)
    for j in range(1, n):
        col = int(bits[end - j : end], 2)
        end -= j
        masks[j] |= col
        bit = 1 << j
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= bit
            col ^= low
    return Graph._of(tuple(masks))


def graph_to_edgelist(g: Graph) -> str:
    lines = [f"p {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _edgelist_in_writer_layout(text: str):
    """The order and edges of a text laid out as graph_to_edgelist writes
    it, from one split of the whole text; None for any other text.

    The text must equal its tokens joined in pairs, one space inside each
    line and one newline after each but perhaps the last, so every line
    holds exactly two tokens: a line of three tokens beside a line of one
    is refused, where the split alone would pair them silently.  A header
    other than 'p <n>', an order above the cap or a token int refuses is
    left to the line walk, which names it.
    """
    tokens = text.split()
    it = iter(tokens)
    joined = "\n".join(map(" ".join, zip(it, it)))
    if tokens[:1] != ["p"] or text not in (joined, joined + "\n"):
        return None
    try:
        n = int(tokens[1])
        ends = list(map(int, tokens[2:]))
    except ValueError:
        return None
    if n > _MAX_ORDER:
        return None
    return n, zip(ends[0::2], ends[1::2])


def _edgelist_by_lines(text: str):
    """The order and edges of an edge list, read line by line; raises
    FormatError at the first line that is not a 'p <n>' header or an edge."""
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            tokens.append(line.split())
    if not tokens:
        raise FormatError("empty edge-list input")
    header = tokens[0]
    if len(header) != 2 or header[0] != "p":
        raise FormatError("edge list must start with a 'p <n>' header")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise FormatError(f"bad order {header[1]!r} in edge-list header") from exc
    if n > _MAX_ORDER:
        raise FormatError(f"edge-list order {n} exceeds the limit of {_MAX_ORDER}")
    edges = []
    for parts in tokens[1:]:
        if len(parts) != 2:
            raise FormatError(f"bad edge line {' '.join(parts)!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {' '.join(parts)!r}") from exc
        edges.append((u, v))
    return n, edges


def graph_from_edgelist(text: str) -> Graph:
    """Read an edge list.  Text in the writer's layout takes one split;
    any other text is walked line by line, which gives the same graph or
    names the first bad line."""
    n, edges = _edgelist_in_writer_layout(text) or _edgelist_by_lines(text)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# Format name -> (reader, writer) of a file's whole text.
_CODECS = {
    "graph6": (graph_from_graph6, lambda g: graph_to_graph6(g) + "\n"),
    "edges": (graph_from_edgelist, graph_to_edgelist),
}
FORMATS = tuple(_CODECS)


def _codec(fmt: str):
    # Tuple membership compares by ==, so an unhashable fmt is refused too.
    if fmt not in FORMATS:
        raise FormatError(f"unknown format {fmt!r}")
    return _CODECS[fmt]


def read_graph(path: str, fmt: str = "graph6") -> Graph:
    reader = _codec(fmt)[0]
    with open(path, "r", encoding="ascii") as fh:
        return reader(fh.read())


def write_graph(g: Graph, path: str, fmt: str = "graph6") -> None:
    text = _codec(fmt)[1](g)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
