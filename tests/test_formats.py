"""graph6 and edge-list round trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from homoglab import formats
from homoglab.errors import FormatError
from homoglab.formats import (
    graph_from_edgelist,
    graph_from_graph6,
    graph_to_edgelist,
    graph_to_graph6,
)
from homoglab.graphs import Graph, complete_graph, cycle_graph
from homoglab.verify import random_graph

from conftest import graph_from_bits


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bits(n, bits)


def test_known_encodings():
    assert graph_to_graph6(complete_graph(3)) == "Bw"
    assert graph_to_graph6(cycle_graph(5)) == "Dhc"


def test_header_accepted():
    assert graph_from_graph6(">>graph6<<Bw") == complete_graph(3)


@given(graphs())
@settings(max_examples=80)
def test_graph6_round_trip(g):
    assert graph_from_graph6(graph_to_graph6(g)) == g


@given(graphs())
@settings(max_examples=40)
def test_edgelist_round_trip(g):
    assert graph_from_edgelist(graph_to_edgelist(g)) == g


def test_large_order_header_round_trip():
    g = complete_graph(70)
    assert graph_from_graph6(graph_to_graph6(g)) == g


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 100, 300])
def test_graph6_matches_networkx(n):
    # Both directions against an independent codec: the writer gives
    # networkx's text, and the reader gives networkx's graph.
    nx = pytest.importorskip("networkx")
    rng = random.Random(f"graph6/{n}")
    for density in (0.0, rng.random(), rng.random(), 1.0):
        g = random_graph(rng, n, density)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(g.edges())
        text = nx.to_graph6_bytes(reference, header=False).decode().strip()
        assert graph_to_graph6(g) == text
        read = nx.from_graph6_bytes(graph_to_graph6(g).encode())
        assert graph_from_graph6(text) == Graph(read.number_of_nodes(), read.edges()) == g


def test_edgelist_format():
    text = graph_to_edgelist(cycle_graph(3))
    assert text == "p 3\n0 1\n0 2\n1 2\n"


@pytest.mark.parametrize(
    "bad",
    ["", "B", "Bww", "p x\n0 1", "3\n0 1", "p 2\n0 2", "p 2\n0 0", "p 2\nnope"],
)
def test_malformed_inputs(bad):
    with pytest.raises(FormatError):
        if bad.startswith("p") or "\n" in bad or bad[:1].isdigit():
            graph_from_edgelist(bad)
        else:
            graph_from_graph6(bad)


@pytest.mark.parametrize(
    "text, line",
    [("p 3\n0 1 2\n1\n", "0 1 2"), ("p 3\n0\n1 2 1\n", "0"), ("p 4\n0 1 2 3\n", "0 1 2 3")],
)
def test_mispaired_edge_lines_refused(text, line):
    # Each text has an even number of tokens, so one split of the whole
    # text would pair them into edges; every line must hold two tokens.
    with pytest.raises(FormatError, match=f"^bad edge line {line!r}$"):
        graph_from_edgelist(text)


def test_seeded_edgelist_round_trip():
    # The writer's layout is read by one split; the same text with other
    # spacing and line ends is read line by line, to the same graph.
    rng = random.Random(2024)
    for n in (0, 1, 2, 7, 40, 120):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = random_graph(rng, n, density)
            text = graph_to_edgelist(g)
            assert formats._edgelist_in_writer_layout(text) is not None
            assert graph_from_edgelist(text) == graph_from_edgelist(text.rstrip("\n")) == g
            loose = "\r\n\n".join("  " + line + " \t" for line in text.splitlines())
            assert formats._edgelist_in_writer_layout(loose) is None
            assert graph_from_edgelist(loose) == g


@pytest.mark.parametrize(
    "bad",
    ["Bw>", "B>w", ">>graph6<<B\x7fw", ">>graph6<<Bw\x7f", "Bwé", "é"],
)
def test_graph6_bytes_outside_the_alphabet_rejected(bad):
    # A body byte below "?" (63), above "~" (126) after a valid header, or
    # any non-ASCII character.
    with pytest.raises(FormatError, match="outside 63..126"):
        graph_from_graph6(bad)


@pytest.mark.parametrize("text", ["~~??????", ">>graph6<<~~??????", "~~?????~Bw", "~~"])
def test_graph6_eight_byte_order_field_rejected(text):
    # "~~" opens the 8-byte order field of orders 258,048 and up.  It was
    # read as the 4-byte field, so "~~??????" was taken for order 258,048
    # and refused for its body length.
    with pytest.raises(FormatError, match=r"orders above 258047 \('~~' header\) are not supported"):
        graph_from_graph6(text)


def test_edgelist_order_cap(monkeypatch):
    # A stub stands in for Graph, so no order here allocates any vertices.
    orders = []
    monkeypatch.setattr(formats, "Graph", lambda n, edges: orders.append(n))
    graph_from_edgelist("p 258047\n0 1\n")
    assert orders == [258047]
    for order in (258048, 300000000):
        with pytest.raises(FormatError, match="exceeds the limit of 258047"):
            graph_from_edgelist(f"p {order}\n0 1\n")
    assert orders == [258047]


@given(st.text(max_size=40))
@settings(max_examples=120)
def test_graph6_decoder_never_crashes(text):
    # Arbitrary text either decodes to a graph or raises FormatError.
    try:
        g = graph_from_graph6(text)
    except FormatError:
        return
    assert graph_from_graph6(graph_to_graph6(g)) == g


@given(st.text(max_size=60))
@settings(max_examples=80)
def test_edgelist_decoder_never_crashes(text):
    try:
        g = graph_from_edgelist(text)
    except FormatError:
        return
    assert graph_from_edgelist(graph_to_edgelist(g)) == g


@pytest.mark.parametrize("fmt", ["g6", "", "GRAPH6"])
def test_unknown_format_refused_before_the_file_is_opened(tmp_path, fmt):
    target = tmp_path / "absent.txt"
    with pytest.raises(FormatError, match=f"unknown format {fmt!r}"):
        formats.read_graph(str(target), fmt)
    with pytest.raises(FormatError, match=f"unknown format {fmt!r}"):
        formats.write_graph(cycle_graph(4), str(target), fmt)
    assert not target.exists()


def test_formats_in_their_listed_order():
    assert formats.FORMATS == ("graph6", "edges")
