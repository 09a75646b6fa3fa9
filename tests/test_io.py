"""Tests for hMETIS / JSON netlist I/O."""

import pytest

from repro.errors import ParseError
from repro.hypergraph import (Hypergraph, assert_same_structure,
                              hierarchical_circuit, netlist_from_dict,
                              netlist_to_dict, read_are, read_hmetis,
                              read_json, read_netd, write_hmetis,
                              write_json)
from repro.hypergraph import io as netlist_io
from repro.service import PartitionRequest, inline_netlist, netlist_digest


class TestHmetisRead:
    def test_unweighted(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("3 4\n1 2\n2 3 4\n1 4\n")
        hg = read_hmetis(path)
        assert hg.num_nets == 3
        assert hg.num_modules == 4
        assert hg.pins(1) == (1, 2, 3)
        assert hg.is_unit_area()

    def test_weighted_nets(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("2 3 1\n5 1 2\n7 2 3\n")
        hg = read_hmetis(path)
        assert hg.net_weight(0) == 5
        assert hg.net_weight(1) == 7

    def test_weighted_modules(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("1 2 10\n1 2\n3\n4\n")
        hg = read_hmetis(path)
        assert hg.area(0) == 3.0
        assert hg.area(1) == 4.0

    def test_fully_weighted(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("1 2 11\n9 1 2\n2\n5\n")
        hg = read_hmetis(path)
        assert hg.net_weight(0) == 9
        assert hg.area(1) == 5.0

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("% comment\n\n2 2\n% another\n1 2\n\n2 1\n")
        hg = read_hmetis(path)
        assert hg.num_nets == 2

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mycirc.hgr"
        path.write_text("1 2\n1 2\n")
        assert read_hmetis(path).name == "mycirc"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_hmetis(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("2\n")
        with pytest.raises(ParseError, match="header"):
            read_hmetis(path)

    def test_bad_fmt_code(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("1 2 7\n1 2\n")
        with pytest.raises(ParseError, match="fmt"):
            read_hmetis(path)

    def test_pin_out_of_range(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("1 2\n1 3\n")
        with pytest.raises(ParseError, match="out of range"):
            read_hmetis(path)

    def test_truncated_nets(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("2 3\n1 2\n")
        with pytest.raises(ParseError, match="expected 2 net lines"):
            read_hmetis(path)

    def test_non_integer_pin(self, tmp_path):
        path = tmp_path / "c.hgr"
        path.write_text("1 2\n1 x\n")
        with pytest.raises(ParseError, match="non-integer"):
            read_hmetis(path)


class TestRoundtrips:
    def test_hmetis_roundtrip_plain(self, tmp_path, tiny_hg):
        path = tmp_path / "t.hgr"
        write_hmetis(tiny_hg, path)
        assert_same_structure(tiny_hg, read_hmetis(path))

    def test_hmetis_roundtrip_weighted(self, tmp_path, weighted_hg):
        path = tmp_path / "w.hgr"
        write_hmetis(weighted_hg, path)
        assert_same_structure(weighted_hg, read_hmetis(path))

    def test_hmetis_roundtrip_generated(self, tmp_path):
        hg = hierarchical_circuit(150, 180, seed=6)
        path = tmp_path / "g.hgr"
        write_hmetis(hg, path)
        assert_same_structure(hg, read_hmetis(path))

    def test_json_roundtrip(self, tmp_path, weighted_hg):
        path = tmp_path / "w.json"
        write_json(weighted_hg, path)
        loaded = read_json(path)
        assert_same_structure(weighted_hg, loaded)
        assert loaded.name == "weighted"

    @pytest.mark.parametrize("fixture, text, digest, request_key", [
        ("tiny_hg",
         '{"name": "tiny", "num_modules": 6, "nets": [[0, 1], [1, 2], '
         '[0, 2], [3, 4], [4, 5], [3, 5], [2, 3]], "areas": [1.0, 1.0, '
         '1.0, 1.0, 1.0, 1.0], "net_weights": [1, 1, 1, 1, 1, 1, 1]}',
         "fc5af839c36d75f0183573ae1a8ed55f",
         "aef6e0a64a1844fe380401b924128632"),
        ("weighted_hg",
         '{"name": "weighted", "num_modules": 4, "nets": [[0, 1], '
         '[1, 2, 3], [0, 3]], "areas": [1.0, 2.0, 3.0, 4.0], '
         '"net_weights": [2, 1, 3]}',
         "5175dbba4c6748c11e3a623e9e6937e6",
         "ce216a21a6731465c95180b707824e6d"),
    ], ids=["tiny", "weighted"])
    def test_netlist_dict_is_pinned(self, tmp_path, request, fixture, text,
                                    digest, request_key):
        # write_json, the netlist digest and the inline request key all
        # come from netlist_to_dict; their bytes are pinned.
        hg = request.getfixturevalue(fixture)
        path = tmp_path / "n.json"
        write_json(hg, path)
        assert path.read_text() == text
        assert netlist_digest(hg) == digest
        assert inline_netlist(hg) == netlist_to_dict(hg)
        body = {"netlist": {"inline": inline_netlist(hg)},
                "algorithm": "mlc", "runs": 2, "seed": 3}
        assert PartitionRequest.from_json(body).request_key() == request_key
        assert netlist_from_dict(netlist_to_dict(hg)) == hg

    def test_json_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nets": [[0, 1]]}')
        with pytest.raises(ParseError, match="num_modules"):
            read_json(path)

    def test_json_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_json(path)


_NETD = """\
0
4
2
3
0
a0 s B
a1 l B
a1 s B
a2 l B
"""


class TestNetdNegative:
    """Malformed netD inputs must surface as ParseError, never as a
    raw KeyError/ValueError from deep inside the builder."""

    def _write(self, tmp_path, text):
        path = tmp_path / "c.netD"
        path.write_text(text)
        return path

    def test_valid_baseline_parses(self, tmp_path):
        hg = read_netd(self._write(tmp_path, _NETD))
        assert hg.num_modules == 3
        assert hg.num_nets == 2

    def test_too_few_header_lines(self, tmp_path):
        with pytest.raises(ParseError, match="5 header lines"):
            read_netd(self._write(tmp_path, "0\n4\n2\n"))

    def test_non_integer_header(self, tmp_path):
        bad = _NETD.replace("\n4\n", "\nx\n", 1)
        with pytest.raises(ParseError, match="non-integer header"):
            read_netd(self._write(tmp_path, bad))

    def test_bad_pin_marker(self, tmp_path):
        bad = _NETD.replace("a1 l B", "a1 x B", 1)
        with pytest.raises(ParseError, match="marker"):
            read_netd(self._write(tmp_path, bad))

    def test_missing_marker_column(self, tmp_path):
        bad = _NETD.replace("a1 l B", "a1", 1)
        with pytest.raises(ParseError, match="expected '<name> <s"):
            read_netd(self._write(tmp_path, bad))

    def test_continuation_before_any_net(self, tmp_path):
        bad = _NETD.replace("a0 s B", "a0 l B", 1)
        with pytest.raises(ParseError, match="continuation pin"):
            read_netd(self._write(tmp_path, bad))

    def test_pin_count_mismatch(self, tmp_path):
        bad = _NETD.replace("\n4\n", "\n5\n", 1)
        with pytest.raises(ParseError, match="5 pins"):
            read_netd(self._write(tmp_path, bad))

    def test_net_count_mismatch(self, tmp_path):
        bad = _NETD.replace("\n2\n3\n", "\n3\n3\n", 1)
        with pytest.raises(ParseError, match="declares 3 nets"):
            read_netd(self._write(tmp_path, bad))

    def test_module_count_exceeded(self, tmp_path):
        bad = _NETD.replace("\n3\n0\n", "\n2\n0\n", 1)
        with pytest.raises(ParseError, match="declares 2 modules"):
            read_netd(self._write(tmp_path, bad))


class TestAreNegative:
    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "c.are"
        path.write_text("a0 1 extra\n")
        with pytest.raises(ParseError, match="<name> <area>"):
            read_are(path)

    def test_non_numeric_area(self, tmp_path):
        path = tmp_path / "c.are"
        path.write_text("a0 big\n")
        with pytest.raises(ParseError, match="non-numeric"):
            read_are(path)

    def test_non_positive_area(self, tmp_path):
        path = tmp_path / "c.are"
        path.write_text("a0 0\n")
        with pytest.raises(ParseError, match="non-positive"):
            read_are(path)


class TestJsonNegative:
    """read_json wraps *every* malformed-input failure as ParseError —
    the CLI error contract for this format matches hMETIS and netD."""

    def _write(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        return path

    def test_syntax_error_carries_line_number(self, tmp_path):
        path = self._write(tmp_path,
                           '{\n  "num_modules": 2,\n  nope\n}')
        with pytest.raises(ParseError, match="line 3") as excinfo:
            read_json(path)
        assert excinfo.value.line == 3

    def test_non_object_top_level(self, tmp_path):
        with pytest.raises(ParseError, match="must be an object"):
            read_json(self._write(tmp_path, "[1, 2, 3]"))

    def test_nets_not_a_list(self, tmp_path):
        path = self._write(tmp_path, '{"num_modules": 2, "nets": 5}')
        with pytest.raises(ParseError, match="malformed netlist JSON"):
            read_json(path)

    @pytest.mark.parametrize("data", [
        {"nets": [[0, 1]], "num_modules": 10 ** 9},
        {"nets": [[0, 1], [1, 2]], "num_modules": 5},
        {"nets": [[0, 1]], "num_modules": "2"},
        {"nets": [[0, 1]], "num_modules": True},
        {"nets": [[0, 1]], "num_modules": 2.0},
    ], ids=["huge", "beyond-pins", "string", "bool", "float"])
    def test_module_count_refused_before_construction(self, monkeypatch,
                                                      data):
        # The constructor allocates per-module lists before it checks
        # anything; a spy in its place shows the refusal comes first.
        def constructor(*args, **kwargs):
            raise AssertionError("the Hypergraph constructor was reached")
        monkeypatch.setattr(netlist_io, "Hypergraph", constructor)
        with pytest.raises(ParseError, match="num_modules"):
            netlist_from_dict(data)

    def test_modules_on_no_net_need_areas(self):
        hg = netlist_from_dict({"nets": [[0, 1]], "num_modules": 3,
                                "areas": [1.0, 2.0, 3.0]})
        assert (hg.num_modules, hg.num_nets) == (3, 1)
        # Up to one module per listed pin needs no areas.
        assert netlist_from_dict({"nets": [[0, 1]],
                                  "num_modules": 2}).num_modules == 2

    def test_pin_out_of_range(self, tmp_path):
        path = self._write(tmp_path,
                           '{"num_modules": 2, "nets": [[0, 5]]}')
        with pytest.raises(ParseError):
            read_json(path)

    def test_mismatched_weight_vector(self, tmp_path):
        path = self._write(
            tmp_path,
            '{"num_modules": 2, "nets": [[0, 1]], "net_weights": [1, 2]}')
        with pytest.raises(ParseError):
            read_json(path)
