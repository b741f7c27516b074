"""Analysis layer: report formatting and table/figure regeneration."""

import pytest

from repro.analysis.report import ComparisonTable, fmt_count, fmt_pct
from repro.analysis import figures, tables
from repro.discovery.periphery import discover
from repro.discovery.vendor_id import VendorIdentifier
from repro.loop.casestudy import CASE_STUDY_ROUTERS, run_case_study
from repro.loop.detector import find_loops
from repro.services.zgrab import AppScanner


class TestReportFormatting:
    def test_fmt_count(self):
        assert fmt_count(52_478_703) == "52.5M"
        assert fmt_count(741_027) == "741.0k"
        assert fmt_count(994) == "994"

    def test_fmt_pct(self):
        assert fmt_pct(77.2) == "77.2%"
        assert fmt_pct(0.123, digits=2) == "0.12%"

    def test_comparison_table_renders(self):
        table = ComparisonTable("T", ("a", "bb"))
        table.add(1, "x")
        table.note("footnote")
        text = table.render()
        assert "T" in text and "bb" in text and "footnote" in text

    def test_rejects_ragged_rows(self):
        table = ComparisonTable("T", ("a", "b"))
        with pytest.raises(ValueError):
            table.add(1)


@pytest.fixture(scope="module")
def pipeline(cn_mobile_deployment):
    """Census + app scan + loops for one block, shared across table tests."""
    dep = cn_mobile_deployment
    isp = dep.isps["cn-mobile-broadband"]
    census = discover(dep.network, dep.vantage, isp.scan_spec, seed=3)
    app = AppScanner(dep.network, dep.vantage).scan(census.last_hop_addresses())
    loops = find_loops(dep.network, dep.vantage, isp.scan_spec, seed=5)
    identified = VendorIdentifier(dep.catalog).identify(
        census.records, app.observations
    )
    return dep, isp, census, app, loops, identified


class TestTables:
    def test_table2(self, pipeline):
        _dep, isp, census, *_ = pipeline
        table = tables.table2_periphery({isp.profile.key: census}, 20_000)
        text = table.render()
        assert "Mobile" in text
        assert "Total" in text

    def test_table3(self, pipeline):
        *_, census, _app, _loops, _id = pipeline[1:]
        table = tables.table3_iid([r.last_hop for r in census.records])
        text = table.render()
        assert "EUI-64" in text and "Randomized" in text

    def test_table4(self, pipeline):
        *_, identified = pipeline
        table = tables.table4_vendors(identified, 20_000)
        text = table.render()
        assert "China Mobile" in text

    def test_table5(self, pipeline):
        _dep, _isp, _census, app, _loops, _id = pipeline
        table = tables.table5_service_iid(sorted(app.alive_targets()))
        assert "Table V" in table.render()

    def test_table7(self, pipeline):
        _dep, isp, census, app, _loops, _id = pipeline
        table = tables.table7_services(
            {isp.profile.key: app}, {isp.profile.key: census.n_unique}, 20_000
        )
        assert "DNS" in table.render()

    def test_table8(self, pipeline):
        _dep, _isp, _census, app, _loops, _id = pipeline
        table = tables.table8_software([app], 20_000)
        text = table.render()
        assert "dnsmasq" in text
        assert "Jetty" in text

    def test_table10_11(self, pipeline):
        _dep, isp, _census, _app, loops, _id = pipeline
        t10 = tables.table10_loop_iid([r.last_hop for r in loops.records])
        assert "Low-byte" in t10.render()
        t11 = tables.table11_loops({isp.profile.key: loops}, 20_000)
        assert "Total" in t11.render()

    def test_table12(self):
        results = run_case_study(CASE_STUDY_ROUTERS[:12])
        table = tables.table12_case_study(results)
        text = table.render()
        assert "GT-AC5300" in text
        assert "WS5100" in text

    def test_iid_table_percentages_sum(self, pipeline):
        *_, census, _app, _loops, _id = pipeline[1:]
        counts_table = tables.table3_iid([r.last_hop for r in census.records])
        # last row is the total at 100%
        assert counts_table.rows[-1][2] == "100.0%"


class TestFigures:
    def test_vendor_service_matrix_and_fig2(self, pipeline):
        _dep, _isp, _census, app, _loops, identified = pipeline
        matrix = figures.vendor_service_matrix(identified, app.observations)
        assert matrix, "matrix should not be empty"
        fig2 = figures.figure2_top_vendors(matrix)
        text = fig2.render()
        assert "China Mobile" in text

    def test_fig3(self, pipeline):
        _dep, _isp, _census, app, _loops, identified = pipeline
        matrix = figures.vendor_service_matrix(identified, app.observations)
        fig3 = figures.figure3_service_vendors(matrix)
        assert "HTTP/8080" in fig3.render()

    def test_fig5_with_synthetic_bgp(self):
        from repro.bgp.table import BgpPrefixInfo, BgpTable
        from repro.net.addr import IPv6Addr, IPv6Prefix

        table = BgpTable()
        table.add(BgpPrefixInfo(IPv6Prefix.from_string("2a00::/32"), 100, "BR"))
        table.add(BgpPrefixInfo(IPv6Prefix.from_string("2a01::/32"), 200, "CN"))
        addrs = (
            [IPv6Addr.from_string("2a00::1")] * 3
            + [IPv6Addr.from_string("2a01::1")] * 1
            + [IPv6Addr.from_string("2400::1")]  # not in the table: skipped
        )
        asn_table, country_table = figures.figure5_loop_asn_country(addrs, table)
        asn_text = asn_table.render()
        assert "AS100" in asn_text
        assert asn_table.rows[0][1] == "AS100"  # ranked first
        assert country_table.rows[0][1] == "BR"

    def test_empty_iid_table(self):
        table = tables.table3_iid([])
        assert "Total" in table.render()

    def test_empty_vendor_matrix_fig2(self):
        fig = figures.figure2_top_vendors({})
        assert "Figure 2" in fig.render()

    def test_fig6(self, pipeline):
        _dep, isp, _census, _app, loops, identified = pipeline
        vendor_of = {d.last_hop.value: d.vendor for d in identified}
        per_isp = {"AS9808": {}}
        for record in loops.records:
            vendor = vendor_of.get(record.last_hop.value)
            if vendor:
                per_isp["AS9808"][vendor] = per_isp["AS9808"].get(vendor, 0) + 1
        fig6 = figures.figure6_loop_vendors(per_isp)
        assert "loop devices" in fig6.render()
