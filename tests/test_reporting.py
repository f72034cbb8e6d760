from __future__ import annotations

import dataclasses
from datetime import date, datetime, time, timezone
from xml.etree import ElementTree as ET

import pytest

from kgverify.errors import SchemaViolation, TransformFailure
from kgverify.model import EvidenceTrace, RetrievalSource, Statement, VerdictKind
from kgverify.reporting import (
    ReportSummary,
    build_run_xml,
    render_html,
    serialize_xml,
    validate_report,
)
from kgverify.verifier import (
    DocumentRecord,
    SkipRecord,
    VerificationMode,
    VerificationSession,
    WikipediaAnchor,
)
from kgverify.xmlkit import XsdValidator, XsltRenderer

NOW = datetime(2024, 3, 2, 13, 27, 25, tzinfo=timezone.utc)

SUMMARY = ReportSummary(
    llm_model="gpt-4-1106-preview",
    date=date(2024, 3, 2),
    time=time(13, 27, 25),
    duration_minutes=24,
    duration_seconds=39,
    subject_id="179924",
    subject_name="Bioluminescence",
    subject_url="http://www.wikidata.org/entity/Q179924",
    subject_permalink="https://wikidata.org/w/index.php?title=Q179924&oldid=2073869683",
    endpoint="https://query.wikidata.org/sparql",
    wikipedia_url="https://en.wikipedia.org/wiki/Bioluminescence",
    wikipedia_permalink="https://en.wikipedia.org/w/index.php?title=Bioluminescence&oldid=1206514418",
)

STATEMENT = Statement(
    "Bioluminescence", "different from", "phosphorescence",
    subject_id="Q179924", predicate_id="P1889",
)


def make_session(with_trace=True) -> VerificationSession:
    session = VerificationSession(
        statement=STATEMENT, mode=VerificationMode.WIKIPEDIA,
        started_at=NOW, ended_at=NOW,
    )
    session.paragraphs_queried = 6
    session.documents.append(
        DocumentRecord(url="https://en.wikipedia.org/wiki/Bioluminescence",
                       retrieval_source="direct")
    )
    session.documents.append(
        DocumentRecord(
            url="https://dead.example/a.pdf",
            skip=SkipRecord("unsupported-media", "https://dead.example/a.pdf",
                            "media type application/pdf"),
        )
    )
    session.skips.append(SkipRecord("dangling-reference", "9", "no entry"))
    session.wikipedia_anchors.append(
        WikipediaAnchor("An anchoring paragraph with special chars: <&\"'>", (2, 3))
    )
    if with_trace:
        session.traces.append(
            EvidenceTrace(
                document_url="https://web.archive.org/web/2019/https://bay.example/article",
                retrieval_source=RetrievalSource.WEB_ARCHIVE,
                paragraph_text="Phosphorus was thought to be the source of light <in> "
                               "living & creatures.",
                verdict=VerdictKind.DIRECT_PROOF,
                justification='It explains the mechanism "directly" & fully.',
                llm_model="gpt-4-1106-preview",
                timestamp=NOW,
                duration_ms=1234,
            )
        )
    return session


class TestSummaryValidation:
    def test_permalink_must_pin_revision(self):
        with pytest.raises(ValueError, match="oldid"):
            ReportSummary(
                llm_model="m", date=date(2024, 1, 1), time=time(0, 0),
                duration_minutes=0, duration_seconds=0, subject_id="1",
                subject_name="x", subject_url="https://e",
                subject_permalink="https://wikidata.org/wiki/Q1",
                endpoint="https://q",
            )


class TestBuildXml:
    def test_summary_fields_present(self):
        tree = build_run_xml([make_session()], SUMMARY)
        root = tree.getroot()
        assert root.findtext("summary/subject-id") == "179924"
        assert root.findtext("summary/wikipedia-permalink").endswith("oldid=1206514418")
        assert root.findtext("summary/duration-minutes") == "24"
        assert root.findtext("summary/duration-seconds") == "39"
        assert root.get("schema-version") == "1.0"

    def test_round_trip_verbatim(self):
        session = make_session()
        data = serialize_xml(build_run_xml([session], SUMMARY))
        parsed = ET.fromstring(data)
        trace = session.traces[0]
        node = parsed.find("session/traces/trace")
        assert node.findtext("paragraph") == trace.paragraph_text
        assert node.findtext("justification") == trace.justification
        assert node.findtext("document-url") == trace.document_url
        assert node.findtext("retrieval-source") == "web-archive"
        assert node.findtext("verdict") == "direct-proof"
        assert int(node.findtext("duration-ms")) == trace.duration_ms
        anchor = parsed.find("session/wikipedia-anchors/anchor")
        assert anchor.text == session.wikipedia_anchors[0].paragraph_text
        assert anchor.get("refs") == "2 3"
        statement = parsed.find("session/statement")
        assert statement.findtext("subject") == STATEMENT.subject_label
        assert statement.find("subject").get("id") == "Q179924"

    def test_empty_session_is_valid(self):
        session = VerificationSession(
            statement=STATEMENT, mode=VerificationMode.WEB_SEARCH,
            started_at=NOW, ended_at=NOW,
        )
        tree = build_run_xml([session], SUMMARY)
        assert tree.getroot().find("session/traces") is not None
        assert len(tree.getroot().findall("session/traces/trace")) == 0

    def test_multiple_sessions(self):
        tree = build_run_xml([make_session(), make_session(False)], SUMMARY)
        assert len(tree.getroot().findall("session")) == 2

    def test_validation_happens_on_build(self):
        # documents validated structurally: corrupting after build must fail re-validation
        tree = build_run_xml([make_session()], SUMMARY)
        root = tree.getroot()
        summary = root.find("summary")
        summary.remove(summary.find("subject-id"))
        with pytest.raises(SchemaViolation, match="subject-id"):
            validate_report(root)

    def test_foreign_element_rejected(self):
        tree = build_run_xml([make_session()], SUMMARY)
        root = tree.getroot()
        ET.SubElement(root.find("session"), "rogue-element")
        with pytest.raises(SchemaViolation, match="rogue-element"):
            validate_report(root)

    def test_bad_attribute_type_rejected(self):
        tree = build_run_xml([make_session()], SUMMARY)
        node = tree.getroot().find("session/paragraphs-queried")
        node.text = "minus three"
        with pytest.raises(SchemaViolation, match="paragraphs-queried"):
            validate_report(tree.getroot())


class TestRenderHtml:
    def test_contains_all_key_content(self):
        session = make_session()
        html = render_html(build_run_xml([session], SUMMARY))
        assert html.startswith("<!DOCTYPE html>")
        assert "gpt-4-1106-preview" in html
        assert "Phosphorus was thought to be the source of light" in html
        assert "&lt;in&gt; living &amp; creatures." in html
        assert 'href="https://web.archive.org/web/2019/https://bay.example/article"' in html
        assert "Bioluminescence" in html
        assert "unsupported-media" in html
        assert "dangling-reference" in html

    def test_byte_stable(self):
        data = serialize_xml(build_run_xml([make_session()], SUMMARY))
        assert render_html(data) == render_html(data)

    def test_summary_only_document(self):
        tree = build_run_xml([], SUMMARY)
        html = render_html(tree)
        assert "Verification report" in html
        assert "179924" in html

    def test_optional_summary_rows_omitted(self):
        summary = ReportSummary(
            llm_model="m", date=date(2024, 1, 1), time=time(1, 2, 3),
            duration_minutes=0, duration_seconds=5, subject_id="36233",
            subject_name="Václav Havel",
            subject_url="http://www.wikidata.org/entity/Q36233",
            subject_permalink="https://wikidata.org/w/index.php?title=Q36233&oldid=1",
            endpoint="https://query.wikidata.org/sparql",
        )
        html = render_html(build_run_xml([], summary))
        assert "Wikipedia URL" not in html

    def test_rejects_invalid_document(self):
        with pytest.raises(SchemaViolation):
            render_html(b"<verification-report schema-version='1.0'/>")

    def test_characters_xml_cannot_carry_render_the_same_from_the_written_xml(self):
        """A C0 control in a label, a paragraph, a justification or a skip detail
        is written as U+FFFD: the XML parses, and renders the run's own HTML."""
        session = make_session()
        session.statement = dataclasses.replace(STATEMENT, object_label="phospho\x01rescence")
        session.traces[0] = dataclasses.replace(
            session.traces[0], paragraph_text="Light\x01 <in> living\x1f things.",
            justification="It says so\x0b.")
        session.skips[0] = SkipRecord("dangling-reference", "9", "no\x00 entry\ufffe")
        session.documents[1].skip = SkipRecord("unsupported-media", "https://dead.example/a.pdf",
                                               "media type\x02 application/pdf")
        tree = build_run_xml([session], SUMMARY)
        data = serialize_xml(tree)
        assert render_html(data) == render_html(tree)
        node = ET.fromstring(data).find("session")
        assert node.findtext("statement/object") == "phospho\ufffdrescence"
        assert node.findtext("traces/trace/paragraph") == "Light\ufffd <in> living\ufffd things."
        assert node.findtext("traces/trace/justification") == "It says so\ufffd."
        assert node.findtext("skips/skip") == "no\ufffd entry\ufffd"
        assert node.findall("documents/document")[1].get("skip-detail") == (
            "media type\ufffd application/pdf")


MINI_SCHEMA = """<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="root">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" minOccurs="1" maxOccurs="unbounded">
          <xs:complexType>
            <xs:simpleContent>
              <xs:extension base="xs:string">
                <xs:attribute name="n" type="xs:nonNegativeInteger" use="required"/>
              </xs:extension>
            </xs:simpleContent>
          </xs:complexType>
        </xs:element>
        <xs:element name="count" type="xs:nonNegativeInteger" minOccurs="0"/>
      </xs:sequence>
      <xs:attribute name="kind" type="xs:string" use="required"/>
    </xs:complexType>
  </xs:element>
</xs:schema>
"""


class TestXsdValidatorSubset:
    def validator(self):
        return XsdValidator(MINI_SCHEMA)

    def check(self, xml):
        self.validator().validate(ET.fromstring(xml))

    def test_valid_document(self):
        self.check('<root kind="k"><item n="1">x</item><count>3</count></root>')

    def test_missing_required_attribute(self):
        with pytest.raises(SchemaViolation, match="kind"):
            self.check('<root><item n="1">x</item></root>')

    def test_min_occurs_enforced(self):
        with pytest.raises(SchemaViolation, match="item"):
            self.check('<root kind="k"/>')

    def test_bad_simple_type(self):
        with pytest.raises(SchemaViolation, match="count"):
            self.check('<root kind="k"><item n="1">x</item><count>-4</count></root>')

    def test_bad_attribute_type(self):
        with pytest.raises(SchemaViolation, match="n"):
            self.check('<root kind="k"><item n="one">x</item></root>')

    def test_undeclared_attribute(self):
        with pytest.raises(SchemaViolation, match="extra"):
            self.check('<root kind="k"><item n="1" extra="!">x</item></root>')

    def test_unexpected_element(self):
        with pytest.raises(SchemaViolation, match="mystery"):
            self.check('<root kind="k"><item n="1">x</item><mystery/></root>')

    def test_unsupported_simple_type_fails_loudly(self):
        """The report schema uses no boolean: a schema that does is not
        interpreted, whatever the value."""
        schema = MINI_SCHEMA.replace('name="kind" type="xs:string"',
                                     'name="kind" type="xs:boolean"')
        with pytest.raises(SchemaViolation, match="unsupported simple type xs:boolean"):
            XsdValidator(schema).validate(
                ET.fromstring('<root kind="true"><item n="1">x</item></root>'))


MINI_SHEET = """<?xml version="1.0"?>
<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:template match="/">
    <ul>
      <xsl:for-each select="root/item">
        <li data-n="{@n}"><xsl:value-of select="."/></li>
      </xsl:for-each>
      <xsl:if test="root/count">
        <li class="count"><xsl:value-of select="root/count"/></li>
      </xsl:if>
    </ul>
  </xsl:template>
</xsl:stylesheet>
"""


class TestXsltRendererSubset:
    def test_for_each_value_of_and_avt(self):
        renderer = XsltRenderer(MINI_SHEET)
        html = renderer.render(ET.fromstring(
            '<root kind="k"><item n="1">alpha &amp; beta</item>'
            '<item n="2">gamma</item><count>2</count></root>'
        ))
        assert '<li data-n="1">alpha &amp; beta</li>' in html
        assert '<li data-n="2">gamma</li>' in html
        assert '<li class="count">2</li>' in html

    def test_if_suppresses_missing(self):
        renderer = XsltRenderer(MINI_SHEET)
        html = renderer.render(ET.fromstring('<root kind="k"><item n="1">x</item></root>'))
        assert 'class="count"' not in html

    def test_unsupported_instruction_fails_loudly(self):
        sheet = MINI_SHEET.replace(
            '<xsl:value-of select="."/>', '<xsl:copy-of select="."/>'
        )
        renderer = XsltRenderer(sheet)
        with pytest.raises(TransformFailure, match="copy-of"):
            renderer.render(ET.fromstring('<root kind="k"><item n="1">x</item></root>'))

    def test_attribute_select_fails_loudly(self):
        """The report stylesheet selects no ``a/@b``: a sheet that does fails
        rather than rendering an empty value."""
        sheet = MINI_SHEET.replace('<xsl:value-of select="root/count"/>',
                                   '<xsl:value-of select="root/item/@n"/>')
        renderer = XsltRenderer(sheet)
        with pytest.raises(TransformFailure, match="stylesheet application failed"):
            renderer.render(ET.fromstring(
                '<root kind="k"><item n="1">x</item><count>2</count></root>'))

    def test_void_elements_and_escaping(self):
        """A void element self-closes only when its content appended nothing: an
        empty value-of still opens and closes it. Text and attribute values are
        escaped, and template text is stripped."""
        sheet = ('<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" '
                 'version="1.0"><xsl:template match="/">'
                 '<p>top &amp; <br/><xsl:for-each select="root"><img src="{@q}"/></xsl:for-each>'
                 '<br><xsl:value-of select="root/missing"/></br><hr>x</hr></p>tail &lt;'
                 '</xsl:template></xsl:stylesheet>')
        html = XsltRenderer(sheet).render(ET.fromstring('<root q=\'a"b&amp;c\'/>'))
        assert html == ('<!DOCTYPE html>\n<p>top &amp;<br/><img src="a&quot;b&amp;c"/>'
                        '<br></br><hr>x</hr></p>tail &lt;\n')

    def test_requires_root_template(self):
        with pytest.raises(TransformFailure):
            XsltRenderer('<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" '
                         'version="1.0"/>')
