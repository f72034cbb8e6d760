from __future__ import annotations

from kgverify.html_text import (
    capture_elements,
    extract_links,
    extract_paragraph_elements,
    extract_paragraphs,
    strip_archive_chrome,
)


class TestExtractParagraphs:
    def test_order_preserved(self):
        html = "<html><body><p>first</p><div><p>second</p></div><p>third</p></body></html>"
        assert extract_paragraphs(html) == ["first", "second", "third"]

    def test_nested_inline_markup_flattened(self):
        html = "<p>The <b>award</b> went to <a href='/x'>Havel</a>.</p>"
        assert extract_paragraphs(html) == ["The award went to Havel."]

    def test_whitespace_collapsed(self):
        html = "<p>  lots\n of \t whitespace   here </p>"
        assert extract_paragraphs(html) == ["lots of whitespace here"]

    def test_entities_decoded(self):
        html = "<p>Tom &amp; Jerry &#8211; friends</p>"
        assert extract_paragraphs(html) == ["Tom & Jerry – friends"]

    def test_empty_paragraphs_dropped(self):
        html = "<p></p><p>  </p><p>real</p>"
        assert extract_paragraphs(html) == ["real"]

    def test_script_and_style_ignored(self):
        html = "<p>keep<script>var p = '<p>fake</p>';</script> this</p><style>p{}</style>"
        assert extract_paragraphs(html) == ["keep this"]

    def test_headings_and_list_items_ignored(self):
        html = "<h1>title</h1><li>item</li><td>cell</td><p>paragraph</p>"
        assert extract_paragraphs(html) == ["paragraph"]

    def test_unclosed_paragraphs_auto_close(self):
        # legacy markup: a new <p> implicitly ends the previous one
        html = "<body><p>first paragraph<p>second paragraph</body>"
        assert extract_paragraphs(html) == ["first paragraph", "second paragraph"]

    def test_unclosed_paragraph_at_end_of_input(self):
        assert extract_paragraphs("<p>dangling text") == ["dangling text"]


class TestCaptureElements:
    def test_inner_markup_preserved(self):
        html = '<p>before<sup class="reference"><a href="#cite_note-3">[3]</a></sup>after</p>'
        captured = extract_paragraph_elements(html)
        assert len(captured) == 1
        assert captured[0].text == "before[3]after"
        assert '<sup class="reference">' in captured[0].html
        assert 'href="#cite_note-3"' in captured[0].html

    def test_a_valueless_attribute_is_kept(self):
        inner = 'fact<sup class="reference" hidden><a href="#cite_note-1">[1]</a></sup>'
        [captured] = extract_paragraph_elements(f"<p>{inner}</p>")
        assert captured.html == inner

    def test_class_filter(self):
        html = '<ol class="other"><li>x</li></ol><ol class="references"><li>y</li></ol>'
        captured = capture_elements(html, "ol", class_filter="references")
        assert len(captured) == 1
        assert captured[0].text == "y"

    def test_nested_same_tag(self):
        html = "<div id='a'><div id='b'>inner</div>tail</div>"
        captured = capture_elements(html, "div")
        assert len(captured) == 1
        assert captured[0].text == "innertail"

    def test_void_elements(self):
        html = "<p>line one<br>line two<img src='x.png'></p>"
        captured = extract_paragraph_elements(html)
        assert captured[0].text == "line one line two"
        assert "<br/>" in captured[0].html

    def test_self_closing_elements_keep_their_place(self):
        html = '<p>before<br/>after <img src="x.png"/> end</p>'
        [captured] = extract_paragraph_elements(html)
        assert captured.html == 'before<br/>after <img src="x.png"/> end'
        assert captured.text == "before after end"

    def test_noscript_content_is_not_captured(self):
        html = ("<noscript><p>fallback paragraph</p></noscript>"
                '<p>keep <noscript>no <b>js</b><img src="t.gif"/></noscript>this</p>')
        [captured] = extract_paragraph_elements(html)
        assert captured.text == "keep this"
        assert captured.html == "keep this"


class TestExtractLinks:
    def test_collects_hrefs_in_order(self):
        html = '<a href="https://a.example">a</a><span><a href="/rel">b</a></span>'
        assert extract_links(html) == ["https://a.example", "/rel"]

    def test_anchor_without_href_skipped(self):
        assert extract_links('<a name="x">no href</a>') == []


class TestArchiveChrome:
    def test_toolbar_block_removed(self):
        html = (
            "<body><!-- BEGIN WAYBACK TOOLBAR INSERT -->"
            '<div id="wm-ipp"><p>toolbar paragraph content that is long enough</p></div>'
            "<!-- END WAYBACK TOOLBAR INSERT --><p>article text</p></body>"
        )
        stripped = strip_archive_chrome(html)
        assert "toolbar paragraph" not in stripped
        assert extract_paragraphs(stripped) == ["article text"]

    def test_plain_page_unchanged(self):
        html = "<body><p>no chrome here</p></body>"
        assert strip_archive_chrome(html) == html


def test_paragraph_whitespace_collapses():
    assert extract_paragraphs("<p>  a\n\tb  <b> c </b>\u00a0</p>") == ["a b c"]
